package bench

import (
	"fmt"
	"math/rand"
	"sync"

	"lafdbscan/internal/cardest"
	"lafdbscan/internal/cluster"
	"lafdbscan/internal/core"
	"lafdbscan/internal/dataset"
	"lafdbscan/internal/rmi"
	"lafdbscan/internal/vecmath"
)

// Workbench owns the expensive shared artifacts of a harness run — datasets,
// trained estimators and exact-DBSCAN ground truths — and caches them across
// experiments so regenerating all tables and figures does each piece of work
// once. Safe for use from a single goroutine (the harness is sequential).
type Workbench struct {
	Cfg Config

	mu         sync.Mutex
	datasets   map[string]*splitData
	estimators map[string]cardest.Estimator
	truths     map[truthKey]*cluster.Result
}

type splitData struct {
	key   string
	train *dataset.Dataset
	test  *dataset.Dataset
}

type truthKey struct {
	dataset string
	s       Setting
}

// NewWorkbench returns an empty workbench for the config.
func NewWorkbench(cfg Config) *Workbench {
	return &Workbench{
		Cfg:        cfg,
		datasets:   make(map[string]*splitData),
		estimators: make(map[string]cardest.Estimator),
		truths:     make(map[truthKey]*cluster.Result),
	}
}

// DatasetKeys lists the five dataset keys in the paper's reporting order.
func (w *Workbench) DatasetKeys() []string {
	return []string{KeyNYT, KeyGlove, KeyMSSmall, KeyMSMid, KeyMSLarge}
}

// LargestKeys lists the three "largest datasets" of the paper's Section 3.3
// (NYT-150k, Glove-150k, MS-150k stand-ins).
func (w *Workbench) LargestKeys() []string {
	return []string{KeyNYT, KeyGlove, KeyMSLarge}
}

// MSKeys lists the three MS-like scales of the scalability experiments.
func (w *Workbench) MSKeys() []string {
	return []string{KeyMSSmall, KeyMSMid, KeyMSLarge}
}

// testSize returns the configured test-set size of a dataset key.
func (w *Workbench) testSize(key string) int {
	switch key {
	case KeyNYT:
		return w.Cfg.NYTN
	case KeyGlove:
		return w.Cfg.GloveN
	case KeyMSSmall:
		return w.Cfg.MSScales[0]
	case KeyMSMid:
		return w.Cfg.MSScales[1]
	case KeyMSLarge:
		return w.Cfg.MSScales[2]
	default:
		panic("bench: unknown dataset key " + key)
	}
}

// data returns (building and caching on first use) the train/test split of
// a dataset key. Generation mirrors the paper: total points = 5x the test
// size, split 8:2, all vectors normalized.
func (w *Workbench) data(key string) *splitData {
	w.mu.Lock()
	defer w.mu.Unlock()
	if d, ok := w.datasets[key]; ok {
		return d
	}
	testN := w.testSize(key)
	total := testN * (1 + w.Cfg.TrainFactor)
	var full *dataset.Dataset
	switch key {
	case KeyNYT:
		full = dataset.NYTLike(dataset.NYTLikeConfig{N: total, Seed: w.Cfg.Seed + 11, NoiseFrac: 0.15})
	case KeyGlove:
		full = dataset.GloVeLike(total, w.Cfg.Seed+22)
	case KeyMSSmall:
		full = dataset.MSLike(total, w.Cfg.Seed+33)
	case KeyMSMid:
		full = dataset.MSLike(total, w.Cfg.Seed+44)
	case KeyMSLarge:
		full = dataset.MSLike(total, w.Cfg.Seed+55)
	}
	rng := rand.New(rand.NewSource(w.Cfg.Seed + 99))
	frac := float64(w.Cfg.TrainFactor) / float64(1+w.Cfg.TrainFactor)
	train, test, err := full.Split(frac, rng)
	if err != nil {
		// The workbench's scale tables always produce fractions strictly
		// inside (0, 1) over thousands of points; a failure here is a
		// config-table bug, not a runtime condition.
		panic(err)
	}
	sd := &splitData{key: key, train: train, test: test}
	w.datasets[key] = sd
	return sd
}

// TestSet returns the evaluation split of a dataset key.
func (w *Workbench) TestSet(key string) *dataset.Dataset { return w.data(key).test }

// Estimator returns the trained RMI estimator of a dataset key, training it
// on the key's train split on first use. Training time is excluded from all
// reported clustering times, as in the paper.
func (w *Workbench) Estimator(key string) (cardest.Estimator, error) {
	w.mu.Lock()
	if e, ok := w.estimators[key]; ok {
		w.mu.Unlock()
		return e, nil
	}
	w.mu.Unlock()
	d := w.data(key)
	rng := rand.New(rand.NewSource(w.Cfg.Seed + 7))
	// Count labels against a train subsample of the test-set size, so the
	// model's output scale matches the set being clustered directly.
	reference := d.train.Sample(key+"-ref", d.test.Len(), rng).Vectors
	examples := cardest.BuildTrainingSetAgainst(d.train.Vectors, reference,
		vecmath.CosineDistanceUnit, cardest.DefaultRadii(), w.Cfg.EstimatorQueries, rng)
	cfg := rmi.DefaultConfig()
	cfg.Hidden = []int{64, 32}
	cfg.Epochs = w.Cfg.EstimatorEpochs
	cfg.Seed = w.Cfg.Seed
	model, err := rmi.Train(examples, len(reference), cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: training estimator for %s: %w", key, err)
	}
	est := cardest.NewRMIEstimator(model, 1.0)
	w.mu.Lock()
	w.estimators[key] = est
	w.mu.Unlock()
	return est, nil
}

// GroundTruth returns exact DBSCAN's labeling of a dataset key at a setting,
// cached across experiments.
func (w *Workbench) GroundTruth(key string, s Setting) (*cluster.Result, error) {
	tk := truthKey{dataset: key, s: s}
	w.mu.Lock()
	if r, ok := w.truths[tk]; ok {
		w.mu.Unlock()
		return r, nil
	}
	w.mu.Unlock()
	res, err := (&core.LAFDBSCAN{Points: w.data(key).test.Vectors, Config: w.openGate(s)}).Run()
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	w.truths[tk] = res
	w.mu.Unlock()
	return res, nil
}

// openGate is the engine Config that runs the LAF engines as exact DBSCAN
// and DBSCAN++ at a setting: the open gate, the configured engine knobs.
func (w *Workbench) openGate(s Setting) core.Config {
	return core.Config{
		Eps: s.Eps, Tau: s.Tau, Alpha: 1, Estimator: core.OpenGate,
		Seed: w.Cfg.Seed, DisablePostProcessing: true,
		Workers: w.Cfg.Workers, WaveSize: w.Cfg.WaveSize,
	}
}

// Alpha returns the configured LAF-DBSCAN error factor of a dataset key.
func (w *Workbench) Alpha(key string) float64 {
	if a, ok := w.Cfg.Alphas[key]; ok {
		return a
	}
	return 1.0
}

// SampleFraction computes DBSCAN++'s p = delta + Rc for a dataset key,
// using the estimator-predicted core ratio exactly as the paper prescribes.
// The result is clamped to the operating range the paper reports ("the
// final p normally ranges within 0.2 ~ 0.6").
func (w *Workbench) SampleFraction(key string, s Setting) (float64, error) {
	est, err := w.Estimator(key)
	if err != nil {
		return 0, err
	}
	rc := core.PredictedCoreRatio(w.data(key).test.Vectors, est, s.Eps, s.Tau, w.Alpha(key))
	p := w.Cfg.Delta + rc
	if p > 0.6 {
		p = 0.6
	}
	if p < 0.2 {
		p = 0.2
	}
	return p, nil
}

// RunMethod executes a named method on a dataset key at a setting with the
// paper's parameterization (alpha from the config table, p = delta + Rc,
// KNN-BLOCK at branching 10 / leaves 0.6, BLOCK-DBSCAN at base 2 / RNT 10).
func (w *Workbench) RunMethod(method, key string, s Setting) (*cluster.Result, error) {
	d := w.data(key)
	pts := d.test.Vectors
	switch method {
	case "DBSCAN":
		return w.GroundTruth(key, s)
	case "KNN-BLOCK":
		return (&cluster.KNNBlock{Points: pts, Eps: s.Eps, Tau: s.Tau,
			Branching: 10, LeavesRatio: 0.6, Seed: w.Cfg.Seed}).Run()
	case "BLOCK-DBSCAN":
		return (&cluster.BlockDBSCAN{Points: pts, Eps: s.Eps, Tau: s.Tau,
			Base: 2, RNT: 10, Seed: w.Cfg.Seed}).Run()
	case "DBSCAN++":
		p, err := w.SampleFraction(key, s)
		if err != nil {
			return nil, err
		}
		return (&core.LAFDBSCANPP{Points: pts, P: p, Config: w.openGate(s)}).Run()
	case "LAF-DBSCAN":
		est, err := w.Estimator(key)
		if err != nil {
			return nil, err
		}
		return (&core.LAFDBSCAN{Points: pts, Config: core.Config{
			Eps: s.Eps, Tau: s.Tau, Alpha: w.Alpha(key),
			Estimator: est, Seed: w.Cfg.Seed,
			Workers: w.Cfg.Workers, WaveSize: w.Cfg.WaveSize,
		}}).Run()
	case "LAF-DBSCAN++":
		est, err := w.Estimator(key)
		if err != nil {
			return nil, err
		}
		p, err := w.SampleFraction(key, s)
		if err != nil {
			return nil, err
		}
		return (&core.LAFDBSCANPP{Points: pts, P: p, Config: core.Config{
			Eps: s.Eps, Tau: s.Tau, Alpha: 1.0, // the paper fixes alpha=1 here
			Estimator: est, Seed: w.Cfg.Seed,
			Workers: w.Cfg.Workers, WaveSize: w.Cfg.WaveSize,
		}}).Run()
	case "rho-approx":
		return (&cluster.RhoApprox{Points: pts, Eps: s.Eps, Tau: s.Tau, Rho: 1.0}).Run()
	default:
		return nil, fmt.Errorf("bench: unknown method %q", method)
	}
}

// ApproxMethods lists the approximate methods of the paper's quality tables,
// in reporting order.
func ApproxMethods() []string {
	return []string{"KNN-BLOCK", "BLOCK-DBSCAN", "DBSCAN++", "LAF-DBSCAN", "LAF-DBSCAN++"}
}

// AllMethods is ApproxMethods plus the DBSCAN reference, the lineup of the
// timing figures.
func AllMethods() []string {
	return append([]string{"DBSCAN"}, ApproxMethods()...)
}
