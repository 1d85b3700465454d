package lafdbscan

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"os"

	"lafdbscan/internal/cardest"
	"lafdbscan/internal/index"
	"lafdbscan/internal/rmi"
	"lafdbscan/internal/vecmath"
)

// EstimatorConfig controls TrainRMIEstimator. Zero values pick fast
// laptop-friendly defaults; set Paper to true for the paper's exact
// architecture (RMI 1/2/4 with hidden widths 512-512-256-128, 200 epochs,
// batch 512 — slow to train in pure Go).
type EstimatorConfig struct {
	// Radii are the distance thresholds the training set covers. Default:
	// the paper's grid 0.1 through 0.9.
	Radii []float64
	// MaxQueries bounds the number of training query points (the label
	// computation is O(MaxQueries * len(reference))); 0 selects the
	// default of 400, keeping training-set construction cheap.
	MaxQueries int
	// TargetSize is the size of the set that will be clustered. Predictions
	// scale by TargetSize/len(train); 0 means "same size as training set".
	TargetSize int
	// Paper switches to the paper's full architecture and training budget.
	Paper bool
	// Hidden, Epochs, BatchSize and LR override individual model settings
	// when non-zero. Ignored when Paper is set.
	Hidden    []int
	Epochs    int
	BatchSize int
	LR        float64
	// Metric selects the distance whose cardinalities the estimator learns
	// (default MetricCosine). With MetricEuclidean the default radii grid
	// is the Equation 1 image of the cosine grid, so unit-vector workloads
	// stay covered — the paper's future-work extension.
	Metric DistanceMetric
	// Seed makes training reproducible.
	Seed int64
}

// TrainRMIEstimator builds the paper's learned cardinality estimator: it
// computes exact neighbor counts over the training vectors at each radius
// (the label-generation pass) and fits the three-stage RMI on them.
//
// Training time is excluded from clustering time in all experiments, as in
// the paper; a trained estimator can be reused across runs and parameter
// settings because the radius is a model input.
func TrainRMIEstimator(train [][]float32, cfg EstimatorConfig) (Estimator, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("lafdbscan: empty training set")
	}
	if len(cfg.Radii) == 0 {
		cfg.Radii = cardest.DefaultRadii()
		if cfg.Metric == MetricEuclidean {
			for i, r := range cfg.Radii {
				cfg.Radii[i] = vecmath.CosineToEuclidean(r)
			}
		}
	}
	if cfg.MaxQueries == 0 {
		cfg.MaxQueries = 400
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Count training labels against a reference set whose size matches the
	// set that will be clustered, so no post-hoc scale correction is
	// needed; when the target is larger than the training data, fall back
	// to linear scaling of the predictions.
	reference := train
	scale := 1.0
	switch {
	case cfg.TargetSize > 0 && cfg.TargetSize < len(train):
		perm := rng.Perm(len(train))[:cfg.TargetSize]
		reference = make([][]float32, cfg.TargetSize)
		for i, idx := range perm {
			reference[i] = train[idx]
		}
	case cfg.TargetSize > len(train):
		scale = float64(cfg.TargetSize) / float64(len(train))
	}
	dist := vecmath.CosineDistanceUnit
	if cfg.Metric != MetricCosine {
		dist = cfg.Metric.Func()
	}
	examples := cardest.BuildTrainingSetAgainst(train, reference, dist,
		cfg.Radii, cfg.MaxQueries, rng)

	rcfg := rmi.DefaultConfig()
	// The facade default favors fast CPU training over the last few points
	// of estimator accuracy; the gate only needs to rank points around the
	// alpha*tau threshold. Pass Paper (or explicit overrides) for more.
	rcfg.Hidden = []int{32, 16}
	rcfg.Epochs = 20
	if cfg.Paper {
		rcfg = rmi.PaperConfig()
	}
	if len(cfg.Hidden) > 0 {
		rcfg.Hidden = cfg.Hidden
	}
	if cfg.Epochs > 0 {
		rcfg.Epochs = cfg.Epochs
	}
	if cfg.BatchSize > 0 {
		rcfg.BatchSize = cfg.BatchSize
	}
	if cfg.LR > 0 {
		rcfg.LR = cfg.LR
	}
	rcfg.Seed = cfg.Seed

	model, err := rmi.Train(examples, len(reference), rcfg)
	if err != nil {
		return nil, err
	}
	return cardest.NewRMIEstimator(model, scale), nil
}

// SaveEstimator persists a trained RMI estimator (as returned by
// TrainRMIEstimator) to a file so later runs can skip training. Only RMI
// estimators are serializable.
func SaveEstimator(est Estimator, path string) error {
	payload, err := marshalEstimator(est)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(&payload); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// estimatorPayload is the single-message wire format of SaveEstimator (and
// the estimator block of Model.Save); the model is nested as opaque bytes so
// the scale and the network weights travel through one gob stream.
type estimatorPayload struct {
	Scale float64
	Model []byte
}

// errEstimatorNotSerializable marks estimator kinds with no wire format
// (the exact oracle, sampling, histogram, constant). Model.Save drops those
// and persists everything else or fails; SaveEstimator reports either way.
var errEstimatorNotSerializable = errors.New("estimator is not serializable")

// marshalEstimator serializes an RMI estimator through internal/rmi's wire
// format; any other estimator kind returns errEstimatorNotSerializable.
func marshalEstimator(est Estimator) (estimatorPayload, error) {
	re, ok := est.(*cardest.RMIEstimator)
	if !ok {
		return estimatorPayload{}, fmt.Errorf("lafdbscan: estimator %q: %w", est.Name(), errEstimatorNotSerializable)
	}
	var model bytes.Buffer
	if err := re.Model.Save(&model); err != nil {
		return estimatorPayload{}, err
	}
	return estimatorPayload{Scale: re.Scale, Model: model.Bytes()}, nil
}

// unmarshalEstimator is the inverse of marshalEstimator.
func unmarshalEstimator(payload estimatorPayload) (*cardest.RMIEstimator, error) {
	model, err := rmi.Load(bytes.NewReader(payload.Model))
	if err != nil {
		return nil, err
	}
	return cardest.NewRMIEstimator(model, payload.Scale), nil
}

// LoadEstimator reads an estimator written by SaveEstimator.
func LoadEstimator(path string) (Estimator, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var payload estimatorPayload
	if err := gob.NewDecoder(f).Decode(&payload); err != nil {
		return nil, fmt.Errorf("lafdbscan: decoding estimator: %w", err)
	}
	est, err := unmarshalEstimator(payload)
	if err != nil {
		return nil, err
	}
	return est, nil
}

// ExactEstimator returns a cardinality oracle that executes real range
// queries over points. With Alpha = 1 it makes LAF-DBSCAN reproduce DBSCAN
// exactly while still skipping the stop points' queries — the framework's
// upper bound, useful in ablations.
func ExactEstimator(points [][]float32) Estimator {
	return &cardest.Exact{Index: index.NewBruteForce(points, vecmath.CosineDistanceUnit)}
}

// SamplingEstimator returns the traditional sampling baseline: neighbor
// counts within a uniform sample of size m, scaled up.
func SamplingEstimator(points [][]float32, m int, seed int64) Estimator {
	return cardest.NewSampling(points, vecmath.CosineDistanceUnit, m, rand.New(rand.NewSource(seed)))
}

// HistogramEstimator returns the anchor-histogram density baseline with k
// anchors.
func HistogramEstimator(points [][]float32, k int, seed int64) Estimator {
	return cardest.NewHistogram(points, vecmath.CosineDistanceUnit, k, 0.05, 2.0,
		rand.New(rand.NewSource(seed)))
}
