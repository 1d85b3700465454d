package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"lafdbscan/internal/cardest"
	"lafdbscan/internal/cluster"
	"lafdbscan/internal/dataset"
	"lafdbscan/internal/index"
	"lafdbscan/internal/metrics"
	"lafdbscan/internal/rmi"
	"lafdbscan/internal/vecmath"
)

func exactEstimator(points [][]float32) cardest.Estimator {
	return &cardest.Exact{Index: index.NewBruteForce(points, vecmath.CosineDistanceUnit)}
}

func evalDataset(seed int64) *dataset.Dataset {
	return dataset.GenerateMixture("eval", dataset.MixtureConfig{
		N: 450, Dim: 32, Clusters: 6, MinSpread: 0.2, MaxSpread: 0.4,
		NoiseFrac: 0.2, SizeSkew: 1.0, Seed: seed,
	})
}

// openGateConfig runs the engines as exact DBSCAN and DBSCAN++.
func openGateConfig(eps float64, tau int) Config {
	return Config{Eps: eps, Tau: tau, Alpha: 1, Estimator: OpenGate, DisablePostProcessing: true}
}

func dbscanTruth(t *testing.T, pts [][]float32, eps float64, tau int) *cluster.Result {
	t.Helper()
	res, err := (&LAFDBSCAN{Points: pts, Config: openGateConfig(eps, tau)}).Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestOpenGateRunsThePlainAlgorithms pins what OpenGate promises on both
// engines of both algorithms: no query is skipped, post-processing has
// nothing to repair (the labels are the same with it on), and the results
// carry the plain algorithm names.
func TestOpenGateRunsThePlainAlgorithms(t *testing.T) {
	d := evalDataset(43)
	for _, workers := range []int{0, 2} {
		cfg := openGateConfig(0.5, 4)
		cfg.Workers, cfg.Seed = workers, 3
		repair := cfg
		repair.DisablePostProcessing = false
		runs := []struct {
			name string
			run  func(Config) (*cluster.Result, error)
		}{
			{"DBSCAN", func(c Config) (*cluster.Result, error) {
				return (&LAFDBSCAN{Points: d.Vectors, Config: c}).Run()
			}},
			{"DBSCAN++", func(c Config) (*cluster.Result, error) {
				return (&LAFDBSCANPP{Points: d.Vectors, P: 0.5, Config: c}).Run()
			}},
		}
		for _, r := range runs {
			res, err := r.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := r.run(repair)
			if err != nil {
				t.Fatal(err)
			}
			if res.Algorithm != r.name || res.SkippedQueries != 0 || res.NumClusters == 0 {
				t.Errorf("%s workers=%d: algorithm %q, %d skipped, %d clusters",
					r.name, workers, res.Algorithm, res.SkippedQueries, res.NumClusters)
			}
			if rep.PostMerges != 0 || !slices.Equal(rep.Labels, res.Labels) {
				t.Errorf("%s workers=%d: post-processing merged %d clusters under the open gate",
					r.name, workers, rep.PostMerges)
			}
		}
	}
	res, err := (&LAFDBSCAN{Points: d.Vectors, Config: Config{
		Eps: 0.5, Tau: 4, Alpha: 1, Estimator: exactEstimator(d.Vectors),
	}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "LAF-DBSCAN" {
		t.Errorf("learned gate: algorithm %q, want LAF-DBSCAN", res.Algorithm)
	}
}

// The framework's central correctness property: with an exact cardinality
// oracle and alpha = 1, the gate never mispredicts, E stays empty of false
// negatives, and LAF-DBSCAN reproduces DBSCAN exactly.
func TestLAFDBSCANExactOracleMatchesDBSCAN(t *testing.T) {
	d := evalDataset(41)
	for _, params := range []struct {
		eps float64
		tau int
	}{{0.5, 3}, {0.55, 5}, {0.6, 5}} {
		truth := dbscanTruth(t, d.Vectors, params.eps, params.tau)
		res, err := (&LAFDBSCAN{Points: d.Vectors, Config: Config{
			Eps: params.eps, Tau: params.tau, Alpha: 1.0,
			Estimator: exactEstimator(d.Vectors),
		}}).Run()
		if err != nil {
			t.Fatal(err)
		}
		ari, err := metrics.ARI(truth.Labels, res.Labels)
		if err != nil {
			t.Fatal(err)
		}
		if ari < 0.9999 {
			t.Errorf("(%v,%d): exact-oracle LAF-DBSCAN ARI = %v, want 1",
				params.eps, params.tau, ari)
		}
	}
}

// With the exact oracle, the queries LAF skips are exactly the stop points
// DBSCAN would have wasted queries on.
func TestLAFDBSCANSkipsOnlyStopPoints(t *testing.T) {
	d := evalDataset(42)
	const eps, tau = 0.5, 4
	truth := dbscanTruth(t, d.Vectors, eps, tau)
	res, err := (&LAFDBSCAN{Points: d.Vectors, Config: Config{
		Eps: eps, Tau: tau, Alpha: 1.0, Estimator: exactEstimator(d.Vectors),
	}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.SkippedQueries == 0 {
		t.Error("exact-oracle LAF skipped nothing; gate inert")
	}
	if res.RangeQueries+res.SkippedQueries > truth.RangeQueries+50 {
		t.Errorf("LAF did more work than DBSCAN: %d+%d vs %d",
			res.RangeQueries, res.SkippedQueries, truth.RangeQueries)
	}
	if res.RangeQueries >= truth.RangeQueries {
		t.Errorf("LAF executed %d range queries, DBSCAN %d; no savings",
			res.RangeQueries, truth.RangeQueries)
	}
}

func TestLAFDBSCANAllStopPredictionGivesNoiseThenRepairs(t *testing.T) {
	d := dataset.TwoBlobs(12, 43)
	// Estimator that always predicts 0: every point is a predicted stop
	// point, every query is skipped, everything becomes noise, and E stays
	// empty of neighbors (no queries ran), so post-processing cannot help.
	res, err := (&LAFDBSCAN{Points: d.Vectors, Config: Config{
		Eps: 0.3, Tau: 3, Alpha: 1.0,
		Estimator: &cardest.ConstantEstimator{Value: 0},
	}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Labels {
		if l != cluster.Noise {
			t.Fatal("all-stop prediction still clustered something")
		}
	}
	if res.RangeQueries != 0 {
		t.Errorf("ran %d queries despite all-stop estimator", res.RangeQueries)
	}
}

func TestLAFDBSCANAllCorePredictionMatchesDBSCAN(t *testing.T) {
	// Estimator that always predicts +inf: nothing is skipped, LAF-DBSCAN
	// degenerates to plain DBSCAN.
	d := evalDataset(44)
	const eps, tau = 0.5, 4
	truth := dbscanTruth(t, d.Vectors, eps, tau)
	res, err := (&LAFDBSCAN{Points: d.Vectors, Config: Config{
		Eps: eps, Tau: tau, Alpha: 1.0,
		Estimator: &cardest.ConstantEstimator{Value: 1e18},
	}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	ari, _ := metrics.ARI(truth.Labels, res.Labels)
	if ari < 0.9999 {
		t.Errorf("all-core LAF-DBSCAN ARI = %v, want 1", ari)
	}
	if res.SkippedQueries != 0 {
		t.Error("skipped queries despite all-core estimator")
	}
}

// bridgeDataset places two tight arcs on a great circle connected only
// through a single bridge point m. With eps=0.3 and tau=3, DBSCAN finds one
// cluster; if the estimator falsely predicts m as a stop point the cluster
// splits in two, and post-processing must repair the split because four
// points discover m as their neighbor (|E(m)| = 4 >= tau). The bridge sits
// at index 0: E only records discoveries made after a stop point registers,
// so the bridge must be classified before its neighbors run their queries —
// the same visit-order sensitivity the paper's Algorithm 1 has.
func bridgeDataset() (points [][]float32, bridge int) {
	angles := []float64{50, 0, 5, 10, 90, 95, 100} // degrees; index 0 is m
	const dim = 8
	u := make([]float32, dim)
	v := make([]float32, dim)
	u[0], v[1] = 1, 1
	for _, deg := range angles {
		rad := deg * 3.141592653589793 / 180
		p := make([]float32, dim)
		for j := range p {
			p[j] = u[j]*float32(cosf(rad)) + v[j]*float32(sinf(rad))
		}
		points = append(points, p)
	}
	return points, 0
}

func cosf(x float64) float64 { return math.Cos(x) }
func sinf(x float64) float64 { return math.Sin(x) }

// Post-processing repair: lie about exactly the bridge point and verify the
// merge pass reunites the two halves.
func TestLAFDBSCANPostProcessingRepairsFalseNegatives(t *testing.T) {
	points, bridge := bridgeDataset()
	const eps, tau = 0.3, 3
	truth := dbscanTruth(t, points, eps, tau)
	if truth.NumClusters != 1 {
		t.Fatalf("bridge dataset: DBSCAN found %d clusters, want 1", truth.NumClusters)
	}

	lying := &targetedLiar{inner: exactEstimator(points), target: points[bridge]}
	with, err := (&LAFDBSCAN{Points: points, Config: Config{
		Eps: eps, Tau: tau, Alpha: 1.0, Estimator: lying, Seed: 1,
	}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	without, err := (&LAFDBSCAN{Points: points, Config: Config{
		Eps: eps, Tau: tau, Alpha: 1.0, Estimator: lying, Seed: 1,
		DisablePostProcessing: true,
	}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if without.NumClusters != 2 {
		t.Fatalf("false negative did not split the cluster: %d clusters", without.NumClusters)
	}
	if with.NumClusters != 1 {
		t.Fatalf("post-processing left %d clusters, want 1", with.NumClusters)
	}
	if with.PostMerges != 1 {
		t.Errorf("PostMerges = %d, want 1", with.PostMerges)
	}
	if with.Labels[bridge] == cluster.Noise {
		t.Error("bridge point left as noise after repair")
	}
	ariWith, _ := metrics.ARI(truth.Labels, with.Labels)
	if ariWith < 0.9999 {
		t.Errorf("repaired ARI = %v, want 1", ariWith)
	}
}

// targetedLiar answers 0 for one specific query vector and defers to the
// exact oracle otherwise.
type targetedLiar struct {
	inner  cardest.Estimator
	target []float32
}

func (l *targetedLiar) Estimate(q []float32, eps float64) float64 {
	if &q[0] == &l.target[0] {
		return 0
	}
	return l.inner.Estimate(q, eps)
}

func (l *targetedLiar) Name() string { return "targeted-liar" }

func TestLAFDBSCANAlphaTradeoffDirection(t *testing.T) {
	// Raising alpha turns more points into predicted stops: skipped queries
	// must not decrease.
	d := evalDataset(46)
	const eps, tau = 0.5, 4
	var prevSkipped = -1
	for _, alpha := range []float64{0.5, 1.0, 3.0, 10.0} {
		res, err := (&LAFDBSCAN{Points: d.Vectors, Config: Config{
			Eps: eps, Tau: tau, Alpha: alpha, Estimator: exactEstimator(d.Vectors),
		}}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.SkippedQueries < prevSkipped {
			t.Errorf("alpha=%v skipped %d < previous %d", alpha, res.SkippedQueries, prevSkipped)
		}
		prevSkipped = res.SkippedQueries
	}
}

func TestLAFConfigValidation(t *testing.T) {
	pts := dataset.TwoBlobs(4, 1).Vectors
	est := exactEstimator(pts)
	cases := []Config{
		{Eps: 0.5, Tau: 3, Alpha: 1},                 // nil estimator
		{Eps: 0.5, Tau: 3, Alpha: 0, Estimator: est}, // bad alpha
		{Eps: 0, Tau: 3, Alpha: 1, Estimator: est},   // bad eps
		{Eps: 0.5, Tau: 0, Alpha: 1, Estimator: est}, // bad tau
	}
	for i, cfg := range cases {
		if _, err := (&LAFDBSCAN{Points: pts, Config: cfg}).Run(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := (&LAFDBSCAN{Points: nil, Config: Config{Eps: 0.5, Tau: 3, Alpha: 1, Estimator: est}}).Run(); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestPartialNeighbors(t *testing.T) {
	e := make(PartialNeighbors)
	e.Ensure(5)
	if _, ok := e[5]; !ok {
		t.Fatal("Ensure did not add")
	}
	e[5][99] = struct{}{}
	e.Ensure(5)
	if len(e[5]) != 1 {
		t.Fatal("Ensure overwrote existing entry")
	}
	e.Update(7, []int{5, 6})
	if _, ok := e[5][7]; !ok {
		t.Fatal("Update missed a tracked stop point")
	}
	if _, ok := e[6]; ok {
		t.Fatal("Update created an entry for an untracked point")
	}
}

func TestPostProcessMergesSplitClusters(t *testing.T) {
	// Two clusters {0,1} -> 1 and {2,3} -> 2, separated by the false stop
	// point 4 whose partial neighbors span both. Post-processing must merge.
	labels := []int{1, 1, 2, 2, cluster.Noise}
	e := PartialNeighbors{4: {0: {}, 1: {}, 2: {}, 3: {}}}
	rng := rand.New(rand.NewSource(1))
	merges := PostProcess(labels, e, 3, rng)
	if merges != 1 {
		t.Errorf("merges = %d, want 1", merges)
	}
	if labels[0] != labels[2] {
		t.Errorf("clusters not merged: %v", labels)
	}
	if labels[4] == cluster.Noise {
		t.Error("false stop point left as noise")
	}
	if labels[4] != labels[0] {
		t.Error("false stop point not in the merged cluster")
	}
}

func TestPostProcessRespectsTau(t *testing.T) {
	labels := []int{1, 1, 2, 2, cluster.Noise}
	e := PartialNeighbors{4: {0: {}, 2: {}}} // only 2 partial neighbors
	rng := rand.New(rand.NewSource(1))
	if merges := PostProcess(labels, e, 3, rng); merges != 0 {
		t.Errorf("merged below tau: %d", merges)
	}
	if labels[0] == labels[2] {
		t.Error("clusters merged despite |E(P)| < tau")
	}
}

func TestPostProcessAllNoiseNeighbors(t *testing.T) {
	labels := []int{cluster.Noise, cluster.Noise, cluster.Noise}
	e := PartialNeighbors{0: {1: {}, 2: {}}}
	rng := rand.New(rand.NewSource(1))
	if merges := PostProcess(labels, e, 2, rng); merges != 0 {
		t.Errorf("merged with no destination: %d", merges)
	}
	if labels[0] != cluster.Noise {
		t.Error("noise promoted with no destination cluster")
	}
}

func TestPostProcessDeterministicForSeed(t *testing.T) {
	build := func() []int {
		labels := []int{1, 1, 2, 2, 3, 3, cluster.Noise, cluster.Noise}
		e := PartialNeighbors{
			6: {0: {}, 2: {}, 4: {}},
			7: {1: {}, 3: {}},
		}
		PostProcess(labels, e, 2, rand.New(rand.NewSource(9)))
		return labels
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic post-processing: %v vs %v", a, b)
		}
	}
}

func TestPredictedCoreRatio(t *testing.T) {
	d := evalDataset(47)
	const eps, tau = 0.5, 4
	rc := PredictedCoreRatio(d.Vectors, exactEstimator(d.Vectors), eps, tau, 1.0)
	if rc <= 0 || rc >= 1 {
		t.Errorf("core ratio %v out of (0,1) on mixed data", rc)
	}
	if got := PredictedCoreRatio(nil, nil, eps, tau, 1); got != 0 {
		t.Errorf("empty ratio = %v", got)
	}
	all := PredictedCoreRatio(d.Vectors, &cardest.ConstantEstimator{Value: 1e9}, eps, tau, 1)
	if all != 1 {
		t.Errorf("all-core ratio = %v", all)
	}
}

func TestLAFDBSCANPPExactOracleTracksDBSCANPP(t *testing.T) {
	d := evalDataset(48)
	const eps, tau = 0.5, 4
	truth := dbscanTruth(t, d.Vectors, eps, tau)
	cfg := openGateConfig(eps, tau)
	cfg.Seed = 7
	base, err := (&LAFDBSCANPP{Points: d.Vectors, P: 0.5, Config: cfg}).Run()
	if err != nil {
		t.Fatal(err)
	}
	laf, err := (&LAFDBSCANPP{Points: d.Vectors, P: 0.5, Config: Config{
		Eps: eps, Tau: tau, Alpha: 1.0, Estimator: exactEstimator(d.Vectors), Seed: 7,
	}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	ariBase, _ := metrics.ARI(truth.Labels, base.Labels)
	ariLAF, _ := metrics.ARI(truth.Labels, laf.Labels)
	// With an exact oracle the gate skips exactly the non-core samples,
	// which DBSCAN++ would have rejected anyway: same clustering.
	if ariLAF < ariBase-0.02 {
		t.Errorf("exact-oracle LAF-DBSCAN++ ARI %v well below DBSCAN++ %v", ariLAF, ariBase)
	}
	if laf.SkippedQueries == 0 {
		t.Error("LAF-DBSCAN++ skipped nothing")
	}
	if laf.RangeQueries >= base.RangeQueries {
		t.Errorf("LAF-DBSCAN++ ran %d queries, DBSCAN++ %d; no savings",
			laf.RangeQueries, base.RangeQueries)
	}
}

func TestLAFDBSCANPPValidation(t *testing.T) {
	pts := dataset.TwoBlobs(4, 1).Vectors
	est := exactEstimator(pts)
	if _, err := (&LAFDBSCANPP{Points: pts, P: 0, Config: Config{
		Eps: 0.3, Tau: 2, Alpha: 1, Estimator: est,
	}}).Run(); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := (&LAFDBSCANPP{Points: pts, P: 0.5, Config: Config{
		Eps: 0.3, Tau: 2, Alpha: 0, Estimator: est,
	}}).Run(); err == nil {
		t.Error("alpha=0 accepted")
	}
}

// End-to-end with a real learned estimator: train an RMI on the 80% split,
// cluster the 20% split, compare against exact DBSCAN on the same split —
// the paper's full pipeline in miniature.
func TestLAFDBSCANWithTrainedRMIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	full := dataset.GenerateMixture("e2e", dataset.MixtureConfig{
		N: 700, Dim: 32, Clusters: 6, MinSpread: 0.2, MaxSpread: 0.4,
		NoiseFrac: 0.25, SizeSkew: 1.0, Seed: 51,
	})
	rng := rand.New(rand.NewSource(52))
	train, test, err := full.Split(0.8, rng)
	if err != nil {
		t.Fatal(err)
	}

	examples := cardest.BuildTrainingSet(train.Vectors, vecmath.CosineDistanceUnit,
		cardest.DefaultRadii(), 250, rng)
	model, err := rmi.Train(examples, train.Len(), rmi.Config{
		StageCounts: []int{1, 2, 4}, Hidden: []int{24, 12},
		Epochs: 40, BatchSize: 64, LR: 5e-3, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	est := cardest.NewRMIEstimator(model, float64(test.Len())/float64(train.Len()))

	const eps, tau = 0.5, 4
	truth := dbscanTruth(t, test.Vectors, eps, tau)
	res, err := (&LAFDBSCAN{Points: test.Vectors, Config: Config{
		Eps: eps, Tau: tau, Alpha: 1.0, Estimator: est, Seed: 1,
	}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	ari, _ := metrics.ARI(truth.Labels, res.Labels)
	ami, _ := metrics.AMI(truth.Labels, res.Labels)
	if ari < 0.5 || ami < 0.4 {
		t.Errorf("learned LAF-DBSCAN quality too low: ARI=%v AMI=%v", ari, ami)
	}
	if res.SkippedQueries == 0 {
		t.Error("learned estimator never skipped a query")
	}
	t.Logf("e2e: ARI=%.3f AMI=%.3f queries=%d skipped=%d merges=%d",
		ari, ami, res.RangeQueries, res.SkippedQueries, res.PostMerges)
}
