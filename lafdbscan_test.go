package lafdbscan

import (
	"errors"
	"math"
	"testing"
)

func testData() *Dataset {
	return GenerateMixture("facade", MixtureConfig{
		N: 300, Dim: 24, Clusters: 5, MinSpread: 0.2, MaxSpread: 0.4,
		NoiseFrac: 0.2, Seed: 61,
	})
}

func TestFacadeDBSCANAndLAF(t *testing.T) {
	d := testData()
	p := Params{Eps: 0.5, Tau: 4}
	truth, err := Cluster(d.Vectors, MethodDBSCAN, p)
	if err != nil {
		t.Fatal(err)
	}
	if truth.NumClusters == 0 {
		t.Fatal("DBSCAN found nothing")
	}
	p.Estimator = ExactEstimator(d.Vectors)
	p.Alpha = 1
	res, err := Cluster(d.Vectors, MethodLAFDBSCAN, p)
	if err != nil {
		t.Fatal(err)
	}
	ari, err := ARI(truth.Labels, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.999 {
		t.Errorf("facade LAF-DBSCAN ARI = %v", ari)
	}
}

// TestFacadeWorkersKnob pins the public contract of Params.Workers: every
// pool size reproduces the default's labelings exactly (TestEngineInvariance
// covers post-processing and the full result).
func TestFacadeWorkersKnob(t *testing.T) {
	d := testData()
	p := Params{Eps: 0.5, Tau: 4}
	seq, err := Cluster(d.Vectors, MethodDBSCAN, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{WorkersAuto, 1, 4} {
		pp := p
		pp.Workers = workers
		par, err := Cluster(d.Vectors, MethodDBSCAN, pp)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq.Labels {
			if par.Labels[i] != seq.Labels[i] {
				t.Fatalf("workers=%d: DBSCAN label[%d] = %d, workers=0 %d",
					workers, i, par.Labels[i], seq.Labels[i])
			}
		}
	}

	lp := Params{
		Eps: 0.5, Tau: 4, Alpha: 1, Estimator: ExactEstimator(d.Vectors),
		DisablePostProcessing: true,
	}
	lseq, err := Cluster(d.Vectors, MethodLAFDBSCAN, lp)
	if err != nil {
		t.Fatal(err)
	}
	lp.Workers = WorkersAuto
	lpar, err := Cluster(d.Vectors, MethodLAFDBSCAN, lp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range lseq.Labels {
		if lpar.Labels[i] != lseq.Labels[i] {
			t.Fatalf("LAF label[%d] = %d, workers=0 %d", i, lpar.Labels[i], lseq.Labels[i])
		}
	}

	sp := Params{
		Eps: 0.5, Tau: 4, Alpha: 1, Estimator: ExactEstimator(d.Vectors),
		SampleFraction: 0.5, Seed: 9, DisablePostProcessing: true,
	}
	sseq, err := Cluster(d.Vectors, MethodLAFDBSCANPP, sp)
	if err != nil {
		t.Fatal(err)
	}
	sp.Workers = 3
	spar, err := Cluster(d.Vectors, MethodLAFDBSCANPP, sp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sseq.Labels {
		if spar.Labels[i] != sseq.Labels[i] {
			t.Fatalf("LAF++ label[%d] = %d, workers=0 %d", i, spar.Labels[i], sseq.Labels[i])
		}
	}
}

func TestFacadeAlphaDefaultsToOne(t *testing.T) {
	d := testData()
	res, err := Cluster(d.Vectors, MethodLAFDBSCAN, Params{
		Eps: 0.5, Tau: 4, Estimator: ExactEstimator(d.Vectors),
	})
	if err != nil {
		t.Fatalf("zero alpha not defaulted: %v", err)
	}
	if res.NumClusters == 0 {
		t.Error("no clusters")
	}
}

func TestClusterDispatch(t *testing.T) {
	d := testData()
	p := Params{
		Eps: 0.5, Tau: 4, Alpha: 1,
		Estimator:      ExactEstimator(d.Vectors),
		SampleFraction: 0.5,
		Rho:            1.0,
	}
	for _, m := range append(Methods(), MethodRhoApprox) {
		res, err := Cluster(d.Vectors, m, p)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if len(res.Labels) != d.Len() {
			t.Fatalf("%s: wrong label count", m)
		}
	}
	if _, err := Cluster(d.Vectors, Method("nope"), p); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestFacadeEstimators(t *testing.T) {
	d := testData()
	q := d.Vectors[0]
	exact := ExactEstimator(d.Vectors).Estimate(q, 0.5)
	if exact < 1 {
		t.Fatalf("exact estimate %v < 1 (self)", exact)
	}
	s := SamplingEstimator(d.Vectors, 100, 1).Estimate(q, 0.5)
	if s < 0 {
		t.Errorf("sampling estimate %v", s)
	}
	h := HistogramEstimator(d.Vectors, 10, 1).Estimate(q, 0.5)
	if h < 0 {
		t.Errorf("histogram estimate %v", h)
	}
}

func TestTrainRMIEstimatorFacade(t *testing.T) {
	d := testData()
	train, test, err := Split(d, 0.8, 7)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len()+test.Len() != d.Len() {
		t.Fatal("split broken")
	}
	est, err := TrainRMIEstimator(train.Vectors, EstimatorConfig{
		TargetSize: test.Len(),
		Hidden:     []int{12, 8},
		Epochs:     10,
		MaxQueries: 100,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Cluster(test.Vectors, MethodLAFDBSCAN, Params{Eps: 0.5, Tau: 3, Alpha: 1, Estimator: est})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != test.Len() {
		t.Fatal("wrong label count")
	}
}

func TestTrainRMIEstimatorEmptyInput(t *testing.T) {
	if _, err := TrainRMIEstimator(nil, EstimatorConfig{}); err == nil {
		t.Error("empty training set accepted")
	}
}

func TestPredictedCoreRatioFacade(t *testing.T) {
	d := testData()
	rc := PredictedCoreRatio(d.Vectors, ExactEstimator(d.Vectors), 0.5, 4, 1.0)
	if rc <= 0 || rc > 1 {
		t.Errorf("Rc = %v", rc)
	}
}

func TestMetricsFacade(t *testing.T) {
	a := []int{1, 1, 2, 2, Noise}
	ari, err := ARI(a, a)
	if err != nil || ari != 1 {
		t.Errorf("ARI self = %v (%v)", ari, err)
	}
	ami, err := AMI(a, a)
	if err != nil || ami != 1 {
		t.Errorf("AMI self = %v (%v)", ami, err)
	}
	s := Stats(a)
	if s.NumClusters != 2 || s.NumNoise != 1 {
		t.Errorf("Stats = %+v", s)
	}
	mc, err := MissedClusters(a, []int{Noise, Noise, 3, 3, Noise})
	if err != nil || mc.MissedClusters != 1 {
		t.Errorf("MissedClusters = %+v (%v)", mc, err)
	}
}

func TestDatasetFamiliesFacade(t *testing.T) {
	if GloVeLike(40, 1).Dim() != 200 {
		t.Error("GloVeLike dim")
	}
	if MSLike(40, 1).Dim() != 768 {
		t.Error("MSLike dim")
	}
	if NYTLike(40, 1).Dim() != 256 {
		t.Error("NYTLike dim")
	}
}

func TestLoadDatasetMissingFile(t *testing.T) {
	if _, err := LoadDataset("/nonexistent/path.lafd"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestSaveLoadEstimator(t *testing.T) {
	d := testData()
	est, err := TrainRMIEstimator(d.Vectors, EstimatorConfig{
		Hidden: []int{8}, Epochs: 5, MaxQueries: 50, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/est.gob"
	if err := SaveEstimator(est, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEstimator(path)
	if err != nil {
		t.Fatal(err)
	}
	q := d.Vectors[0]
	if a, b := est.Estimate(q, 0.5), loaded.Estimate(q, 0.5); a != b {
		t.Errorf("round trip changed prediction: %v vs %v", a, b)
	}
	if err := SaveEstimator(ExactEstimator(d.Vectors), path); err == nil {
		t.Error("non-serializable estimator accepted")
	}
	if _, err := LoadEstimator(t.TempDir() + "/missing.gob"); err == nil {
		t.Error("missing file accepted")
	}
}

// TestSaveLoadEstimatorSameBits checks that an estimator decoded by
// LoadEstimator predicts exactly what the trained one does: the decoded
// networks get the packed weights the forward pass reads, rebuilt from the
// serialized ones. The set-up mirrors the fit-ms benchmark workload at a
// smaller size: MS-like 768-d points, an 80/20 split, the facade's default
// 769→32→16→1 networks, and 200 probes at the workload's eps and two
// other radii.
func TestSaveLoadEstimatorSameBits(t *testing.T) {
	train, test, err := Split(MSLike(1000, 11), 0.8, 11)
	if err != nil {
		t.Fatal(err)
	}
	est, err := TrainRMIEstimator(train.Vectors, EstimatorConfig{
		TargetSize: test.Len(), MaxQueries: 40, Epochs: 2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/est.gob"
	if err := SaveEstimator(est, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEstimator(path)
	if err != nil {
		t.Fatal(err)
	}
	radii := []float64{0.55, 0.3, 0.8}
	for i, q := range test.Vectors[:200] {
		r := radii[i%len(radii)]
		if a, b := est.Estimate(q, r), loaded.Estimate(q, r); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("probe %d at radius %v: trained %v (%#x), loaded %v (%#x)",
				i, r, a, math.Float64bits(a), b, math.Float64bits(b))
		}
	}
}

// TestEstimatorOverridesApplyOverPaper pins what EstimatorConfig documents:
// Hidden, Epochs, BatchSize and LR replace the paper's values when Paper is
// set, so a config that overrides all four trains the same estimator, bit
// for bit, with or without Paper.
func TestEstimatorOverridesApplyOverPaper(t *testing.T) {
	d := MSLike(200, 1)
	cfg := EstimatorConfig{Hidden: []int{4}, Epochs: 1, BatchSize: 64, LR: 2e-3, Seed: 1}
	plain, err := TrainRMIEstimator(d.Vectors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Paper = true
	paper, err := TrainRMIEstimator(d.Vectors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range d.Vectors {
		r := 0.3 + 0.1*float64(i%5)
		if a, b := plain.Estimate(q, r), paper.Estimate(q, r); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("point %d at radius %v: without Paper %v, with Paper %v", i, r, a, b)
		}
	}
}

// TestTrainRMIEstimatorRejectsBadConfig checks the named errors that
// replace a panic in a training worker (negative widths, ragged vectors)
// or a network that Validate rejects on load (zero widths).
func TestTrainRMIEstimatorRejectsBadConfig(t *testing.T) {
	d := testData()
	for _, cfg := range []EstimatorConfig{
		{Hidden: []int{-1}},
		{Hidden: []int{8, 0}},
		{LR: math.NaN()},
		{LR: math.Inf(1)},
		{Radii: []float64{0.5, 0}},
		{Radii: []float64{-0.5}},
		{Radii: []float64{math.NaN()}},
		{Radii: []float64{math.Inf(1)}},
	} {
		if _, err := TrainRMIEstimator(d.Vectors, cfg); !errors.Is(err, ErrInvalidEstimatorConfig) {
			t.Errorf("%+v: error %v, want ErrInvalidEstimatorConfig", cfg, err)
		}
	}
	ragged := append([][]float32{}, d.Vectors...)
	ragged[7] = ragged[7][:10]
	if _, err := TrainRMIEstimator(ragged, EstimatorConfig{}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("ragged training vectors: error %v, want ErrDimensionMismatch", err)
	}
}
