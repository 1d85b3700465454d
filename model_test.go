package lafdbscan

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// modelTestData is the shared train/test split of the model tests: one
// mixture of well-separated clusters plus background noise, split 80/20 so
// held-out points come from the same distribution as the fitted ones.
func modelTestData(t testing.TB) (train, test *Dataset) {
	t.Helper()
	d := GenerateMixture("model-test", MixtureConfig{
		N: 500, Dim: 48, Clusters: 6, MinSpread: 0.15, MaxSpread: 0.3,
		NoiseFrac: 0.2, Seed: 91,
	})
	train, test, err := Split(d, 0.8, 92)
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

// modelFitConfigs returns one representative fit configuration per
// dispatchable method. LAF methods use the exact cardinality oracle so the
// configurations stay fast and the fitted structures exact.
func modelFitConfigs(points [][]float32) map[Method]Params {
	est := ExactEstimator(points)
	return map[Method]Params{
		MethodDBSCAN:      {Eps: 0.4, Tau: 4},
		MethodDBSCANPP:    {Eps: 0.4, Tau: 4, SampleFraction: 0.5, Seed: 7},
		MethodLAFDBSCAN:   {Eps: 0.4, Tau: 4, Alpha: 1.0, Estimator: est, Seed: 7},
		MethodLAFDBSCANPP: {Eps: 0.4, Tau: 4, Alpha: 1.0, Estimator: est, SampleFraction: 0.5, Seed: 7},
		MethodKNNBlock:    {Eps: 0.4, Tau: 4, Seed: 7},
		MethodBlockDBSCAN: {Eps: 0.4, Tau: 4, Seed: 7},
		// Rho 0 collapses the grid's annulus to the exact ball, so the
		// method's prediction plumbing can be pinned exactly; the paper's
		// Rho=1.0 approximation bound is tested separately.
		MethodRhoApprox: {Eps: 0.4, Tau: 4, Rho: 0},
	}
}

// TestFitMatchesCluster pins the compatibility contract: for every method,
// Fit's labels are bit-identical to the corresponding Cluster call with the
// same knobs and seed, and the model carries core flags and a forest for
// every point.
func TestFitMatchesCluster(t *testing.T) {
	train, _ := modelTestData(t)
	for m, p := range modelFitConfigs(train.Vectors) {
		ref, err := Cluster(train.Vectors, m, p)
		if err != nil {
			t.Fatalf("%s: Cluster: %v", m, err)
		}
		model, err := FitParams(context.Background(), train.Vectors, m, p)
		if err != nil {
			t.Fatalf("%s: Fit: %v", m, err)
		}
		labels := model.Labels()
		for i := range ref.Labels {
			if labels[i] != ref.Labels[i] {
				t.Fatalf("%s: label[%d] = %d, Cluster produced %d", m, i, labels[i], ref.Labels[i])
			}
		}
		if got := model.CoreMask(); len(got) != train.Len() {
			t.Errorf("%s: core mask has %d entries, want %d", m, len(got), train.Len())
		}
		forest := model.Forest()
		if len(forest) != train.Len() {
			t.Fatalf("%s: forest has %d entries, want %d", m, len(forest), train.Len())
		}
		core := model.CoreMask()
		for i, root := range forest {
			if core[i] != (root >= 0) {
				t.Fatalf("%s: forest[%d] = %d disagrees with core flag %v", m, i, root, core[i])
			}
			if root >= 0 && labels[root] != labels[i] {
				t.Fatalf("%s: forest root %d of %d lies in cluster %d, point in %d",
					m, root, i, labels[root], labels[i])
			}
		}
		if model.NumClusters() != ref.NumClusters {
			t.Errorf("%s: model reports %d clusters, Cluster %d", m, model.NumClusters(), ref.NumClusters)
		}
	}
}

// TestFitOptionsAssembleParams pins that the functional options and the
// flat Params path configure the identical fit.
func TestFitOptionsAssembleParams(t *testing.T) {
	train, _ := modelTestData(t)
	viaOpts, err := Fit(context.Background(), train.Vectors, MethodDBSCAN,
		WithEps(0.4), WithTau(4), WithWorkers(2), WithWaveSize(64))
	if err != nil {
		t.Fatal(err)
	}
	viaParams, err := FitParams(context.Background(), train.Vectors, MethodDBSCAN,
		Params{Eps: 0.4, Tau: 4, Workers: 2, WaveSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	a, b := viaOpts.Labels(), viaParams.Labels()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("label[%d] differs between option and Params fits", i)
		}
	}
}

// TestFitRejectsLikeCluster pins the uniform validation surface: Fit and
// Cluster reject a bad configuration with the identical error.
func TestFitRejectsLikeCluster(t *testing.T) {
	pts := [][]float32{{1, 0}, {0, 1}}
	cases := []struct {
		name string
		m    Method
		p    Params
	}{
		{"eps out of range", MethodDBSCAN, Params{Eps: 3, Tau: 5}},
		{"tau zero", MethodDBSCAN, Params{Eps: 0.5, Tau: 0}},
		{"negative workers", MethodDBSCAN, Params{Eps: 0.5, Tau: 5, Workers: -3}},
		{"unknown method", Method("bogus"), Params{Eps: 0.5, Tau: 5}},
	}
	for _, c := range cases {
		_, errCluster := Cluster(pts, c.m, c.p)
		_, errFit := FitParams(context.Background(), pts, c.m, c.p)
		if errCluster == nil || errFit == nil {
			t.Fatalf("%s: accepted (cluster err %v, fit err %v)", c.name, errCluster, errFit)
		}
		if errCluster.Error() != errFit.Error() {
			t.Errorf("%s: Fit rejects with %q, Cluster with %q", c.name, errFit, errCluster)
		}
	}
}

// TestValidateNamesFieldAndValue pins the uniform error shape: every
// rejection names the offending Params field and the value it carried.
func TestValidateNamesFieldAndValue(t *testing.T) {
	cases := []struct {
		mut   func(*Params)
		field string
		value string
	}{
		{func(p *Params) { p.Eps = 2.5 }, "Eps", "2.5"},
		{func(p *Params) { p.Tau = 0 }, "Tau", "0"},
		{func(p *Params) { p.Alpha = -1 }, "Alpha", "-1"},
		{func(p *Params) { p.SampleFraction = 1.5 }, "SampleFraction", "1.5"},
		{func(p *Params) { p.Branching = 1 }, "Branching", "1"},
		{func(p *Params) { p.LeavesRatio = -0.5 }, "LeavesRatio", "-0.5"},
		{func(p *Params) { p.Base = 1 }, "Base", "1"},
		{func(p *Params) { p.RNT = -2 }, "RNT", "-2"},
		{func(p *Params) { p.Rho = -0.1 }, "Rho", "-0.1"},
		{func(p *Params) { p.Metric = 99 }, "Metric", "Metric(99)"},
		{func(p *Params) { p.Workers = -2 }, "Workers", "-2"},
		{func(p *Params) { p.BatchSize = -1 }, "BatchSize", "-1"},
		{func(p *Params) { p.WaveSize = -2 }, "WaveSize", "-2"},
	}
	for _, c := range cases {
		p := Params{Eps: 0.5, Tau: 5}
		c.mut(&p)
		err := p.Validate()
		if err == nil {
			t.Fatalf("%s: accepted", c.field)
		}
		want := fmt.Sprintf("invalid %s = %s:", c.field, c.value)
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not contain %q", c.field, err, want)
		}
	}
}

// TestPredictTrainingReproducesFit pins the heart of the model API: for
// every method, predicting the training vectors reproduces the fitted
// labels exactly.
func TestPredictTrainingReproducesFit(t *testing.T) {
	train, _ := modelTestData(t)
	for m, p := range modelFitConfigs(train.Vectors) {
		model, err := FitParams(context.Background(), train.Vectors, m, p)
		if err != nil {
			t.Fatalf("%s: Fit: %v", m, err)
		}
		pred, err := model.Predict(context.Background(), train.Vectors)
		if err != nil {
			t.Fatalf("%s: Predict: %v", m, err)
		}
		fitted := model.Labels()
		for i := range fitted {
			if pred[i] != fitted[i] {
				t.Fatalf("%s: predict(train)[%d] = %d, fitted %d (core=%v)",
					m, i, pred[i], fitted[i], model.CoreMask()[i])
			}
		}
	}
}

// TestPredictRhoApproxApproximationBound characterizes prediction for the
// genuinely approximate ρ=1.0 configuration (the paper's setting): the
// fitted grid may adopt borders up to Eps·(1+ρ) from a core, which the
// exact-ball prediction rightly calls noise, so every training-point
// disagreement must be of exactly that shape — predicted Noise against a
// fitted cluster — and rare.
func TestPredictRhoApproxApproximationBound(t *testing.T) {
	train, _ := modelTestData(t)
	model, err := Fit(context.Background(), train.Vectors, MethodRhoApprox,
		WithEps(0.4), WithTau(4), WithRho(1.0))
	if err != nil {
		t.Fatal(err)
	}
	pred, err := model.Predict(context.Background(), train.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	fitted := model.Labels()
	disagree := 0
	for i := range fitted {
		if pred[i] == fitted[i] {
			continue
		}
		disagree++
		if pred[i] != Noise {
			t.Fatalf("train[%d]: predicted cluster %d, fitted %d — only Noise-vs-annulus-border disagreements are possible",
				i, pred[i], fitted[i])
		}
	}
	if frac := float64(disagree) / float64(len(fitted)); frac > 0.1 {
		t.Errorf("%.1f%% of training points disagree; the annulus should be sparse", 100*frac)
	}
}

// TestPredictHeldOutAgreesWithRecluster checks out-of-sample semantics
// against the expensive alternative: re-clustering train+test from scratch.
// Every held-out point the model assigns to a cluster must land in the same
// cluster as its witness core (the fitted core within Eps that determined
// the prediction) under the full re-clustering, and every point the model
// calls noise must have no fitted core within Eps.
func TestPredictHeldOutAgreesWithRecluster(t *testing.T) {
	train, test := modelTestData(t)
	const eps, tau = 0.4, 4
	model, err := Fit(context.Background(), train.Vectors, MethodDBSCAN, WithEps(eps), WithTau(tau))
	if err != nil {
		t.Fatal(err)
	}
	pred, err := model.Predict(context.Background(), test.Vectors)
	if err != nil {
		t.Fatal(err)
	}

	combined := append(append([][]float32{}, train.Vectors...), test.Vectors...)
	full, err := DBSCAN(combined, Params{Eps: eps, Tau: tau})
	if err != nil {
		t.Fatal(err)
	}

	fitted := model.Labels()
	core := model.CoreMask()
	idx := NewBruteForceIndex(train.Vectors, MetricCosine)
	assigned := 0
	for i, v := range test.Vectors {
		// The witness core: lowest-labeled fitted core within Eps, the same
		// rule Predict applies.
		witness := -1
		for _, q := range idx.RangeSearch(v, eps) {
			if core[q] && (witness < 0 || fitted[q] < fitted[witness]) {
				witness = q
			}
		}
		if pred[i] == Noise {
			if witness >= 0 {
				t.Fatalf("test[%d] predicted noise but fitted core %d is within eps", i, witness)
			}
			continue
		}
		assigned++
		if witness < 0 {
			t.Fatalf("test[%d] assigned to %d with no fitted core in range", i, pred[i])
		}
		if pred[i] != fitted[witness] {
			t.Fatalf("test[%d] = %d, witness core %d carries %d", i, pred[i], witness, fitted[witness])
		}
		// Core-reachability agreement: the full re-clustering must put the
		// held-out point in its witness core's cluster.
		if full.Labels[train.Len()+i] != full.Labels[witness] {
			t.Fatalf("test[%d]: full re-clustering separates it (cluster %d) from witness core %d (cluster %d)",
				i, full.Labels[train.Len()+i], witness, full.Labels[witness])
		}
	}
	if assigned == 0 {
		t.Fatal("degenerate scenario: no held-out point was assigned to any cluster")
	}
}

// TestPredictGate pins the optional LAF gate: a prohibitive threshold skips
// every query and yields all-noise, a vanishing one skips none and matches
// the ungated prediction, and a model without an estimator rejects gating.
func TestPredictGate(t *testing.T) {
	train, test := modelTestData(t)
	model, err := Fit(context.Background(), train.Vectors, MethodLAFDBSCAN,
		WithEps(0.4), WithTau(4), WithEstimator(ExactEstimator(train.Vectors)))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := model.Predict(context.Background(), test.Vectors)
	if err != nil {
		t.Fatal(err)
	}

	all, skipped, err := model.PredictWithOptions(context.Background(), test.Vectors,
		PredictOptions{Gate: true, GateThreshold: 1e18})
	if err != nil {
		t.Fatal(err)
	}
	if skipped != test.Len() {
		t.Errorf("prohibitive gate skipped %d of %d", skipped, test.Len())
	}
	for i, l := range all {
		if l != Noise {
			t.Fatalf("gated-out vector %d labeled %d, want noise", i, l)
		}
	}

	// At the default threshold (1) the exact oracle's gate is lossless: a
	// skip means zero training points within Eps, so no core is in range
	// and the ungated prediction is Noise too.
	gated, skipped, err := model.PredictWithOptions(context.Background(), test.Vectors,
		PredictOptions{Gate: true})
	if err != nil {
		t.Fatal(err)
	}
	if skipped == 0 {
		t.Error("exact gate skipped nothing; expected some isolated held-out points")
	}
	for i := range gated {
		if gated[i] != plain[i] {
			t.Fatalf("exact gate changed label[%d]: %d vs %d", i, gated[i], plain[i])
		}
	}

	ungated, err := Fit(context.Background(), train.Vectors, MethodDBSCAN, WithEps(0.4), WithTau(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ungated.PredictWithOptions(context.Background(), test.Vectors, PredictOptions{Gate: true}); err == nil {
		t.Error("gate accepted on a model without an estimator")
	}
}

// TestPredictCancellation: a pre-canceled context aborts prediction.
func TestPredictCancellation(t *testing.T) {
	train, test := modelTestData(t)
	model, err := Fit(context.Background(), train.Vectors, MethodDBSCAN, WithEps(0.4), WithTau(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := model.Predict(ctx, test.Vectors); err != context.Canceled {
		t.Fatalf("predict under canceled context returned %v", err)
	}
}

// TestRaggedBatchIsNamedError pins the boundary check: a vector of the
// wrong length deep inside a batch (not at position 0, the only one the
// server used to check) fails Predict, PredictWithOptions and Insert with
// ErrDimensionMismatch naming its position, before any query runs on the
// worker pool, and Insert leaves the model untouched.
func TestRaggedBatchIsNamedError(t *testing.T) {
	d := GloVeLike(300, 17)
	model, err := Fit(context.Background(), d.Vectors[:200], MethodDBSCAN, WithEps(0.4), WithTau(4), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	batch := append([][]float32(nil), d.Vectors[200:300]...)
	batch[70] = batch[70][:199]
	check := func(op string, err error) {
		t.Helper()
		if !errors.Is(err, ErrDimensionMismatch) || !strings.Contains(err.Error(), "vector 70 has 199 dims, model has 200") {
			t.Errorf("%s: err = %v, want ErrDimensionMismatch at vector 70", op, err)
		}
	}
	_, err = model.Predict(context.Background(), batch)
	check("Predict", err)
	_, _, err = model.PredictWithOptions(context.Background(), batch, PredictOptions{})
	check("PredictWithOptions", err)
	before := model.Labels()
	_, err = model.Insert(context.Background(), batch)
	check("Insert", err)
	if model.Len() != 200 || !slices.Equal(model.Labels(), before) {
		t.Errorf("failed Insert changed the model: %d points", model.Len())
	}
	long := append([][]float32(nil), d.Vectors[200:300]...)
	long[99] = append(slices.Clone(long[99]), 0)
	_, err = model.Predict(context.Background(), long)
	if !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("longer vector: err = %v, want ErrDimensionMismatch", err)
	}
}

// TestModelSaveLoadRoundTrip pins persistence for every method: labels,
// cores and forest survive bit-identically, the estimator predicts
// identically, and — the property serving relies on — a loaded model
// predicts exactly like the in-memory one.
func TestModelSaveLoadRoundTrip(t *testing.T) {
	train, test := modelTestData(t)
	configs := modelFitConfigs(train.Vectors)
	// The LAF configurations round-trip a real trained RMI estimator (the
	// exact oracle used elsewhere is deliberately not serializable).
	rmiEst, err := TrainRMIEstimator(train.Vectors, EstimatorConfig{
		Hidden: []int{8}, Epochs: 2, MaxQueries: 40, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodLAFDBSCAN, MethodLAFDBSCANPP} {
		p := configs[m]
		p.Estimator = rmiEst
		configs[m] = p
	}
	for m, p := range configs {
		model, err := FitParams(context.Background(), train.Vectors, m, p)
		if err != nil {
			t.Fatalf("%s: Fit: %v", m, err)
		}
		var buf bytes.Buffer
		if err := model.Save(&buf); err != nil {
			t.Fatalf("%s: Save: %v", m, err)
		}
		loaded, err := LoadModel(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: LoadModel: %v", m, err)
		}
		if loaded.Method() != m || loaded.NumClusters() != model.NumClusters() || loaded.Len() != model.Len() {
			t.Fatalf("%s: loaded shape %s/%d/%d, want %s/%d/%d", m,
				loaded.Method(), loaded.NumClusters(), loaded.Len(),
				m, model.NumClusters(), model.Len())
		}
		wantL, gotL := model.Labels(), loaded.Labels()
		wantC, gotC := model.CoreMask(), loaded.CoreMask()
		wantF, gotF := model.Forest(), loaded.Forest()
		for i := range wantL {
			if gotL[i] != wantL[i] || gotC[i] != wantC[i] || gotF[i] != wantF[i] {
				t.Fatalf("%s: point %d differs after round trip: labels %d/%d cores %v/%v forest %d/%d",
					m, i, gotL[i], wantL[i], gotC[i], wantC[i], gotF[i], wantF[i])
			}
		}
		if model.HasEstimator() {
			if !loaded.HasEstimator() {
				t.Fatalf("%s: estimator lost in round trip", m)
			}
			for i := 0; i < 5; i++ {
				want := model.Params().Estimator.Estimate(test.Vectors[i], p.Eps)
				got := loaded.Params().Estimator.Estimate(test.Vectors[i], p.Eps)
				if want != got {
					t.Fatalf("%s: estimator differs after round trip: %v vs %v", m, got, want)
				}
			}
		}
		want, err := model.Predict(context.Background(), test.Vectors)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Predict(context.Background(), test.Vectors)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: loaded model predicts %d for test[%d], in-memory %d", m, got[i], i, want[i])
			}
		}
	}
}

// TestLoadModelRejectsCorrupt pins the header discipline: wrong magic,
// truncations at every interesting boundary, garbage payloads and unknown
// future versions all fail loudly instead of decoding into garbage.
func TestLoadModelRejectsCorrupt(t *testing.T) {
	train, _ := modelTestData(t)
	model, err := Fit(context.Background(), train.Vectors, MethodDBSCAN, WithEps(0.4), WithTau(4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "reading model header"},
		{"truncated magic", valid[:2], "reading model header"},
		{"truncated version", valid[:6], "reading model version"},
		{"truncated payload", valid[:len(valid)/2], "decoding model"},
		{"bad magic", append([]byte("NOPE"), valid[4:]...), "not a model file"},
		{"garbage payload", append(append([]byte{}, valid[:8]...), 0xde, 0xad, 0xbe, 0xef), "decoding model"},
		{"future version", append(append([]byte{}, 'L', 'A', 'F', 'M'), 99, 0, 0, 0), "unsupported model version 99"},
	}
	for _, c := range cases {
		_, err := LoadModel(bytes.NewReader(c.data))
		if err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestPredictSpeedupOverRecluster pins the model API's economics: assigning
// 100 held-out points through a fitted model must be at least 10x faster
// than re-clustering the dataset with them included (theoretical gap on
// this workload ~22x: 100 range queries over n points vs n+100 queries
// over n+100 points). Skipped under -short so the PR CI gate stays free of
// wall-clock assertions; the nightly full suite and local runs enforce it.
func TestPredictSpeedupOverRecluster(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock assertion")
	}
	d := GenerateMixture("predict-speed", MixtureConfig{
		N: 2000, Dim: 64, Clusters: 12, MinSpread: 0.2, MaxSpread: 0.5,
		NoiseFrac: 0.2, Seed: 83,
	})
	heldCfg := MixtureConfig{
		N: 100, Dim: 64, Clusters: 12, MinSpread: 0.2, MaxSpread: 0.5,
		NoiseFrac: 0.2, Seed: 84,
	}
	held := GenerateMixture("predict-speed-held", heldCfg)
	p := Params{Eps: 0.5, Tau: 4, Workers: 2}
	model, err := FitParams(context.Background(), d.Vectors, MethodDBSCAN, p)
	if err != nil {
		t.Fatal(err)
	}
	predictT := time.Duration(1<<62 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := model.Predict(context.Background(), held.Vectors); err != nil {
			t.Fatal(err)
		}
		if e := time.Since(start); e < predictT {
			predictT = e
		}
	}
	combined := append(append([][]float32{}, d.Vectors...), held.Vectors...)
	start := time.Now()
	if _, err := DBSCAN(combined, p); err != nil {
		t.Fatal(err)
	}
	reclusterT := time.Since(start)
	speedup := reclusterT.Seconds() / predictT.Seconds()
	t.Logf("predict 100: %v, re-cluster %d: %v (%.1fx)", predictT, len(combined), reclusterT, speedup)
	if speedup < 10 {
		t.Errorf("predicting 100 points only %.1fx faster than re-clustering, want >= 10x", speedup)
	}
}

// TestPredictParallelDeterminism: per-point assignments are independent, so
// the labeling must be identical at every worker/wave configuration.
func TestPredictParallelDeterminism(t *testing.T) {
	train, test := modelTestData(t)
	var ref []int
	for _, workers := range []int{0, 1, 2, WorkersAuto} {
		model, err := Fit(context.Background(), train.Vectors, MethodDBSCAN,
			WithEps(0.4), WithTau(4), WithWorkers(workers), WithWaveSize(16))
		if err != nil {
			t.Fatal(err)
		}
		pred, err := model.Predict(context.Background(), test.Vectors)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = pred
			continue
		}
		for i := range ref {
			if pred[i] != ref[i] {
				t.Fatalf("workers=%d: predict[%d] differs", workers, i)
			}
		}
	}
}
