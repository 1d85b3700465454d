package lafdbscan

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
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
		{func(p *Params) { p.WaveSize = -1 }, "WaveSize", "-1"},
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

// TestPredictTrainingReproducesFitOnTie pins the ++ variants' tie rule: a
// border exactly as near to cores of two clusters joins the lower-id
// core's cluster in the fit and in Predict alike, whatever sample order
// the seed draws, the worker count or the index backend. The border sits
// at angle 0 between cores at ±40°, each with five members 0.1 rad
// further out, so it is within ε of both cores and of nothing else.
func TestPredictTrainingReproducesFitOnTie(t *testing.T) {
	at := func(rad float64) []float32 { return []float32{float32(math.Cos(rad)), float32(math.Sin(rad)), 0} }
	core := 40 * math.Pi / 180
	points := [][]float32{at(0)}
	for _, sign := range []float64{1, -1} {
		for k := 0; k <= 5; k++ {
			points = append(points, at(sign*(core+0.1*float64(k))))
		}
	}
	const border, c1, c2 = 0, 1, 7
	for _, backend := range []string{"", "hnsw"} {
		for seed := int64(1); seed <= 12; seed++ {
			for _, workers := range []int{0, 1, 2, 4, WorkersAuto} {
				name := fmt.Sprintf("backend=%q/seed=%d/workers=%d", backend, seed, workers)
				model, err := Fit(context.Background(), points, MethodDBSCANPP,
					WithEps(0.3), WithTau(4), WithSampleFraction(1), WithSeed(seed),
					WithWorkers(workers), WithIndexBackend(backend))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				fitted := model.Labels()
				if core := model.CoreMask(); core[border] || !core[c1] || !core[c2] || fitted[c1] == fitted[c2] {
					t.Fatalf("%s: labels %v, core %v; want a non-core border between two clusters", name, fitted, core)
				}
				if fitted[border] != fitted[c1] {
					t.Errorf("%s: border fitted to cluster %d, want the lower-id core's %d", name, fitted[border], fitted[c1])
				}
				pred, err := model.Predict(context.Background(), points)
				if err != nil {
					t.Fatalf("%s: Predict: %v", name, err)
				}
				if !slices.Equal(pred, fitted) {
					t.Errorf("%s: predict(train) = %v, fitted %v", name, pred, fitted)
				}
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
	full, err := Cluster(combined, MethodDBSCAN, Params{Eps: eps, Tau: tau})
	if err != nil {
		t.Fatal(err)
	}

	fitted := model.Labels()
	core := model.CoreMask()
	idx, _, err := Params{}.NewIndex(train.Vectors, MetricCosine)
	if err != nil {
		t.Fatal(err)
	}
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

// countingEstimator is ExactEstimator that counts its Estimate calls.
type countingEstimator struct {
	Estimator
	calls atomic.Int64
}

func (c *countingEstimator) Estimate(q []float32, eps float64) float64 {
	c.calls.Add(1)
	return c.Estimator.Estimate(q, eps)
}

// TestPredictGateHonorsCancellation pins that the prediction gate is the
// fit's gate loop: under a context cancelled beforehand a gated Predict
// fails without starting a single estimate, and under a live one it makes
// exactly one estimate per vector.
func TestPredictGateHonorsCancellation(t *testing.T) {
	train, test := modelTestData(t)
	est := &countingEstimator{Estimator: ExactEstimator(train.Vectors)}
	model, err := Fit(context.Background(), train.Vectors, MethodLAFDBSCAN,
		WithEps(0.4), WithTau(4), WithEstimator(est), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	est.calls.Store(0)
	if _, _, err := model.PredictWithOptions(ctx, test.Vectors, PredictOptions{Gate: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled gated predict: err = %v, want context.Canceled", err)
	}
	if n := est.calls.Load(); n != 0 {
		t.Errorf("cancelled gated predict made %d estimates, want 0", n)
	}
	if _, _, err := model.PredictWithOptions(context.Background(), test.Vectors, PredictOptions{Gate: true}); err != nil {
		t.Fatal(err)
	}
	if n := est.calls.Load(); n != int64(test.Len()) {
		t.Errorf("gated predict made %d estimates, want one per vector (%d)", n, test.Len())
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
		var again bytes.Buffer
		if err := loaded.Save(&again); err != nil {
			t.Fatalf("%s: Save of the loaded model: %v", m, err)
		}
		if !bytes.Equal(again.Bytes(), buf.Bytes()) {
			t.Fatalf("%s: Save -> LoadModel -> Save changed the bytes", m)
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
		if !errors.Is(err, ErrMalformedModel) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not wrap ErrMalformedModel or mention %q", c.name, err, c.want)
		}
	}
}

// FuzzLoadModel pins LoadModel's safety contract on arbitrary bytes: it
// never panics, every rejection wraps ErrMalformedModel, and a model it
// accepts is whole: labels are noise or 1..NumClusters, the forest covers
// every point, Predict of its own points runs, and it saves a file that
// loads. The committed corpus under testdata/fuzz/FuzzLoadModel is
// replayed by plain go test (TestModelFuzzSeeds names what each seed must
// do, and rewrites the corpus under -update-seeds).
func FuzzLoadModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadModel(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrMalformedModel) {
				t.Fatalf("rejection does not wrap ErrMalformedModel: %v", err)
			}
			return
		}
		labels, k := m.Labels(), m.NumClusters()
		for i, l := range labels {
			if l != Noise && (l < 1 || l > k) {
				t.Fatalf("point %d has label %d outside 1..%d", i, l, k)
			}
		}
		if len(m.Forest()) != len(labels) || len(m.CoreMask()) != len(labels) {
			t.Fatalf("forest or core mask does not cover the %d points", len(labels))
		}
		points := m.snapshotPoints()
		if _, err := m.Predict(context.Background(), points[:min(len(points), 4)]); err != nil {
			t.Fatalf("Predict of the model's own points: %v", err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadModel(&buf); err != nil {
			t.Fatalf("a loaded model saves a file that does not load: %v", err)
		}
	})
}

// updateSeeds rewrites the committed FuzzLoadModel corpus from
// modelFuzzSeeds: go test -run TestModelFuzzSeeds -update-seeds .
var updateSeeds = flag.Bool("update-seeds", false, "rewrite testdata/fuzz/FuzzLoadModel")

// modelSeed is one FuzzLoadModel seed: the file bytes and the cluster
// count they load to, or -1 for a file LoadModel must reject.
type modelSeed struct {
	data     []byte
	clusters int
}

// modelFuzzSeeds returns the FuzzLoadModel seeds by name: a version-2 file
// whose stored forest and cluster count (99) are stale, a version-3 file,
// a truncated header, ragged point rows, a label count that differs from
// the point count, and a label that is neither noise nor a cluster id.
func modelFuzzSeeds(t *testing.T) map[string]modelSeed {
	points := [][]float32{{1, 0}, {0.98, 0.2}, {0.96, 0.28}, {0, 1}, {0.2, 0.98}, {-1, 0}}
	model, err := Fit(context.Background(), points, MethodDBSCAN, WithEps(0.1), WithTau(2))
	if err != nil {
		t.Fatal(err)
	}
	var v3 bytes.Buffer
	if err := model.Save(&v3); err != nil {
		t.Fatal(err)
	}
	v2 := func(edit func(*legacyPayload)) []byte {
		p := legacyPayloadOf(model)
		p.NumClusters = 99
		for i := range p.Forest {
			p.Forest[i] = int32(i)
		}
		edit(&p)
		return encodeModelFile(t, 2, &p).Bytes()
	}
	return map[string]modelSeed{
		"v2":               {v2(func(*legacyPayload) {}), 2},
		"v3":               {v3.Bytes(), 2},
		"truncated-header": {v3.Bytes()[:6], -1},
		"ragged-rows": {v2(func(p *legacyPayload) {
			p.Points = [][]float32{{1, 0}, make([]float32, 9), {1}, {0, 1}, {0.2, 0.98}, {-1, 0}}
		}), -1},
		"count-mismatch": {v2(func(p *legacyPayload) { p.Labels = p.Labels[:4] }), -1},
		"bad-label":      {v2(func(p *legacyPayload) { p.Labels[5] = 0 }), -1},
	}
}

// TestModelFuzzSeeds pins what each committed FuzzLoadModel seed covers:
// the version-2 and version-3 files load (the version-2 one with the
// cluster count derived, not its stale stored 99), and every other seed is
// rejected with ErrMalformedModel.
func TestModelFuzzSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzLoadModel")
	for name, seed := range modelFuzzSeeds(t) {
		path := filepath.Join(dir, name)
		if *updateSeeds {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed.data)
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, err := LoadModel(strings.NewReader(data))
		switch {
		case seed.clusters < 0 && !errors.Is(err, ErrMalformedModel):
			t.Errorf("%s: error %v, want ErrMalformedModel", name, err)
		case seed.clusters >= 0 && err != nil:
			t.Errorf("%s: %v", name, err)
		case seed.clusters >= 0 && m.NumClusters() != seed.clusters:
			t.Errorf("%s: %d clusters, want %d", name, m.NumClusters(), seed.clusters)
		}
	}
}

// legacyPayload is the gob payload of version-1 and version-2 model files,
// which also carried the cluster forest and cluster count that version 3
// derives from the labels and core flags.
type legacyPayload struct {
	Method      string
	Algorithm   string
	Params      modelParams
	Points      [][]float32
	Labels      []int32
	Core        []bool
	Forest      []int32
	NumClusters int
	Updates     int64
}

// encodeModelFile returns payload gob-encoded behind a model header of the
// given version.
func encodeModelFile(t testing.TB, version uint32, payload any) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(modelMagic[:])
	if err := binary.Write(&buf, binary.LittleEndian, version); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// legacyPayloadOf returns model's state as a version-2 payload, with the
// forest and cluster count an earlier release stored.
func legacyPayloadOf(model *Model) legacyPayload {
	p := model.Params()
	labels := make([]int32, model.Len())
	for i, l := range model.Labels() {
		labels[i] = int32(l)
	}
	return legacyPayload{
		Method: string(model.Method()), Algorithm: model.Result().Algorithm,
		Params: modelParams{Eps: p.Eps, Tau: p.Tau, Alpha: p.Alpha, SampleFraction: p.SampleFraction,
			Metric: int32(p.Metric), Seed: p.Seed, Workers: p.Workers, IndexBackend: p.IndexBackend},
		Points: model.snapshotPoints(), Labels: labels, Core: model.CoreMask(),
		Forest: model.Forest(), NumClusters: model.NumClusters(), Updates: model.Updates(),
	}
}

// TestLoadModelDerivesForestAndCount: the forest and cluster count are
// functions of the labels and core flags, so a load derives them. A
// version-2 file whose stored count and forest disagree with its labels
// loads with the derived ones, and version 1 and 2 files of a fitted model
// load as that model.
func TestLoadModelDerivesForestAndCount(t *testing.T) {
	train, test := modelTestData(t)
	model, err := Fit(context.Background(), train.Vectors, MethodDBSCAN, WithEps(0.4), WithTau(4))
	if err != nil {
		t.Fatal(err)
	}
	if model.NumClusters() < 2 {
		t.Fatalf("the fit found %d clusters; the test needs several", model.NumClusters())
	}
	want, err := model.Predict(context.Background(), test.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	wrong := legacyPayloadOf(model)
	wrong.NumClusters = 99
	for i := range wrong.Forest {
		wrong.Forest[i] = int32(i)
	}
	for _, c := range []struct {
		name    string
		version uint32
		payload legacyPayload
	}{
		{"v1", 1, legacyPayloadOf(model)},
		{"v2", 2, legacyPayloadOf(model)},
		{"v2 wrong count and forest", 2, wrong},
	} {
		loaded, err := LoadModel(encodeModelFile(t, c.version, &c.payload))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := loaded.NumClusters(); got != model.NumClusters() {
			t.Errorf("%s: NumClusters() = %d, want %d", c.name, got, model.NumClusters())
		}
		if !slices.Equal(loaded.Forest(), model.Forest()) || !slices.Equal(loaded.Labels(), model.Labels()) ||
			!slices.Equal(loaded.CoreMask(), model.CoreMask()) {
			t.Errorf("%s: forest, labels or core mask differ from the fitted model's", c.name)
		}
		got, err := loaded.Predict(context.Background(), test.Vectors)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: loaded model predicts differently from the fitted one", c.name)
		}
	}
}

// TestLoadModelRejectsMalformedPayload: a payload whose parts do not fit
// together is refused with ErrMalformedModel before any index is built or
// query runs, on every backend. Before these checks, ragged rows loaded on
// the exact scan and panicked in the first Predict, and panicked inside
// LoadModel on HNSW.
func TestLoadModelRejectsMalformedPayload(t *testing.T) {
	valid := func(backend string) legacyPayload {
		return legacyPayload{
			Method: string(MethodDBSCAN), Algorithm: "DBSCAN",
			Params: modelParams{Eps: 0.5, Tau: 2, IndexBackend: backend},
			Points: [][]float32{{1, 0}, {0, 1}, {0.6, 0.8}},
			Labels: []int32{1, Noise, 1},
			Core:   []bool{true, false, true},
		}
	}
	cases := []struct {
		name   string
		mutate func(*legacyPayload)
		want   string
	}{
		{"ragged rows", func(p *legacyPayload) { p.Points = [][]float32{{1, 0}, make([]float32, 9), {1}} }, "point 1 has 9 dims"},
		{"zero-dim rows", func(p *legacyPayload) { p.Points = [][]float32{{}, {}, {}} }, "point 0 has 0 dims"},
		{"no points", func(p *legacyPayload) { p.Points, p.Labels, p.Core = nil, nil, nil }, "0 points"},
		{"label count", func(p *legacyPayload) { p.Labels = p.Labels[:2] }, "3 points, 2 labels"},
		{"core count", func(p *legacyPayload) { p.Core = append(p.Core, true) }, "3 points, 3 labels, 4 cores"},
		{"label 0", func(p *legacyPayload) { p.Labels[0] = 0 }, "point 0 has label 0"},
		{"label below noise", func(p *legacyPayload) { p.Labels[1] = -2 }, "point 1 has label -2"},
		{"label past the point count", func(p *legacyPayload) { p.Labels[2] = 1 << 30 }, "point 2 has label 1073741824"},
		{"unknown method", func(p *legacyPayload) { p.Method = "bogus" }, `unknown method "bogus"`},
		{"invalid params", func(p *legacyPayload) { p.Params.Eps = 0 }, "Eps"},
	}
	for _, backend := range []string{"", "hnsw"} {
		ok := valid(backend)
		if _, err := LoadModel(encodeModelFile(t, 2, &ok)); err != nil {
			t.Fatalf("backend %q: the valid payload is refused: %v", backend, err)
		}
		for _, c := range cases {
			p := valid(backend)
			c.mutate(&p)
			_, err := LoadModel(encodeModelFile(t, 2, &p))
			if !errors.Is(err, ErrMalformedModel) || !strings.Contains(err.Error(), c.want) {
				t.Errorf("backend %q, %s: error %v, want ErrMalformedModel mentioning %q", backend, c.name, err, c.want)
			}
		}
	}
}

// TestLoadModelRejectsEstimatorOfWrongWidth: an estimator must take the
// model's points plus the radius. A file pairing 48-d points with an
// estimator trained on 8-d vectors is refused at load time, before its
// first Estimate could index past the feature buffer.
func TestLoadModelRejectsEstimatorOfWrongWidth(t *testing.T) {
	train, _ := modelTestData(t)
	model, err := Fit(context.Background(), train.Vectors, MethodDBSCAN, WithEps(0.4), WithTau(4))
	if err != nil {
		t.Fatal(err)
	}
	narrow := GenerateMixture("narrow", MixtureConfig{N: 60, Dim: 8, Clusters: 2, Seed: 93})
	est, err := TrainRMIEstimator(narrow.Vectors, EstimatorConfig{Hidden: []int{4}, Epochs: 1, MaxQueries: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	model.params.Estimator = est
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	_, err = LoadModel(&buf)
	if err == nil || !strings.Contains(err.Error(), "estimator takes 8-d points, model has 48-d") {
		t.Fatalf("LoadModel error = %v", err)
	}
}

// TestLoadModelMapsNegativeWaveSize: earlier releases accepted WaveSize -1
// (buffer every neighbor list) and saved it with the model. Such a file —
// or a WAL snapshot holding one — still loads, with the default wave size,
// and predicts exactly like the model that was saved.
func TestLoadModelMapsNegativeWaveSize(t *testing.T) {
	train, test := modelTestData(t)
	model, err := Fit(context.Background(), train.Vectors, MethodDBSCAN,
		WithEps(0.4), WithTau(4), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	model.params.WaveSize = -1
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatalf("LoadModel: %v", err)
	}
	if got := loaded.Params().WaveSize; got != 0 {
		t.Errorf("loaded WaveSize = %d, want 0", got)
	}
	if !slices.Equal(loaded.Labels(), model.Labels()) {
		t.Fatal("labels differ after load")
	}
	want, err := model.Predict(context.Background(), test.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Predict(context.Background(), test.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatal("loaded model predicts differently from the saved one")
	}
}

// batchSizeParams is the params record of model files written while
// Params had BatchSize, the engines' per-worker claim size: modelParams
// plus that field.
type batchSizeParams struct {
	Eps                   float64
	Tau                   int
	Alpha                 float64
	SampleFraction        float64
	Branching             int
	LeavesRatio           float64
	Base                  float64
	RNT                   int
	Rho                   float64
	Metric                int32
	Seed                  int64
	DisablePostProcessing bool
	Workers               int
	BatchSize             int
	WaveSize              int
	IndexBackend          string
	EfSearch              int
}

// batchSizePayload is the version-2 payload around batchSizeParams.
type batchSizePayload struct {
	Method       string
	Algorithm    string
	Params       batchSizeParams
	Points       [][]float32
	Labels       []int32
	Core         []bool
	Forest       []int32
	NumClusters  int
	HasEstimator bool
	Estimator    estimatorPayload
	Updates      int64
}

// TestLoadModelWithBatchSize: a model file whose params carry BatchSize
// (here 16), as files saved before the knob was removed do, still loads
// and predicts exactly like the model that was saved.
func TestLoadModelWithBatchSize(t *testing.T) {
	train, test := modelTestData(t)
	model, err := Fit(context.Background(), train.Vectors, MethodDBSCAN,
		WithEps(0.4), WithTau(4), WithWorkers(2), WithWaveSize(64))
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := model.Save(&saved); err != nil {
		t.Fatal(err)
	}
	saved.Next(8) // magic and version
	var cur modelPayload
	if err := gob.NewDecoder(&saved).Decode(&cur); err != nil {
		t.Fatal(err)
	}
	p := cur.Params
	old := batchSizePayload{
		Method: cur.Method, Algorithm: cur.Algorithm,
		Params: batchSizeParams{
			Eps: p.Eps, Tau: p.Tau, Alpha: p.Alpha, SampleFraction: p.SampleFraction,
			Branching: p.Branching, LeavesRatio: p.LeavesRatio, Base: p.Base, RNT: p.RNT, Rho: p.Rho,
			Metric: p.Metric, Seed: p.Seed, DisablePostProcessing: p.DisablePostProcessing,
			Workers: p.Workers, BatchSize: 16, WaveSize: p.WaveSize,
			IndexBackend: p.IndexBackend, EfSearch: p.EfSearch,
		},
		Points: cur.Points, Labels: cur.Labels, Core: cur.Core, Forest: model.Forest(),
		NumClusters: model.NumClusters(), Updates: cur.Updates,
	}
	loaded, err := LoadModel(encodeModelFile(t, 2, &old))
	if err != nil {
		t.Fatalf("LoadModel: %v", err)
	}
	if got, want := loaded.Params(), model.Params(); got.Workers != want.Workers || got.WaveSize != want.WaveSize {
		t.Errorf("loaded Workers/WaveSize = %d/%d, want %d/%d", got.Workers, got.WaveSize, want.Workers, want.WaveSize)
	}
	if !slices.Equal(loaded.Labels(), model.Labels()) || !slices.Equal(loaded.CoreMask(), model.CoreMask()) ||
		!slices.Equal(loaded.Forest(), model.Forest()) {
		t.Fatal("labels, cores or forest differ after load")
	}
	want, err := model.Predict(context.Background(), test.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Predict(context.Background(), test.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatal("loaded model predicts differently from the saved one")
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
	if _, err := Cluster(combined, MethodDBSCAN, p); err != nil {
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
