package lafdbscan

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lafdbscan/internal/cardest"
	"lafdbscan/internal/index"
	"lafdbscan/internal/vecmath"
	"lafdbscan/internal/wal"
)

// incrementalEngines enumerates the model configurations whose
// Insert/Remove results are pinned bit-identical to a fresh Fit on the
// resulting point set with the model's Method() and Params(): DBSCAN and
// LAF-DBSCAN, with post-processing off and on, at the default Workers 0
// and at an explicit pool with small waves, and one row per sampled or
// block method, which the first mutation switches to its exact
// counterpart (LAF-DBSCAN++ with post-processing off and on).
// On the mixtures of the tests that use it, the -pp rows fit with no
// post-processing merge, so they pin maintenance only where Algorithm 3
// merges nothing; TestMaintenanceWithMergesMatchesFreshFit covers merging.
// The -euclidean rows run under MetricEuclidean, where every range query
// maintenance makes, an Insert's batch included, takes BruteForce's
// per-pair branch instead of the cosine kernel; their LAF gate is an exact
// Euclidean range count, which gates points out on each mixture.
func incrementalEngines(points [][]float32) []struct {
	name   string
	method Method
	params Params
} {
	est := ExactEstimator(points)
	eucEst := &cardest.Exact{Index: index.NewBruteForce(points, MetricEuclidean.Func())}
	eucEps := CosineToEuclidean(0.4)
	return []struct {
		name   string
		method Method
		params Params
	}{
		{"dbscan-default", MethodDBSCAN, Params{Eps: 0.4, Tau: 4}},
		{"dbscan-parallel-wave", MethodDBSCAN, Params{Eps: 0.4, Tau: 4, Workers: 2, WaveSize: 7}},
		{"laf-default-nopp", MethodLAFDBSCAN, Params{Eps: 0.4, Tau: 4, Alpha: 1.2, Estimator: est, Seed: 7, DisablePostProcessing: true}},
		{"laf-parallel-nopp", MethodLAFDBSCAN, Params{Eps: 0.4, Tau: 4, Alpha: 1.2, Estimator: est, Seed: 7, Workers: 2, DisablePostProcessing: true}},
		{"laf-default-pp", MethodLAFDBSCAN, Params{Eps: 0.4, Tau: 4, Alpha: 1.2, Estimator: est, Seed: 7}},
		{"laf-parallel-pp", MethodLAFDBSCAN, Params{Eps: 0.4, Tau: 4, Alpha: 1.2, Estimator: est, Seed: 7, Workers: 2, WaveSize: 16}},
		{"dbscan-euclidean", MethodDBSCAN, Params{Eps: eucEps, Tau: 4, Metric: MetricEuclidean, Workers: 2, WaveSize: 7}},
		{"laf-euclidean-nopp", MethodLAFDBSCAN, Params{Eps: eucEps, Tau: 4, Metric: MetricEuclidean, Alpha: 1.2, Estimator: eucEst, Seed: 7, DisablePostProcessing: true}},
		{"laf-euclidean-pp", MethodLAFDBSCAN, Params{Eps: eucEps, Tau: 4, Metric: MetricEuclidean, Alpha: 1.2, Estimator: eucEst, Seed: 7, Workers: 2, WaveSize: 16}},
		{"dbscan++", MethodDBSCANPP, Params{Eps: 0.4, Tau: 4, SampleFraction: 0.5, Seed: 7}},
		{"laf-dbscan++-nopp", MethodLAFDBSCANPP, Params{Eps: 0.4, Tau: 4, Alpha: 1.2, Estimator: est, SampleFraction: 0.5, Seed: 7, DisablePostProcessing: true}},
		{"laf-dbscan++-pp", MethodLAFDBSCANPP, Params{Eps: 0.4, Tau: 4, Alpha: 1.2, Estimator: est, SampleFraction: 0.5, Seed: 7, Workers: 2, WaveSize: 16}},
		{"knn-block", MethodKNNBlock, Params{Eps: 0.4, Tau: 4, Seed: 7}},
		{"block-dbscan", MethodBlockDBSCAN, Params{Eps: 0.4, Tau: 4, Seed: 7}},
		{"rho-approx", MethodRhoApprox, Params{Eps: 0.4, Tau: 4, Metric: MetricEuclidean}},
	}
}

// assertMatchesFreshFit pins the equality contract: the mutated model's
// labels, cores and forest are bit-identical (and ARI == 1.0) to a fresh
// Fit on its current point set with the model's own method and parameters,
// and so is its result's algorithm name. A mutated model's method must be
// an exact one, DBSCAN or LAF-DBSCAN, with the sampled and block methods'
// knobs zero. It returns that fresh fit.
func assertMatchesFreshFit(t *testing.T, model *Model, stage string) *Model {
	t.Helper()
	method, p := model.Method(), model.Params()
	if model.Updates() > 0 {
		if method != counterpart(method) {
			t.Fatalf("%s: a mutated model's method is %s, want its exact counterpart %s", stage, method, counterpart(method))
		}
		if p.SampleFraction != 0 || p.Branching != 0 || p.LeavesRatio != 0 || p.Base != 0 || p.RNT != 0 || p.Rho != 0 {
			t.Fatalf("%s: a mutated model keeps a sampled or block method's knobs: %+v", stage, p)
		}
	}
	fresh, err := FitParams(context.Background(), model.snapshotPoints(), method, p)
	if err != nil {
		t.Fatalf("%s: fresh fit: %v", stage, err)
	}
	if got, want := model.Result().Algorithm, fresh.Result().Algorithm; got != want {
		t.Fatalf("%s: algorithm = %q, fresh fit has %q", stage, got, want)
	}
	got, want := model.Labels(), fresh.Labels()
	if !slices.Equal(got, want) {
		ari, _ := ARI(want, got)
		t.Fatalf("%s: labels diverged from fresh fit (ARI %.4f)\n got: %v\nwant: %v", stage, ari, head(got), head(want))
	}
	if ari, _ := ARI(want, got); ari != 1.0 {
		t.Fatalf("%s: ARI = %v, want 1.0", stage, ari)
	}
	if !slices.Equal(model.CoreMask(), fresh.CoreMask()) {
		t.Fatalf("%s: core mask diverged from fresh fit", stage)
	}
	if !slices.Equal(model.Forest(), fresh.Forest()) {
		t.Fatalf("%s: forest diverged from fresh fit", stage)
	}
	if model.NumClusters() != fresh.NumClusters() {
		t.Fatalf("%s: clusters = %d, fresh fit has %d", stage, model.NumClusters(), fresh.NumClusters())
	}
	return fresh
}

// snapshotPoints exposes the model's current point slice for the fresh-fit
// comparison (a copy, so the fresh fit cannot alias model state).
func (m *Model) snapshotPoints() [][]float32 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return slices.Clone(m.points)
}

func head(labels []int) []int {
	if len(labels) > 24 {
		return labels[:24]
	}
	return labels
}

// TestInsertMatchesFreshFit grows every pinned engine's model in uneven
// batches drawn from the same mixture and checks bit-identity against
// refitting after each batch — covering border promotion, new clusters and
// cluster growth in one sweep.
func TestInsertMatchesFreshFit(t *testing.T) {
	d := GenerateMixture("inc-insert", MixtureConfig{
		N: 420, Dim: 32, Clusters: 5, MinSpread: 0.15, MaxSpread: 0.3,
		NoiseFrac: 0.2, Seed: 41,
	})
	base, rest := d.Vectors[:300], d.Vectors[300:]
	for _, eng := range incrementalEngines(d.Vectors) {
		t.Run(eng.name, func(t *testing.T) {
			model, err := FitParams(context.Background(), slices.Clone(base), eng.method, eng.params)
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range [][][]float32{rest[:1], rest[1:40], rest[40:]} {
				rep, err := model.Insert(context.Background(), batch)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Inserted != len(batch) {
					t.Fatalf("report.Inserted = %d, want %d", rep.Inserted, len(batch))
				}
				assertMatchesFreshFit(t, model, fmt.Sprintf("after +%d", len(batch)))
			}
			if model.Len() != len(d.Vectors) {
				t.Fatalf("Len = %d, want %d", model.Len(), len(d.Vectors))
			}
			if model.Updates() != int64(len(rest)) {
				t.Fatalf("Updates = %d, want %d", model.Updates(), len(rest))
			}
		})
	}
}

// TestRemoveMatchesFreshFit removes core, border and noise points (single
// and batched) from every pinned engine's model and checks bit-identity
// against refitting on the compacted set — demotions and id compaction
// included.
func TestRemoveMatchesFreshFit(t *testing.T) {
	d := GenerateMixture("inc-remove", MixtureConfig{
		N: 380, Dim: 32, Clusters: 5, MinSpread: 0.15, MaxSpread: 0.3,
		NoiseFrac: 0.25, Seed: 43,
	})
	for _, eng := range incrementalEngines(d.Vectors) {
		t.Run(eng.name, func(t *testing.T) {
			model, err := FitParams(context.Background(), slices.Clone(d.Vectors), eng.method, eng.params)
			if err != nil {
				t.Fatal(err)
			}
			// One core point, then a spread batch hitting borders and noise.
			coreID := slices.Index(model.CoreMask(), true)
			if _, err := model.Remove(context.Background(), []int{coreID}); err != nil {
				t.Fatal(err)
			}
			assertMatchesFreshFit(t, model, "after removing one core")
			rng := rand.New(rand.NewSource(5))
			batch := rng.Perm(model.Len())[:40]
			rep, err := model.Remove(context.Background(), batch)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Removed != 40 {
				t.Fatalf("report.Removed = %d, want 40", rep.Removed)
			}
			assertMatchesFreshFit(t, model, "after removing 40")
		})
	}
}

// chainPoints places points on the unit circle at fixed angular steps: a
// single ε-chain whose interior points are articulation points, the
// sharpest merge/split geometry there is.
func chainPoints(n int, step float64) [][]float32 {
	pts := make([][]float32, n)
	for i := range pts {
		a := float64(i) * step
		pts[i] = []float32{float32(math.Cos(a)), float32(math.Sin(a))}
	}
	return pts
}

// TestRemoveSplitsCluster pins split detection exactly: removing the middle
// of an ε-chain must split it into two clusters, bit-identical to a fresh
// fit on the remaining points.
func TestRemoveSplitsCluster(t *testing.T) {
	step := 0.18 // cosine distance between neighbors 1-cos(0.18) ≈ 0.016
	pts := chainPoints(11, step)
	eps := 0.02 // adjacent points connect, next-nearest do not
	// Tau 3: interior points (self + 2 neighbors) are core, chain ends are
	// borders, so removing an interior point demotes its two neighbors.
	model, err := Fit(context.Background(), slices.Clone(pts), MethodDBSCAN, WithEps(eps), WithTau(3))
	if err != nil {
		t.Fatal(err)
	}
	if model.NumClusters() != 1 {
		t.Fatalf("chain fit has %d clusters, want 1", model.NumClusters())
	}
	rep, err := model.Remove(context.Background(), []int{5})
	if err != nil {
		t.Fatal(err)
	}
	if model.NumClusters() != 2 {
		t.Fatalf("removing the articulation point left %d clusters, want 2", model.NumClusters())
	}
	if rep.Demoted == 0 {
		t.Fatalf("expected demotions around the removed articulation point, got none")
	}
	assertMatchesFreshFit(t, model, "after split")
}

// TestInsertMergesClusters pins the merge path: re-inserting the bridge
// point must reunite the halves, again bit-identical to a fresh fit.
func TestInsertMergesClusters(t *testing.T) {
	step := 0.18
	pts := chainPoints(11, step)
	bridge := pts[5]
	broken := slices.Clone(pts)
	broken = slices.Delete(broken, 5, 6)
	model, err := Fit(context.Background(), broken, MethodDBSCAN, WithEps(0.02), WithTau(3))
	if err != nil {
		t.Fatal(err)
	}
	if model.NumClusters() != 2 {
		t.Fatalf("broken chain has %d clusters, want 2", model.NumClusters())
	}
	rep, err := model.Insert(context.Background(), [][]float32{bridge})
	if err != nil {
		t.Fatal(err)
	}
	if model.NumClusters() != 1 {
		t.Fatalf("bridge insert left %d clusters, want 1", model.NumClusters())
	}
	if rep.Promoted == 0 {
		t.Fatalf("expected chain-end promotions from the bridge insert, got none")
	}
	assertMatchesFreshFit(t, model, "after merge")
}

// TestInsertMassPromotion pins the bulk-promotion path under the parallel
// pool: 100 isolated sub-Tau pairs each gain a bridging point in one
// batched Insert, promoting all 200 existing points at once — far past one
// worker-pool grain, so phase B's result handling must be race-free (run
// under -race in CI) — and the result still matches a fresh fit exactly.
func TestInsertMassPromotion(t *testing.T) {
	const pairs = 100
	var base, bridges [][]float32
	at := func(a float64) []float32 {
		return []float32{float32(math.Cos(a)), float32(math.Sin(a))}
	}
	for i := 0; i < pairs; i++ {
		b := 0.06 * float64(i)
		base = append(base, at(b), at(b+0.012))
		bridges = append(bridges, at(b+0.006))
	}
	// eps 1e-4: within-pair ≈ 7.2e-5, pair-to-bridge ≈ 1.8e-5, the closest
	// cross-pair gap ≈ 1.15e-3 — pairs are isolated, trios connect.
	model, err := Fit(context.Background(), base, MethodDBSCAN,
		WithEps(1e-4), WithTau(3), WithWorkers(4), WithWaveSize(8))
	if err != nil {
		t.Fatal(err)
	}
	if model.NumClusters() != 0 || model.NumCores() != 0 {
		t.Fatalf("pre-insert: %d clusters %d cores, want all noise", model.NumClusters(), model.NumCores())
	}
	rep, err := model.Insert(context.Background(), bridges)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Promoted != 2*pairs {
		t.Fatalf("promoted = %d, want %d", rep.Promoted, 2*pairs)
	}
	if model.NumClusters() != pairs {
		t.Fatalf("clusters = %d, want %d", model.NumClusters(), pairs)
	}
	assertMatchesFreshFit(t, model, "after mass promotion")
}

// TestInsertRemoveSequenceMatchesFreshFit interleaves inserts and removes
// and checks the equality contract holds for the whole history, not just
// single steps.
func TestInsertRemoveSequenceMatchesFreshFit(t *testing.T) {
	d := GenerateMixture("inc-seq", MixtureConfig{
		N: 360, Dim: 32, Clusters: 4, MinSpread: 0.15, MaxSpread: 0.3,
		NoiseFrac: 0.2, Seed: 47,
	})
	base, pool := d.Vectors[:260], d.Vectors[260:]
	for _, eng := range incrementalEngines(d.Vectors) {
		t.Run(eng.name, func(t *testing.T) {
			model, err := FitParams(context.Background(), slices.Clone(base), eng.method, eng.params)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			cursor := 0
			for step := 0; step < 6; step++ {
				if step%2 == 0 && cursor < len(pool) {
					k := min(1+rng.Intn(30), len(pool)-cursor)
					if _, err := model.Insert(context.Background(), pool[cursor:cursor+k]); err != nil {
						t.Fatal(err)
					}
					cursor += k
				} else {
					ids := rng.Perm(model.Len())[:10]
					if _, err := model.Remove(context.Background(), ids); err != nil {
						t.Fatal(err)
					}
				}
			}
			assertMatchesFreshFit(t, model, "after interleaved history")
		})
	}
}

// TestMutatedPredictConsistency checks the self-consistency invariant for
// every method without post-processing: predicting the model's own points
// reproduces its current labels (core points via their own cluster, borders
// via the same adjacency rule the relabeling applies), and the labels
// equal a fresh fit of the method the model became.
func TestMutatedPredictConsistency(t *testing.T) {
	d := GenerateMixture("inc-predict", MixtureConfig{
		N: 320, Dim: 32, Clusters: 4, MinSpread: 0.15, MaxSpread: 0.3,
		NoiseFrac: 0.2, Seed: 53,
	})
	base, rest := d.Vectors[:260], d.Vectors[260:]
	est := ExactEstimator(d.Vectors)
	configs := map[Method]Params{
		MethodDBSCAN:      {Eps: 0.4, Tau: 4},
		MethodDBSCANPP:    {Eps: 0.4, Tau: 4, SampleFraction: 0.5, Seed: 7},
		MethodLAFDBSCAN:   {Eps: 0.4, Tau: 4, Alpha: 1.0, Estimator: est, Seed: 7, DisablePostProcessing: true},
		MethodLAFDBSCANPP: {Eps: 0.4, Tau: 4, Alpha: 1.0, Estimator: est, SampleFraction: 0.5, Seed: 7, DisablePostProcessing: true},
		MethodKNNBlock:    {Eps: 0.4, Tau: 4, Seed: 7},
		MethodBlockDBSCAN: {Eps: 0.4, Tau: 4, Seed: 7},
		MethodRhoApprox:   {Eps: 0.4, Tau: 4, Rho: 0},
	}
	for m, p := range configs {
		t.Run(string(m), func(t *testing.T) {
			model, err := FitParams(context.Background(), slices.Clone(base), m, p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := model.Insert(context.Background(), rest); err != nil {
				t.Fatal(err)
			}
			if _, err := model.Remove(context.Background(), []int{3, 50, 100}); err != nil {
				t.Fatal(err)
			}
			want := MethodDBSCAN
			if m == MethodLAFDBSCAN || m == MethodLAFDBSCANPP {
				want = MethodLAFDBSCAN
			}
			if model.Method() != want {
				t.Fatalf("mutated %s model reports method %s, want %s", m, model.Method(), want)
			}
			pred, err := model.Predict(context.Background(), model.snapshotPoints())
			if err != nil {
				t.Fatal(err)
			}
			if got := model.Labels(); !slices.Equal(pred, got) {
				for i := range pred {
					if pred[i] != got[i] {
						t.Fatalf("%s: self-prediction diverges at %d: predict %d, label %d", m, i, pred[i], got[i])
					}
				}
			}
			assertMatchesFreshFit(t, model, "after insert and remove")
		})
	}
}

// TestMutatedModelSaveLoadRoundTrip pins persistence of evolved models:
// the mutation counter, the method and parameters (a DBSCAN++ or
// ρ-approximate model's first mutation switched them to DBSCAN's) and
// every label-level artifact survive the round trip bit for bit, the
// loaded model saves the same bytes, and it keeps evolving correctly (its
// maintenance overlay rebuilds from the payload).
func TestMutatedModelSaveLoadRoundTrip(t *testing.T) {
	d := GenerateMixture("inc-persist", MixtureConfig{
		N: 300, Dim: 32, Clusters: 4, MinSpread: 0.15, MaxSpread: 0.3,
		NoiseFrac: 0.2, Seed: 59,
	})
	base, rest := d.Vectors[:240], d.Vectors[240:]
	configs := []struct {
		method Method
		params Params
	}{
		{MethodDBSCAN, Params{Eps: 0.4, Tau: 4}},
		{MethodDBSCANPP, Params{Eps: 0.4, Tau: 4, SampleFraction: 0.5, Seed: 7}},
		{MethodRhoApprox, Params{Eps: 0.4, Tau: 4, Metric: MetricEuclidean}},
	}
	for _, c := range configs {
		t.Run(string(c.method), func(t *testing.T) {
			model, err := FitParams(context.Background(), slices.Clone(base), c.method, c.params)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := model.Insert(context.Background(), rest[:30]); err != nil {
				t.Fatal(err)
			}
			if _, err := model.Remove(context.Background(), []int{1, 2, 3, 250}); err != nil {
				t.Fatal(err)
			}
			if model.Method() != MethodDBSCAN || model.Params().Metric != MetricCosine {
				t.Fatalf("mutated %s model reports method %s under metric %v, want %s under cosine",
					c.method, model.Method(), model.Params().Metric, MethodDBSCAN)
			}
			var buf bytes.Buffer
			if err := model.Save(&buf); err != nil {
				t.Fatal(err)
			}
			saved := slices.Clone(buf.Bytes())
			loaded, err := LoadModel(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Updates() != model.Updates() || loaded.Updates() != 34 {
				t.Fatalf("Updates = %d (loaded %d), want 34", model.Updates(), loaded.Updates())
			}
			lp, mp := loaded.Params(), model.Params()
			lp.Index = nil
			if loaded.Method() != model.Method() || lp != mp {
				t.Fatalf("loaded %s %+v, want %s %+v", loaded.Method(), lp, model.Method(), mp)
			}
			// A mutated model's Result is the reconstruction a loaded one
			// carries: no counters of the fit it no longer is.
			mr, lr := model.Result(), loaded.Result()
			if mr.Algorithm != lr.Algorithm || mr.NumClusters != lr.NumClusters || mr.RangeQueries != lr.RangeQueries ||
				mr.SkippedQueries != lr.SkippedQueries || mr.PostMerges != lr.PostMerges {
				t.Fatalf("mutated Result %s: %d clusters, %d/%d/%d queries/skipped/merges; loaded %s: %d, %d/%d/%d",
					mr.Algorithm, mr.NumClusters, mr.RangeQueries, mr.SkippedQueries, mr.PostMerges,
					lr.Algorithm, lr.NumClusters, lr.RangeQueries, lr.SkippedQueries, lr.PostMerges)
			}
			if !slices.Equal(loaded.Labels(), model.Labels()) || !slices.Equal(loaded.CoreMask(), model.CoreMask()) ||
				!slices.Equal(loaded.Forest(), model.Forest()) {
				t.Fatal("mutated model artifacts did not round-trip bit-identically")
			}
			if err := loaded.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), saved) {
				t.Fatal("the loaded model saves different bytes")
			}
			// The loaded model must keep evolving: insert the remaining
			// points on both models and compare against a fresh fit.
			if _, err := model.Insert(context.Background(), rest[30:]); err != nil {
				t.Fatal(err)
			}
			if _, err := loaded.Insert(context.Background(), rest[30:]); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(loaded.Labels(), model.Labels()) {
				t.Fatal("loaded model diverged from the original under further mutation")
			}
			assertMatchesFreshFit(t, loaded, "loaded model after further inserts")
		})
	}
}

// TestRetrainPolicy pins the staleness counter and the retrain trigger:
// after the configured number of mutations the estimator is retrained on
// the current points, the model re-gates, and the labels still match a
// fresh fit with the new estimator.
func TestRetrainPolicy(t *testing.T) {
	d := GenerateMixture("inc-retrain", MixtureConfig{
		N: 300, Dim: 32, Clusters: 4, MinSpread: 0.15, MaxSpread: 0.3,
		NoiseFrac: 0.2, Seed: 61,
	})
	base, rest := d.Vectors[:260], d.Vectors[260:]
	est := ExactEstimator(base)
	model, err := Fit(context.Background(), slices.Clone(base), MethodLAFDBSCAN,
		WithEps(0.4), WithTau(4), WithAlpha(1.2), WithEstimator(est), WithSeed(7), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	trained := 0
	model.SetRetrainPolicy(RetrainPolicy{
		After: 25,
		Train: func(ctx context.Context, points [][]float32) (Estimator, error) {
			trained++
			return ExactEstimator(slices.Clone(points)), nil
		},
	})
	rep, err := model.Insert(context.Background(), rest[:20])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retrained || model.Staleness() != 20 || trained != 0 {
		t.Fatalf("premature retrain: %+v staleness=%d trained=%d", rep, model.Staleness(), trained)
	}
	rep, err = model.Insert(context.Background(), rest[20:])
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Retrained || trained != 1 {
		t.Fatalf("retrain did not trigger: %+v trained=%d", rep, trained)
	}
	if model.Staleness() != 0 {
		t.Fatalf("staleness = %d after retrain, want 0", model.Staleness())
	}
	assertMatchesFreshFit(t, model, "after retrain re-gate")
}

// TestConcurrentInsertPredict is the -race witness of the concurrency
// contract: predictions, accessor reads and serialization race mutations
// freely; every observed state is either pre- or post-update.
func TestConcurrentInsertPredict(t *testing.T) {
	d := GenerateMixture("inc-race", MixtureConfig{
		N: 260, Dim: 24, Clusters: 4, MinSpread: 0.15, MaxSpread: 0.3,
		NoiseFrac: 0.2, Seed: 67,
	})
	base, rest := d.Vectors[:200], d.Vectors[200:]
	model, err := Fit(context.Background(), slices.Clone(base), MethodDBSCAN,
		WithEps(0.4), WithTau(4), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	probes := slices.Clone(rest[:10])
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := model.Predict(context.Background(), probes); err != nil {
					t.Errorf("predict: %v", err)
					return
				}
				_ = model.Labels()
				_ = model.NumClusters()
				var buf bytes.Buffer
				if err := model.Save(&buf); err != nil {
					t.Errorf("save: %v", err)
					return
				}
			}
		}(int64(r))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < len(rest); i += 4 {
			hi := min(i+4, len(rest))
			if _, err := model.Insert(context.Background(), rest[i:hi]); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			if model.Len() > len(base)+8 {
				if _, err := model.Remove(context.Background(), []int{0, 5}); err != nil {
					t.Errorf("remove: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()
	assertMatchesFreshFit(t, model, "after concurrent churn")
}

// TestConcurrentFirstInsertSwitch is the -race witness of the method
// switch: Method(), Params() and Predict race a DBSCAN++ model's first
// Insert, which switches it to DBSCAN. Every observed method is one of
// the two, and the switch is final.
func TestConcurrentFirstInsertSwitch(t *testing.T) {
	d := GenerateMixture("inc-race-switch", MixtureConfig{
		N: 220, Dim: 24, Clusters: 4, MinSpread: 0.15, MaxSpread: 0.3,
		NoiseFrac: 0.2, Seed: 83,
	})
	base, rest := d.Vectors[:200], d.Vectors[200:]
	model, err := Fit(context.Background(), slices.Clone(base), MethodDBSCANPP,
		WithEps(0.4), WithTau(4), WithSampleFraction(0.5), WithSeed(7), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	probes := slices.Clone(rest[:10])
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if m := model.Method(); m != MethodDBSCANPP && m != MethodDBSCAN {
					t.Errorf("method = %s mid-switch", m)
					return
				}
				_ = model.Params()
				if _, err := model.Predict(context.Background(), probes); err != nil {
					t.Errorf("predict: %v", err)
					return
				}
			}
		}()
	}
	if _, err := model.Insert(context.Background(), rest); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if model.Method() != MethodDBSCAN {
		t.Fatalf("method = %s after the first insert, want %s", model.Method(), MethodDBSCAN)
	}
	assertMatchesFreshFit(t, model, "after the racing first insert")
}

// parkGate parks every caller of wait, once armed, until release is
// closed; the first caller to park closes parked.
type parkGate struct {
	armed           atomic.Bool
	once            sync.Once
	parked, release chan struct{}
}

func newParkGate() *parkGate {
	return &parkGate{parked: make(chan struct{}), release: make(chan struct{})}
}

func (g *parkGate) wait() {
	if g.armed.Load() {
		g.once.Do(func() { close(g.parked) })
		<-g.release
	}
}

// parkingEstimator is an estimator whose Estimate waits at its gate.
type parkingEstimator struct {
	Estimator
	gate *parkGate
}

func (p parkingEstimator) Estimate(q []float32, eps float64) float64 {
	p.gate.wait()
	return p.Estimator.Estimate(q, eps)
}

// parkingFS is a filesystem whose created files' Sync waits at its gate.
type parkingFS struct {
	wal.FS
	gate *parkGate
}

func (f parkingFS) Create(path string) (wal.File, error) {
	file, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return parkingFile{file, f.gate}, nil
}

type parkingFile struct {
	wal.File
	gate *parkGate
}

func (f parkingFile) Sync() error {
	f.gate.wait()
	return f.File.Sync()
}

// TestPredictDuringMutation pins that a mutation blocks no reader until its
// commit: an ungated Predict returns the labels it returned before an
// Insert while that Insert is parked (a) in its plan's estimator gate and
// (b) in the fsync of its journal record. Each model then matches a fresh
// fit.
func TestPredictDuringMutation(t *testing.T) {
	d := GenerateMixture("inc-predict-during", MixtureConfig{
		N: 260, Dim: 16, Clusters: 4, MinSpread: 0.15, MaxSpread: 0.3,
		NoiseFrac: 0.2, Seed: 89,
	})
	base, rest := d.Vectors[:200], d.Vectors[200:]
	probes := slices.Clone(rest[:10])
	ctx := context.Background()
	// predictWhileParked arms g, starts insert, and once the insert parks
	// at g requires a Predict on model to return the pre-insert labels
	// within a deadline; then it releases the insert and waits for it.
	predictWhileParked := func(t *testing.T, model *Model, g *parkGate, insert func() error) {
		want, err := model.Predict(ctx, probes)
		if err != nil {
			t.Fatal(err)
		}
		g.armed.Store(true)
		done := make(chan error, 1)
		go func() { done <- insert() }()
		select {
		case <-g.parked:
		case err := <-done:
			t.Fatalf("insert returned (%v) without parking", err)
		}
		type result struct {
			labels []int
			err    error
		}
		got := make(chan result, 1)
		go func() {
			labels, err := model.Predict(ctx, probes)
			got <- result{labels, err}
		}()
		select {
		case r := <-got:
			if r.err != nil || !slices.Equal(r.labels, want) {
				t.Errorf("predict during the insert = %v, %v; want the pre-insert labels %v", r.labels, r.err, want)
			}
		case <-time.After(10 * time.Second):
			t.Error("predict blocked behind the parked insert")
		}
		close(g.release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	t.Run("plan", func(t *testing.T) {
		g := newParkGate()
		model, err := Fit(ctx, slices.Clone(base), MethodLAFDBSCAN, WithEps(0.4), WithTau(4), WithAlpha(1.2),
			WithEstimator(parkingEstimator{ExactEstimator(d.Vectors), g}), WithSeed(7), WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		predictWhileParked(t, model, g, func() error {
			_, err := model.Insert(ctx, rest)
			return err
		})
		assertMatchesFreshFit(t, model, "after the insert parked in its plan")
	})

	t.Run("journal", func(t *testing.T) {
		g := newParkGate()
		model, err := Fit(ctx, slices.Clone(base), MethodDBSCAN, WithEps(0.4), WithTau(4), WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		dm, err := NewDurable(model, filepath.Join(t.TempDir(), "journal"), DurableOptions{FS: parkingFS{wal.OSFS(), g}})
		if err != nil {
			t.Fatal(err)
		}
		defer dm.Close()
		predictWhileParked(t, model, g, func() error {
			_, err := dm.Insert(ctx, rest)
			return err
		})
		if st := dm.Stats(); st.LSN != 1 {
			t.Fatalf("stats = %+v, want the insert journaled at LSN 1", st)
		}
		assertMatchesFreshFit(t, model, "after the insert parked in its fsync")
	})
}

// TestUpdateValidation pins the error surface: dimension mismatches,
// out-of-range and duplicate removals, removing everything, and LAF
// maintenance without an estimator all fail cleanly without mutating the
// model.
func TestUpdateValidation(t *testing.T) {
	d := GenerateMixture("inc-validate", MixtureConfig{
		N: 120, Dim: 16, Clusters: 3, MinSpread: 0.15, MaxSpread: 0.3,
		NoiseFrac: 0.2, Seed: 71,
	})
	model, err := Fit(context.Background(), d.Vectors, MethodDBSCAN, WithEps(0.4), WithTau(4))
	if err != nil {
		t.Fatal(err)
	}
	before := model.Labels()
	if _, err := model.Insert(context.Background(), [][]float32{{1, 0}}); err == nil ||
		!strings.Contains(err.Error(), "dims") {
		t.Fatalf("dim mismatch not rejected: %v", err)
	}
	if _, err := model.Remove(context.Background(), []int{-1}); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range id not rejected: %v", err)
	}
	if _, err := model.Remove(context.Background(), []int{2, 2}); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate id not rejected: %v", err)
	}
	all := make([]int, model.Len())
	for i := range all {
		all[i] = i
	}
	if _, err := model.Remove(context.Background(), all); err == nil ||
		!strings.Contains(err.Error(), "all") {
		t.Fatalf("remove-all not rejected: %v", err)
	}
	if !slices.Equal(model.Labels(), before) {
		t.Fatal("failed updates mutated the model")
	}

	// A loaded LAF model whose estimator could not be serialized (the
	// exact oracle has no wire format) must refuse maintenance.
	lafModel, err := Fit(context.Background(), d.Vectors, MethodLAFDBSCAN,
		WithEps(0.4), WithTau(4), WithEstimator(ExactEstimator(d.Vectors)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lafModel.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.HasEstimator() {
		t.Fatal("exact oracle unexpectedly serialized")
	}
	if _, err := loaded.Insert(context.Background(), d.Vectors[:1]); err == nil ||
		!strings.Contains(err.Error(), "estimator") {
		t.Fatalf("estimator-less LAF maintenance not rejected: %v", err)
	}
}

// TestUpdateCancellation pins atomicity under cancellation, the first
// mutation's included: a cancelled Insert or Remove fails with
// context.Canceled and leaves the model's Save bytes, Params() and
// Method() exactly as they were. It covers models fitted on the exact scan
// (DBSCAN and LAF-DBSCAN, which keep their fit's neighbor facts), on HNSW,
// loaded from Save bytes, and DBSCAN++, whose method must not switch. The
// overlay the next mutation builds must then equal its definition, and the
// model must match a fresh fit after it.
func TestUpdateCancellation(t *testing.T) {
	d := GenerateMixture("inc-cancel", MixtureConfig{
		N: 200, Dim: 16, Clusters: 3, MinSpread: 0.15, MaxSpread: 0.3,
		NoiseFrac: 0.2, Seed: 73,
	})
	base, rest := d.Vectors[:150], d.Vectors[150:]
	est := ExactEstimator(d.Vectors)
	kinds := []struct {
		name   string
		method Method
		params Params
		reload bool
		kept   bool // the fit keeps its neighbor facts
	}{
		{"dbscan-exact", MethodDBSCAN, Params{Eps: 0.4, Tau: 4, Workers: 2, WaveSize: 8}, false, true},
		{"laf-exact", MethodLAFDBSCAN, Params{Eps: 0.4, Tau: 4, Alpha: 1.2, Estimator: est, Seed: 7, Workers: 2, WaveSize: 8}, false, true},
		{"dbscan-hnsw", MethodDBSCAN, Params{Eps: 0.4, Tau: 4, Seed: 3, IndexBackend: "hnsw", Workers: 2}, false, false},
		{"dbscan-loaded", MethodDBSCAN, Params{Eps: 0.4, Tau: 4, Workers: 2, WaveSize: 8}, true, false},
		{"dbscan++", MethodDBSCANPP, Params{Eps: 0.4, Tau: 4, SampleFraction: 0.5, Seed: 7, Workers: 2}, false, false},
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	ops := []struct {
		name string
		call func(*Model) (UpdateReport, error)
	}{
		{"insert", func(m *Model) (UpdateReport, error) { return m.Insert(cancelled, rest) }},
		{"remove", func(m *Model) (UpdateReport, error) { return m.Remove(cancelled, []int{0, 1}) }},
	}
	for _, k := range kinds {
		for _, op := range ops {
			t.Run(k.name+"/"+op.name, func(t *testing.T) {
				model, err := FitParams(context.Background(), slices.Clone(base), k.method, k.params)
				if err != nil {
					t.Fatal(err)
				}
				if k.reload {
					var buf bytes.Buffer
					if err := model.Save(&buf); err != nil {
						t.Fatal(err)
					}
					if model, err = LoadModel(&buf); err != nil {
						t.Fatal(err)
					}
				}
				saved := func() []byte {
					var buf bytes.Buffer
					if err := model.Save(&buf); err != nil {
						t.Fatal(err)
					}
					return buf.Bytes()
				}
				bytesBefore, paramsBefore, methodBefore := saved(), model.Params(), model.Method()
				if _, err := op.call(model); !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled %s: error = %v, want context.Canceled", op.name, err)
				}
				if !bytes.Equal(saved(), bytesBefore) {
					t.Fatalf("cancelled %s changed the Save bytes", op.name)
				}
				if model.Params() != paramsBefore || model.Method() != methodBefore {
					t.Fatalf("cancelled %s changed the model: %s %+v, want %s %+v", op.name,
						model.Method(), model.Params(), methodBefore, paramsBefore)
				}
				// The model must still work after the aborted attempt.
				assertDefinedOverlay(t, model, k.kept)
				if _, err := model.Insert(context.Background(), rest); err != nil {
					t.Fatal(err)
				}
				if _, err := model.Remove(context.Background(), []int{0, 1}); err != nil {
					t.Fatal(err)
				}
				assertMatchesFreshFit(t, model, "after recovery from cancellation")
			})
		}
	}
}

// TestMaintenanceWithMergesMatchesFreshFit pins the equality contract
// where Algorithm 3 merges. The mixtures of the tests above fit with no
// post-processing merge at all, so this one fits LAF-DBSCAN on GloVe-like
// points whose exact-oracle gate at α 2 makes post-processing merge, at
// Workers 0, 1 and 2, then inserts and removes: all inserts before the
// removals, and interleaved. Every fit, the first and each fresh one the
// model is compared with, must merge.
func TestMaintenanceWithMergesMatchesFreshFit(t *testing.T) {
	d := GloVeLike(440, 17)
	base, rest := d.Vectors[:400], d.Vectors[400:]
	est := ExactEstimator(d.Vectors)
	type step struct {
		insert [][]float32
		remove []int
	}
	sequences := []struct {
		name  string
		steps []step
	}{
		{"inserts-then-removals", []step{
			{insert: rest[:1]}, {insert: rest[1:]},
			{remove: []int{0}}, {remove: []int{5, 17, 42, 99, 230}},
		}},
		{"interleaved", []step{
			{insert: rest[:1]}, {remove: []int{0}},
			{insert: rest[1:25]}, {remove: []int{5, 17, 42, 99, 230}},
			{insert: rest[25:]}, {remove: []int{3, 250, 410}},
		}},
	}
	requireMerges := func(t *testing.T, m *Model, stage string) {
		t.Helper()
		if m.Result().PostMerges == 0 {
			t.Fatalf("%s: post-processing merged nothing; the test needs merges", stage)
		}
	}
	for _, workers := range []int{0, 1, 2} {
		for _, seq := range sequences {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, seq.name), func(t *testing.T) {
				model, err := FitParams(context.Background(), slices.Clone(base), MethodLAFDBSCAN,
					Params{Eps: 0.55, Tau: 4, Alpha: 2, Estimator: est, Seed: 3, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				requireMerges(t, model, "fit")
				for _, s := range seq.steps {
					stage := fmt.Sprintf("after +%d", len(s.insert))
					if s.remove != nil {
						stage = fmt.Sprintf("after -%v", s.remove)
						_, err = model.Remove(context.Background(), s.remove)
					} else {
						_, err = model.Insert(context.Background(), s.insert)
					}
					if err != nil {
						t.Fatal(err)
					}
					requireMerges(t, assertMatchesFreshFit(t, model, stage), stage)
				}
			})
		}
	}
}

// overlayOf builds model's maintenance overlay and returns it. kept
// states whether the fit must have kept its neighbor facts for it.
func overlayOf(t *testing.T, model *Model, kept bool) *incState {
	t.Helper()
	model.mu.Lock()
	defer model.mu.Unlock()
	if (model.fit != nil) != kept {
		t.Fatalf("the fit kept neighbor facts: %v, want %v", model.fit != nil, kept)
	}
	ov, err := model.overlayLocked(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	model.installLocked(ov)
	model.relabelLocked(ov.core)
	if model.fit != nil {
		t.Fatal("the overlay left the fit's facts on the model")
	}
	return model.inc
}

// sameIDSet reports whether a and b hold the same ids, in any order.
func sameIDSet(a, b []int32) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// definedOverlay is the overlay a model's facts are defined to be,
// computed point by point with RangeSearch on a fresh brute-force index
// under the model's metric: gated[i] is the estimator gate CardEst >=
// Alpha·Tau (nil for an ungated method), counts[i] is |N(i)|, adj[i] lists
// the model's cores within Eps of i other than i in ascending id order,
// and, when the model keeps the partial-neighbor map, e[i] of every stop
// point lists the gated points within Eps of it.
func definedOverlay(m *Model) (gated []bool, counts []int, adj, e [][]int32) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	p := m.params
	idx := index.NewBruteForce(m.points, modelMetric(m.method, p.Metric).Func())
	n := len(m.points)
	if m.method == MethodLAFDBSCAN {
		gated = make([]bool, n)
		for i, x := range m.points {
			gated[i] = p.Estimator.Estimate(x, p.Eps) >= p.Alpha*float64(p.Tau)
		}
	}
	counts = make([]int, n)
	adj = make([][]int32, n)
	if trackStop(m.method, p) {
		e = make([][]int32, n)
	}
	for i, x := range m.points {
		ids := idx.RangeSearch(x, p.Eps)
		counts[i] = len(ids)
		for _, q := range ids {
			if q != i && m.result.Core[q] {
				adj[i] = append(adj[i], int32(q))
			}
			if e != nil && !gated[i] && gated[q] {
				e[i] = append(e[i], int32(q))
			}
		}
	}
	return gated, counts, adj, e
}

// assertDefinedOverlay builds model's overlay, which switches a sampled or
// block model to its counterpart, and compares it with the switched
// model's definedOverlay: the gate flags, the count of every point that
// ran its query (every point but LAF-DBSCAN's stop points, since every
// other overlay comes from an open-gate run), the core set, which must be
// the density criterion's, every adjacency row and the partial-neighbor
// map. Rows are compared as sets.
func assertDefinedOverlay(t *testing.T, model *Model, kept bool) {
	t.Helper()
	got := overlayOf(t, model, kept)
	gated, counts, adj, e := definedOverlay(model)
	if !slices.Equal(got.gated, gated) {
		t.Fatal("gate flags differ")
	}
	if model.Method() == MethodLAFDBSCAN {
		stopAdj := 0
		for i, g := range gated {
			if !g && len(adj[i]) > 0 {
				stopAdj++
			}
		}
		if stopAdj == 0 {
			t.Fatal("no stop point has a core within Eps; the test needs some")
		}
	}
	coreMask, tau := model.CoreMask(), model.Params().Tau
	for i := range counts {
		if (model.Method() != MethodLAFDBSCAN || gated[i]) && got.counts[i] != counts[i] {
			t.Fatalf("count[%d] = %d, want %d", i, got.counts[i], counts[i])
		}
		if want := (gated == nil || gated[i]) && counts[i] >= tau; coreMask[i] != want {
			t.Fatalf("core[%d] = %v, want %v", i, coreMask[i], want)
		}
		if !sameIDSet(got.adj[i], adj[i]) {
			t.Fatalf("adj[%d] = %v, want %v", i, got.adj[i], adj[i])
		}
	}
	if (got.stop == nil) != (e == nil) {
		t.Fatalf("partial-neighbor map kept %v, want %v", got.stop != nil, e != nil)
	}
	if e == nil {
		return
	}
	for i, g := range gated {
		if got.stop.Stop[i] == g {
			t.Fatalf("partial-neighbor entry of %d is %v, want %v", i, got.stop.Stop[i], !g)
		}
		if !sameIDSet(got.stop.Rows[i], e[i]) {
			t.Fatalf("E row %d = %v, want %v", i, got.stop.Rows[i], e[i])
		}
	}
}

// TestOverlayFromFitMatchesScan pins the overlay the first mutation builds
// to its definition (definedOverlay), computed by a per-point scan in this
// test. Overlays from the fit's kept neighbor facts are checked for DBSCAN
// and LAF-DBSCAN with post-processing on and off, at Workers 0, 1 and 2,
// on the brute backend the model resolves and on a brute-force index the
// caller supplies. Overlays from an engine pass, for models that keep no
// facts, are checked for DBSCAN and LAF-DBSCAN on HNSW, DBSCAN++,
// LAF-DBSCAN++, KNN-BLOCK, and a LAF-DBSCAN model reloaded from its Save
// bytes.
func TestOverlayFromFitMatchesScan(t *testing.T) {
	ctx := context.Background()
	d := GloVeLike(400, 17)
	est := ExactEstimator(d.Vectors)
	configs := []struct {
		name   string
		method Method
		params Params
	}{
		{"dbscan", MethodDBSCAN, Params{Eps: 0.55, Tau: 4}},
		{"laf-nopp", MethodLAFDBSCAN, Params{Eps: 0.55, Tau: 4, Alpha: 2, Estimator: est, Seed: 3, DisablePostProcessing: true}},
		{"laf-pp", MethodLAFDBSCAN, Params{Eps: 0.55, Tau: 4, Alpha: 2, Estimator: est, Seed: 3}},
	}
	indexes := []struct {
		name string
		set  func(*Params)
	}{
		{"resolved-brute", func(p *Params) { p.IndexBackend = index.BackendBrute }},
		{"caller-brute", func(p *Params) { p.Index = index.NewBruteForce(d.Vectors, p.Metric.Func()) }},
	}
	for _, c := range configs {
		for _, workers := range []int{0, 1, 2} {
			for _, ix := range indexes {
				t.Run(fmt.Sprintf("%s/workers=%d/%s", c.name, workers, ix.name), func(t *testing.T) {
					p := c.params
					p.Workers = workers
					ix.set(&p)
					model, err := FitParams(ctx, slices.Clone(d.Vectors), c.method, p)
					if err != nil {
						t.Fatal(err)
					}
					assertDefinedOverlay(t, model, true)
				})
			}
		}
	}

	rmi, err := TrainRMIEstimator(d.Vectors, EstimatorConfig{MaxQueries: 80, Hidden: []int{16, 8}, Epochs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	none := []struct {
		name   string
		method Method
		params Params
		reload bool
	}{
		{"dbscan-hnsw", MethodDBSCAN, Params{Eps: 0.55, Tau: 4, Seed: 3, IndexBackend: "hnsw"}, false},
		{"laf-hnsw", MethodLAFDBSCAN, Params{Eps: 0.55, Tau: 4, Alpha: 2, Estimator: est, Seed: 3, IndexBackend: "hnsw"}, false},
		{"dbscan++", MethodDBSCANPP, Params{Eps: 0.55, Tau: 4, Seed: 3, SampleFraction: 0.5}, false},
		{"laf-dbscan++", MethodLAFDBSCANPP, Params{Eps: 0.55, Tau: 4, Alpha: 2, Estimator: est, Seed: 3, SampleFraction: 0.5}, false},
		{"knn-block", MethodKNNBlock, Params{Eps: 0.55, Tau: 4, Seed: 3}, false},
		{"laf-loaded", MethodLAFDBSCAN, Params{Eps: 0.55, Tau: 4, Alpha: 1.5, Estimator: rmi, Seed: 3}, true},
	}
	for _, c := range none {
		t.Run("no-facts/"+c.name, func(t *testing.T) {
			p := c.params
			p.Workers = 2
			model, err := FitParams(ctx, slices.Clone(d.Vectors), c.method, p)
			if err != nil {
				t.Fatal(err)
			}
			if c.reload {
				var buf bytes.Buffer
				if err := model.Save(&buf); err != nil {
					t.Fatal(err)
				}
				if model, err = LoadModel(&buf); err != nil {
					t.Fatal(err)
				}
			}
			assertDefinedOverlay(t, model, false)
		})
	}
}

// TestFitsOffTheExactScanKeepNoFacts pins which fits keep no neighbor
// facts, so their first mutation runs an engine pass for its overlay: a
// fit on the HNSW graph, on a brute-force index under a distance other
// than the model's own function, and the sampling methods. The HNSW
// model's labels after an Insert equal those of the same model reloaded
// from its Save bytes, which carries no facts either.
func TestFitsOffTheExactScanKeepNoFacts(t *testing.T) {
	ctx := context.Background()
	d := GloVeLike(440, 5)
	base, rest := d.Vectors[:400], d.Vectors[400:]
	wrapped := func(a, b []float32) float64 { return vecmath.CosineDistanceUnit(a, b) }
	cases := []struct {
		name   string
		method Method
		params Params
	}{
		{"dbscan-hnsw", MethodDBSCAN, Params{Eps: 0.4, Tau: 5, Seed: 3, IndexBackend: "hnsw"}},
		{"laf-hnsw", MethodLAFDBSCAN, Params{Eps: 0.4, Tau: 5, Seed: 3, IndexBackend: "hnsw", Estimator: ExactEstimator(base)}},
		{"dbscan-wrapped-brute", MethodDBSCAN, Params{Eps: 0.4, Tau: 5, Index: index.NewBruteForce(base, wrapped)}},
		{"dbscan++", MethodDBSCANPP, Params{Eps: 0.4, Tau: 5, Seed: 3, SampleFraction: 0.5}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			model, err := FitParams(ctx, slices.Clone(base), c.method, c.params)
			if err != nil {
				t.Fatal(err)
			}
			model.mu.RLock()
			kept := model.fit != nil
			model.mu.RUnlock()
			if kept {
				t.Fatal("the fit kept neighbor facts")
			}
		})
	}
	model, err := FitParams(ctx, slices.Clone(base), MethodDBSCAN, cases[0].params)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Model{model, loaded} {
		if _, err := m.Insert(ctx, rest); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(model.Labels(), loaded.Labels()) || !slices.Equal(model.CoreMask(), loaded.CoreMask()) {
		t.Fatal("the HNSW-fitted model's labels after Insert differ from its reload's")
	}
}

// gateAll is an estimator whose estimate is +Inf: every point passes the
// gate.
type gateAll struct{}

func (gateAll) Estimate([]float32, float64) float64 { return math.Inf(1) }
func (gateAll) Name() string                        { return "gate-all" }

// TestRetrainGatesFormerStopPoints retrains a LAF-DBSCAN model, whose
// overlay came from the fit, to an estimator that gates every point. The
// points the fit gated out now run their queries, and some of them are
// core; the overlay never knew their counts, so the re-gate must take the
// core set from its own pass. Labels equal a fresh fit with the new
// estimator.
func TestRetrainGatesFormerStopPoints(t *testing.T) {
	d := GloVeLike(440, 17)
	base, rest := d.Vectors[:400], d.Vectors[400:]
	model, err := FitParams(context.Background(), slices.Clone(base), MethodLAFDBSCAN,
		Params{Eps: 0.55, Tau: 4, Alpha: 2, Estimator: ExactEstimator(d.Vectors), Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	model.mu.RLock()
	pass := slices.Clone(model.fit.Pass)
	model.mu.RUnlock()
	model.SetRetrainPolicy(RetrainPolicy{
		After: 1,
		Train: func(context.Context, [][]float32) (Estimator, error) { return gateAll{}, nil },
	})
	rep, err := model.Insert(context.Background(), rest)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Retrained {
		t.Fatalf("retrain did not trigger: %+v", rep)
	}
	assertMatchesFreshFit(t, model, "after re-gating every point")
	promoted := 0
	for i, c := range model.CoreMask()[:len(base)] {
		if c && !pass[i] {
			promoted++
		}
	}
	if promoted == 0 {
		t.Fatal("no former stop point became core; the test needs some")
	}
}

// TestCancelledRegateKeepsStaleEstimator retrains a LAF-DBSCAN model with
// a Train that cancels the mutation's context and returns gateAll, so the
// re-gate under the new estimator cannot run. The Insert stays applied
// and fails with ErrRetrainFailed; the model keeps its old estimator, its
// staleness, and labels equal to a fresh fit with the old estimator. The
// next Insert, under a live context, retrains and matches a fresh fit
// with gateAll.
func TestCancelledRegateKeepsStaleEstimator(t *testing.T) {
	d := GloVeLike(440, 17)
	base, rest := d.Vectors[:400], d.Vectors[400:]
	old := ExactEstimator(d.Vectors)
	model, err := FitParams(context.Background(), slices.Clone(base), MethodLAFDBSCAN,
		Params{Eps: 0.55, Tau: 4, Alpha: 2, Estimator: old, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	model.SetRetrainPolicy(RetrainPolicy{
		After: 1,
		Train: func(context.Context, [][]float32) (Estimator, error) {
			cancel()
			return gateAll{}, nil
		},
	})
	rep, err := model.Insert(ctx, rest[:20])
	if !errors.Is(err, ErrRetrainFailed) || !errors.Is(err, context.Canceled) {
		t.Fatalf("insert error = %v, want ErrRetrainFailed wrapping context.Canceled", err)
	}
	if rep.Inserted != 20 || rep.Retrained {
		t.Fatalf("report = %+v, want the applied 20-point insert and no retrain", rep)
	}
	if model.Params().Estimator != old {
		t.Fatalf("estimator = %v after the failed re-gate, want the old one", model.Params().Estimator)
	}
	if model.Staleness() != 20 {
		t.Fatalf("staleness = %d after the failed re-gate, want 20", model.Staleness())
	}
	assertMatchesFreshFit(t, model, "after the cancelled re-gate")

	rep, err = model.Insert(context.Background(), rest[20:])
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Retrained || model.Staleness() != 0 {
		t.Fatalf("retrain did not complete: %+v staleness=%d", rep, model.Staleness())
	}
	if _, ok := model.Params().Estimator.(gateAll); !ok {
		t.Fatalf("estimator = %v after the retrain, want gateAll", model.Params().Estimator)
	}
	assertMatchesFreshFit(t, model, "after the retrain")
}

// TestInsertZeroVectorMatchesFreshFit pins a new point's count to its own
// range query. A zero vector is at cosine distance 1 from every point,
// itself included, so at Eps 0.4 its neighborhood is empty: a fresh fit
// at Tau 1 leaves it noise, and so must Insert, which may not count the
// point as its own neighbor unless the query returns it. Tau 2 is the
// control, where the zero vector is noise either way.
func TestInsertZeroVectorMatchesFreshFit(t *testing.T) {
	d := GenerateMixture("inc-zero", MixtureConfig{
		N: 120, Dim: 16, Clusters: 3, MinSpread: 0.15, MaxSpread: 0.3,
		NoiseFrac: 0.2, Seed: 79,
	})
	for _, tau := range []int{1, 2} {
		t.Run(fmt.Sprintf("tau=%d", tau), func(t *testing.T) {
			model, err := Fit(context.Background(), slices.Clone(d.Vectors), MethodDBSCAN, WithEps(0.4), WithTau(tau))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := model.Insert(context.Background(), [][]float32{make([]float32, 16)}); err != nil {
				t.Fatal(err)
			}
			assertMatchesFreshFit(t, model, "after inserting a zero vector")
			if l := model.Labels()[model.Len()-1]; l != Noise {
				t.Fatalf("zero vector label = %d, want noise", l)
			}
		})
	}
}

// maintenanceState copies everything an Insert or Remove may change: the
// model's Save bytes, method, parameters, staleness and index size, the
// fit's kept neighbor facts, and the overlay's facts.
func maintenanceState(t *testing.T, m *Model) []any {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	rows := func(r [][]int32) [][]int32 {
		out := make([][]int32, len(r))
		for i, row := range r {
			out[i] = slices.Clone(row)
		}
		return out
	}
	state := []any{buf.Bytes(), m.method, m.params, m.staleness, m.index, m.index.Len()}
	if f := m.fit; f != nil {
		state = append(state, slices.Clone(f.Pass), rows(f.Rows))
		if f.E != nil {
			state = append(state, slices.Clone(f.E.Stop), rows(f.E.Rows))
		}
	}
	if inc := m.inc; inc != nil {
		state = append(state, slices.Clone(inc.counts), slices.Clone(inc.gated), rows(inc.adj))
		if inc.stop != nil {
			state = append(state, slices.Clone(inc.stop.Stop), rows(inc.stop.Rows))
		}
	}
	return state
}

// TestInsertCancelledAtEveryWave cancels an Insert after each of its query
// waves in turn, through index.WithWaveProgress at WaveSize 4, on a batch
// that promotes existing points: the cuts fall inside phase A, after its
// last wave, and inside phase B, the promoted points' queries. Every
// cancelled call must fail with context.Canceled and leave the model
// bit-identical to its state before the call; the first cut past the last
// wave lets the Insert through, and it matches a fresh fit. Each model is
// cut at a later mutation and at its first: there, a DBSCAN++ model's cuts
// also fall inside the engine pass its overlay comes from, and a model
// that kept its fit's neighbor facts must keep them intact. The points are
// TestInsertMassPromotion's isolated pairs, each promoted by its bridging
// point, plus isolated singletons that LAF-DBSCAN's gate stops.
func TestInsertCancelledAtEveryWave(t *testing.T) {
	const pairs = 12
	var base, bridges [][]float32
	at := func(a float64) []float32 {
		return []float32{float32(math.Cos(a)), float32(math.Sin(a))}
	}
	for i := 0; i < pairs; i++ {
		b := 0.06 * float64(i)
		base = append(base, at(b), at(b+0.012), at(b+0.03))
		bridges = append(bridges, at(b+0.006))
	}
	est := ExactEstimator(append(slices.Clone(base), bridges...))
	engines := []struct {
		name   string
		method Method
		params Params
	}{
		{"dbscan", MethodDBSCAN, Params{Eps: 1e-4, Tau: 3, Workers: 2, WaveSize: 4}},
		{"laf-pp", MethodLAFDBSCAN, Params{Eps: 1e-4, Tau: 3, Alpha: 1, Estimator: est, Seed: 7, Workers: 2, WaveSize: 4}},
		{"dbscan++", MethodDBSCANPP, Params{Eps: 1e-4, Tau: 3, SampleFraction: 0.5, Seed: 7, Workers: 2, WaveSize: 4}},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			for _, first := range []bool{false, true} {
				t.Run(fmt.Sprintf("first=%v", first), func(t *testing.T) {
					cutInsert(t, eng.method, eng.params, base, bridges, first)
				})
			}
		})
	}
}

// cutInsert is one TestInsertCancelledAtEveryWave case: it fits method on
// base and, unless first, inserts bridges[0] so that every cut sees the
// built overlay; then it cuts the Insert of the remaining bridges after
// each wave in turn.
func cutInsert(t *testing.T, method Method, params Params, base, bridges [][]float32, first bool) {
	model, err := FitParams(context.Background(), slices.Clone(base), method, params)
	if err != nil {
		t.Fatal(err)
	}
	if !first {
		if _, err := model.Insert(context.Background(), bridges[:1]); err != nil {
			t.Fatal(err)
		}
		bridges = bridges[1:]
	}
	before := maintenanceState(t, model)
	for cut := 1; ; cut++ {
		ctx, cancel := context.WithCancel(context.Background())
		waves := 0
		ctx = index.WithWaveProgress(ctx, func(int) {
			if waves++; waves == cut {
				cancel()
			}
		})
		rep, err := model.Insert(ctx, bridges)
		cancel()
		if err == nil {
			if rep.Promoted != 2*len(bridges) {
				t.Fatalf("promoted = %d, want %d", rep.Promoted, 2*len(bridges))
			}
			assertMatchesFreshFit(t, model, fmt.Sprintf("after %d cancelled inserts", cut-1))
			return
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cut after wave %d: error = %v, want context.Canceled", cut, err)
		}
		if !reflect.DeepEqual(maintenanceState(t, model), before) {
			t.Fatalf("cut after wave %d of %d: the cancelled insert changed the model", cut, waves)
		}
	}
}
