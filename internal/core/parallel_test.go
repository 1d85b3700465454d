package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"lafdbscan/internal/cardest"
	"lafdbscan/internal/cluster"
	"lafdbscan/internal/dataset"
	"lafdbscan/internal/index"
	"lafdbscan/internal/metrics"
	"lafdbscan/internal/vecmath"
)

func parallelLAFData(t *testing.T) (*dataset.Dataset, cardest.Estimator) {
	t.Helper()
	d := dataset.GloVeLike(400, 17)
	idx := index.NewBruteForce(d.Vectors, vecmath.CosineDistanceUnit)
	return d, &cardest.Exact{Index: idx}
}

// TestParallelLAFDBSCANMatchesSequential pins the wave engine to the
// reference traversal with post-processing disabled: labels must be
// identical at every worker count.
func TestParallelLAFDBSCANMatchesSequential(t *testing.T) {
	d, est := parallelLAFData(t)
	base := Config{
		Eps: 0.5, Tau: 4, Alpha: 1.3, Estimator: est, Seed: 3,
		DisablePostProcessing: true,
	}
	seq, err := referenceLAFDBSCAN(&LAFDBSCAN{Points: d.Vectors, Config: base})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{-1, 0, 1, 4, runtime.NumCPU()} {
		cfg := base
		cfg.Workers = workers
		par, err := (&LAFDBSCAN{Points: d.Vectors, Config: cfg}).Run()
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("workers=%d", workers)
		if par.RangeQueries != seq.RangeQueries || par.SkippedQueries != seq.SkippedQueries {
			t.Errorf("%s: queries %d/%d skipped, sequential %d/%d",
				name, par.RangeQueries, par.SkippedQueries, seq.RangeQueries, seq.SkippedQueries)
		}
		for i := range seq.Labels {
			if par.Labels[i] != seq.Labels[i] {
				t.Fatalf("%s: label[%d] = %d, sequential %d", name, i, par.Labels[i], seq.Labels[i])
			}
		}
	}
}

// TestParallelLAFDBSCANPostProcessingDeterministic asserts the full
// pipeline (post-processing enabled) is deterministic across worker
// counts: the complete partial-neighbor map is order-free, so every pool
// size must yield the same labeling and merge count.
func TestParallelLAFDBSCANPostProcessingDeterministic(t *testing.T) {
	d, est := parallelLAFData(t)
	var ref *cluster.Result
	for _, workers := range []int{0, 1, 3, runtime.NumCPU()} {
		res, err := (&LAFDBSCAN{Points: d.Vectors, Config: Config{
			Eps: 0.5, Tau: 4, Alpha: 1.3, Estimator: est, Seed: 3,
			Workers: workers,
		}}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.PostMerges != ref.PostMerges {
			t.Errorf("workers=%d: %d merges, want %d", workers, res.PostMerges, ref.PostMerges)
		}
		for i := range ref.Labels {
			if res.Labels[i] != ref.Labels[i] {
				t.Fatalf("workers=%d: label[%d] differs", workers, i)
			}
		}
	}
	// Quality sanity: LAF at alpha near 1 must stay close to exact DBSCAN
	// on the same data (the paper's whole premise).
	cfg := openGateConfig(0.5, 4)
	cfg.Workers = 2
	truth, err := (&LAFDBSCAN{Points: d.Vectors, Config: cfg}).Run()
	if err != nil {
		t.Fatal(err)
	}
	ari, err := metrics.ARI(truth.Labels, ref.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.85 {
		t.Errorf("LAF-DBSCAN ARI vs DBSCAN = %v", ari)
	}
}

// TestParallelLAFDBSCANPPMatchesSequential pins LAF-DBSCAN++'s wave engine
// to the reference: same seed selects the same sample, and with
// post-processing disabled the labels must be identical.
func TestParallelLAFDBSCANPPMatchesSequential(t *testing.T) {
	d, est := parallelLAFData(t)
	base := Config{
		Eps: 0.5, Tau: 4, Alpha: 1.0, Estimator: est, Seed: 5,
		DisablePostProcessing: true,
	}
	seq, err := referenceLAFDBSCANPP(&LAFDBSCANPP{Points: d.Vectors, P: 0.5, Config: base})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 4} {
		cfg := base
		cfg.Workers = workers
		par, err := (&LAFDBSCANPP{Points: d.Vectors, P: 0.5, Config: cfg}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if par.RangeQueries != seq.RangeQueries || par.SkippedQueries != seq.SkippedQueries {
			t.Errorf("workers=%d: query accounting differs", workers)
		}
		for i := range seq.Labels {
			if par.Labels[i] != seq.Labels[i] {
				t.Fatalf("workers=%d: label[%d] = %d, sequential %d", workers, i, par.Labels[i], seq.Labels[i])
			}
		}
	}
}

// TestParallelLAFDBSCANExactOracleMatchesDBSCAN repeats the package's core
// soundness check on an explicit all-cores pool: with an exact estimator
// and alpha = 1, LAF skips only true non-core points, so the labeling must
// reproduce exact DBSCAN.
func TestParallelLAFDBSCANExactOracleMatchesDBSCAN(t *testing.T) {
	d, est := parallelLAFData(t)
	truth := dbscanTruth(t, d.Vectors, 0.5, 4)
	res, err := (&LAFDBSCAN{Points: d.Vectors, Config: Config{
		Eps: 0.5, Tau: 4, Alpha: 1.0, Estimator: est, Seed: 1, Workers: -1,
	}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	ari, err := metrics.ARI(truth.Labels, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if ari != 1.0 {
		t.Errorf("ARI = %v, want 1.0 with exact oracle at alpha=1", ari)
	}
}

// TestParallelPartialNeighborsComplete pins the map the engines build
// to its definition: every predicted stop point has an entry, and its row
// is exactly the set of gated points within eps of it, found here by
// brute force; no other point has an entry.
func TestParallelPartialNeighborsComplete(t *testing.T) {
	d, est := parallelLAFData(t)
	cfg := Config{Eps: 0.5, Tau: 4, Alpha: 1.3, Estimator: est, Workers: 4, WaveSize: 7}
	n := d.Len()
	res := &cluster.Result{}
	_, e, err := discover(context.Background(), index.NewBruteForce(d.Vectors, vecmath.CosineDistanceUnit),
		d.Vectors, nil, cfg, cluster.NewWaveMerger(n, cfg.Tau, true), nil, res)
	if err != nil {
		t.Fatal(err)
	}
	if e == nil {
		t.Fatal("no point was gated out; the test needs stop points")
	}
	gated, _ := Gate(context.Background(), d.Vectors, cfg)
	stops := 0
	for p := 0; p < n; p++ {
		if e.Stop[p] == gated[p] {
			t.Fatalf("point %d: entry %v, gated %v", p, e.Stop[p], gated[p])
		}
		if gated[p] {
			if e.Rows[p] != nil {
				t.Fatalf("gated point %d has a row", p)
			}
			continue
		}
		stops++
		var want []int32
		for q := 0; q < n; q++ {
			if gated[q] && vecmath.CosineDistanceUnit(d.Vectors[p], d.Vectors[q]) < cfg.Eps {
				want = append(want, int32(q))
			}
		}
		got := slices.Clone(e.Rows[p])
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("stop point %d: row %v, want %v", p, got, want)
		}
	}
	if stops == 0 || stops != res.SkippedQueries {
		t.Fatalf("%d stop points, %d skipped queries", stops, res.SkippedQueries)
	}
}

// cancelAfter is an estimator that cancels a context on its after-th
// estimate and counts every estimate it is asked for.
type cancelAfter struct {
	cardest.Estimator
	after  int64
	cancel context.CancelFunc
	calls  atomic.Int64
}

func (c *cancelAfter) Estimate(q []float32, eps float64) float64 {
	if c.calls.Add(1) == c.after {
		c.cancel()
	}
	return c.Estimator.Estimate(q, eps)
}

// TestCancelDuringGate cancels default-Workers LAF fits with the exact
// oracle as estimator, before the fit and during its gate: both return
// the context's error, a pre-cancelled fit runs no estimate, and a fit
// cancelled mid-gate stops gating within a few chunks instead of running
// the gate over every point.
func TestCancelDuringGate(t *testing.T) {
	d, exact := parallelLAFData(t)
	n := int64(len(d.Vectors))
	for _, after := range []int64{0, 10} {
		ctx, cancel := context.WithCancel(context.Background())
		est := &cancelAfter{Estimator: exact, after: after, cancel: cancel}
		if after == 0 {
			cancel()
		}
		l := &LAFDBSCAN{Points: d.Vectors, Config: Config{Eps: 0.35, Tau: 4, Alpha: 2, Estimator: est}}
		if _, err := l.RunContext(ctx); err != context.Canceled {
			t.Fatalf("cancel after %d estimates: err %v, want context.Canceled", after, err)
		}
		cancel()
		// Each worker may finish its current chunk of defaultGrain points
		// up to the next check.
		limit := after + int64(runtime.GOMAXPROCS(0))*cluster.CtxCheckEvery
		if after == 0 {
			limit = 0
		}
		if got := est.calls.Load(); got > limit || got >= n {
			t.Fatalf("cancel after %d estimates: %d of %d estimates ran, want at most %d", after, got, n, limit)
		}
	}
}
