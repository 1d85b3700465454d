package core

import (
	"fmt"
	"runtime"
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

// TestParallelLAFDBSCANMatchesSequential pins the parallel engine to the
// sequential reference with post-processing disabled: labels must be
// identical at every worker count (the engines only diverge through the
// partial-neighbor map, which post-processing consumes).
func TestParallelLAFDBSCANMatchesSequential(t *testing.T) {
	d, est := parallelLAFData(t)
	base := Config{
		Eps: 0.5, Tau: 4, Alpha: 1.3, Estimator: est, Seed: 3,
		DisablePostProcessing: true,
	}
	seq, err := (&LAFDBSCAN{Points: d.Vectors, Config: base}).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{-1, 1, 4, runtime.NumCPU()} {
		cfg := base
		cfg.Workers = workers
		cfg.BatchSize = 8
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
// parallel pipeline (post-processing enabled) is deterministic across
// worker counts: the complete partial-neighbor map is order-free, so every
// pool size must yield the same labeling and merge count.
func TestParallelLAFDBSCANPostProcessingDeterministic(t *testing.T) {
	d, est := parallelLAFData(t)
	var ref *cluster.Result
	for _, workers := range []int{1, 3, runtime.NumCPU()} {
		res, err := (&LAFDBSCAN{Points: d.Vectors, Config: Config{
			Eps: 0.5, Tau: 4, Alpha: 1.3, Estimator: est, Seed: 3,
			Workers: workers, BatchSize: 8,
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
	// Quality sanity: the parallel LAF path at alpha near 1 must stay close
	// to exact DBSCAN on the same data (the paper's whole premise).
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
		t.Errorf("parallel LAF-DBSCAN ARI vs DBSCAN = %v", ari)
	}
}

// TestParallelLAFDBSCANPPMatchesSequential pins LAF-DBSCAN++'s parallel
// engine to the sequential one: same seed selects the same sample, and with
// post-processing disabled the labels must be identical.
func TestParallelLAFDBSCANPPMatchesSequential(t *testing.T) {
	d, est := parallelLAFData(t)
	base := Config{
		Eps: 0.5, Tau: 4, Alpha: 1.0, Estimator: est, Seed: 5,
		DisablePostProcessing: true,
	}
	seq, err := (&LAFDBSCANPP{Points: d.Vectors, P: 0.5, Config: base}).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
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
// soundness check on the parallel path: with an exact estimator and
// alpha = 1, LAF skips only true non-core points, so the labeling must
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
