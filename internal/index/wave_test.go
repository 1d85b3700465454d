package index

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"lafdbscan/internal/vecmath"
)

// collectStream runs a streaming wave call and gathers the per-query
// results (copied — the contract says ids may be recycled after the
// callback returns).
func collectStream(n int, stream func(fn func(i int, ids []int))) [][]int {
	out := make([][]int, n)
	var mu sync.Mutex
	stream(func(i int, ids []int) {
		cp := make([]int, len(ids))
		copy(cp, ids)
		mu.Lock()
		out[i] = cp
		mu.Unlock()
	})
	return out
}

func assertSameIDs(t *testing.T, label string, got, want []int) {
	t.Helper()
	got, want = sortedCopy(got), sortedCopy(want)
	if len(got) != len(want) {
		t.Fatalf("%s: %d ids, want %d", label, len(got), len(want))
	}
	for k := range got {
		if got[k] != want[k] {
			t.Fatalf("%s: ids differ at %d: %d vs %d", label, k, got[k], want[k])
		}
	}
}

// TestBruteForceStreamingMatchesSerial pins brute force's buffer-recycling
// fast path through the wave driver against serial RangeSearch at wave sizes that force buffer
// reuse (wave < number of queries), including one query per wave.
func TestBruteForceStreamingMatchesSerial(t *testing.T) {
	pts := batchTestPoints(300, 16, 11)
	b := NewBruteForce(pts, vecmath.CosineDistanceUnit)
	queries := pts[:60]
	const eps = 0.8
	for _, wave := range []int{0, 1, 7, 60, 1000} {
		got := collectStream(len(queries), func(fn func(int, []int)) {
			BatchRangeSearchFunc(context.Background(), b, queries, eps, 3, 4, wave, fn)
		})
		for i, q := range queries {
			assertSameIDs(t, "brute force", got[i], b.RangeSearch(q, eps))
		}
	}
}

func TestBruteForceStreamingCountsQueries(t *testing.T) {
	pts := batchTestPoints(100, 8, 12)
	b := NewBruteForce(pts, vecmath.CosineDistanceUnit)
	b.ResetQueries()
	BatchRangeSearchFunc(context.Background(), b, pts[:37], 0.5, 2, 4, 8, func(int, []int) {})
	if got := b.Queries(); got != 37 {
		t.Errorf("query counter = %d, want 37", got)
	}
}

// TestBruteForceWarmSingleQueryAllocatesNothing pins the allocation
// profile of the path Predict and Insert take for one vector: once the
// pooled slot-0 buffer has grown, a brute-force query through the wave
// driver allocates nothing.
func TestBruteForceWarmSingleQueryAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	pts := batchTestPoints(2000, 64, 17)
	b := NewBruteForce(pts, vecmath.CosineDistanceUnit)
	hits := 0
	count := func(_ int, ids []int) { hits += len(ids) }
	q := pts[:1]
	run := func() {
		if err := BatchRangeSearchFunc(context.Background(), b, q, 0.9, 1, 0, 0, count); err != nil {
			t.Fatal(err)
		}
	}
	run() // grow the pooled buffer
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("warm single-query BatchRangeSearchFunc: %v allocs/op, want 0", allocs)
	}
	if hits == 0 {
		t.Fatal("no query found a neighbor")
	}
}

// TestGenericStreamingHelperCoverTree exercises the wave driver on an index
// without the brute-force fast path: each CoverTree result comes from its
// own RangeSearch, in one wave and in several.
func TestGenericStreamingHelperCoverTree(t *testing.T) {
	pts := batchTestPoints(200, 8, 13)
	ct := NewCoverTree(pts, vecmath.EuclideanDistance, 2.0)
	queries := pts[:40]
	const eps = 1.0
	for _, run := range []struct{ workers, wave int }{{0, 16}, {1, 16}, {4, 16}, {3, 8}, {2, 64}} {
		got := collectStream(len(queries), func(fn func(int, []int)) {
			BatchRangeSearchFunc(context.Background(), ct, queries, eps, run.workers, 4, run.wave, fn)
		})
		for i, q := range queries {
			assertSameIDs(t, "cover tree", got[i], ct.RangeSearch(q, eps))
		}
	}
}

// gridApprox and kmeansTreeApprox expose the approximate backends'
// per-point queries as a RangeSearcher, so the wave driver can stream them.
type gridApprox struct{ *Grid }

func (g gridApprox) RangeSearch(q []float32, eps float64) []int { return g.ApproxRangeSearch(q, eps) }

type kmeansTreeApprox struct{ *KMeansTree }

func (t kmeansTreeApprox) RangeSearch(q []float32, eps float64) []int {
	ids, dists := t.KNN(q, t.Len())
	cut := 0
	for cut < len(ids) && dists[cut] < eps {
		cut++
	}
	return ids[:cut]
}

// TestGridAndKMeansTreeStreaming pins the approximate backends, streamed
// in several waves, to their serial approximate queries.
func TestGridAndKMeansTreeStreaming(t *testing.T) {
	pts := batchTestPoints(200, 6, 14)
	queries := pts[:25]

	g := gridApprox{NewGrid(pts, 1.0, 0.5)}
	got := collectStream(len(queries), func(fn func(int, []int)) {
		BatchRangeSearchFunc(context.Background(), g, queries, 1.0, 3, 4, 8, fn)
	})
	for i, q := range queries {
		assertSameIDs(t, "grid", got[i], g.RangeSearch(q, 1.0))
	}

	kt := kmeansTreeApprox{NewKMeansTree(pts, vecmath.CosineDistanceUnit, KMeansTreeConfig{Seed: 1, LeavesRatio: 1})}
	got = collectStream(len(queries), func(fn func(int, []int)) {
		BatchRangeSearchFunc(context.Background(), kt, queries, 0.8, 3, 4, 8, fn)
	})
	for i, q := range queries {
		assertSameIDs(t, "kmeans tree", got[i], kt.RangeSearch(q, 0.8))
	}
}

// TestStreamingCancelAbortsWithinOneWave pins the wave engines' cancellation
// contract: a context cancelled mid-wave lets the in-flight wave finish (its
// callbacks all run) and stops at the next wave barrier, so no more than one
// wave of callbacks follows the cancellation. Both the brute-force fast path
// and the plain RangeSearch path are exercised.
func TestStreamingCancelAbortsWithinOneWave(t *testing.T) {
	pts := batchTestPoints(200, 8, 15)
	const wave = 10
	run := func(label string, stream func(ctx context.Context, fn func(int, []int)) error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var calls atomic.Int64
		err := stream(ctx, func(int, []int) {
			if calls.Add(1) == 3 {
				cancel() // mid-first-wave
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", label, err)
		}
		if got := calls.Load(); got > wave {
			t.Errorf("%s: %d callbacks after mid-wave cancel, want <= one wave (%d)", label, got, wave)
		}
	}
	b := NewBruteForce(pts, vecmath.CosineDistanceUnit)
	run("brute force", func(ctx context.Context, fn func(int, []int)) error {
		return BatchRangeSearchFunc(ctx, b, pts, 0.8, 2, 2, wave, fn)
	})
	ct := NewCoverTree(pts, vecmath.EuclideanDistance, 2.0)
	run("generic/cover tree", func(ctx context.Context, fn func(int, []int)) error {
		return BatchRangeSearchFunc(ctx, ct, pts, 1.0, 2, 2, wave, fn)
	})
}

// TestWaveProgressHook checks that WithWaveProgress observes every wave and
// that the reported increments sum to the query count.
func TestWaveProgressHook(t *testing.T) {
	pts := batchTestPoints(100, 8, 16)
	b := NewBruteForce(pts, vecmath.CosineDistanceUnit)
	var total atomic.Int64
	waves := 0
	ctx := WithWaveProgress(context.Background(), func(q int) {
		total.Add(int64(q))
		waves++
	})
	if err := BatchRangeSearchFunc(ctx, b, pts[:37], 0.5, 2, 4, 8, func(int, []int) {}); err != nil {
		t.Fatal(err)
	}
	if total.Load() != 37 {
		t.Errorf("progress total = %d, want 37", total.Load())
	}
	if waves != 5 { // ceil(37/8)
		t.Errorf("progress callbacks = %d, want 5", waves)
	}
}
