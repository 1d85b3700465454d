package index

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// TestBruteForceStreamingMatchesSerial pins brute force's tile path
// through the wave driver against serial RangeSearch at wave sizes that
// force buffer reuse (wave < number of queries), including one query per
// wave.
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

// tileTestSets returns rows and queries that reach every fallback inside a
// tile, at a dimension whose last block is a tail: unit, zero and non-unit
// rows; the same rows with one whose norm is past maxFastNorm, or with a
// NaN one, either of which makes every query with a nonzero norm fall
// back; and unit, zero, non-unit, NaN and past-maxFastNorm queries, which
// fall back lane by lane against the plain rows.
func tileTestSets() (rows, hugeRows, nanRows, queries [][]float32) {
	const dim = 19
	rng := rand.New(rand.NewSource(31))
	rows = batchTestPoints(150, dim, 32)
	for i := 0; i < 10; i++ {
		rows = append(rows, vecmath.Scale(float32(0.25+3*rng.Float64()), vecmath.Clone(rows[i])))
	}
	rows = append(rows, make([]float32, dim), make([]float32, dim))
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	hugeRows = append(slices.Clone(rows), vecmath.Scale(0x1p101, vecmath.Clone(rows[3])))
	nanRow := vecmath.Clone(rows[7])
	nanRow[dim/2] = float32(math.NaN())
	nanRows = append(slices.Clone(rows), nanRow)

	queries = append(queries, rows[:24]...)
	queries = append(queries, make([]float32, dim), vecmath.Scale(2.5, vecmath.Clone(rows[5])))
	nanQ := vecmath.Clone(rows[9])
	nanQ[0] = float32(math.NaN())
	queries = append(queries, nanQ, vecmath.Scale(0x1p100, vecmath.Clone(rows[11])))
	rng.Shuffle(len(queries), func(i, j int) { queries[i], queries[j] = queries[j], queries[i] })
	return rows, hugeRows, nanRows, queries
}

// TestBatchRangeSearchTilesMatchRangeSearch pins the tile path of the wave
// driver to per-query RangeSearch: the same ids in the same ascending
// order, for query counts 1–9 and 4k±1 around the default wave boundary,
// wave sizes 1–5 and the default, and one and two workers, on a cosine
// index whose queries fall back lane by lane, ones where a huge or a NaN
// row makes the queries fall back, and a Euclidean one.
func TestBatchRangeSearchTilesMatchRangeSearch(t *testing.T) {
	rows, hugeRows, nanRows, pool := tileTestSets()
	indexes := []struct {
		name string
		b    *BruteForce
		eps  float64
	}{
		{"cosine", NewBruteForce(rows, vecmath.CosineDistanceUnit), 0.6},
		{"cosine with a huge row", NewBruteForce(hugeRows, vecmath.CosineDistanceUnit), 0.6},
		{"cosine with a NaN row", NewBruteForce(nanRows, vecmath.CosineDistanceUnit), 0.6},
		{"euclidean", NewBruteForce(rows, vecmath.EuclideanDistance), 1.1},
	}
	counts := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, DefaultWaveSize - 1, DefaultWaveSize + 1}
	queries := make([][]float32, DefaultWaveSize+1)
	for i := range queries {
		queries[i] = pool[i%len(pool)]
	}
	for _, ix := range indexes {
		want := make([][]int, len(pool))
		for i, q := range pool {
			want[i] = ix.b.RangeSearch(q, ix.eps)
		}
		for _, n := range counts {
			for _, wave := range []int{1, 2, 3, 4, 5, 0} {
				for _, workers := range []int{1, 2} {
					calls := 0
					var mu sync.Mutex
					got := collectStream(n, func(fn func(int, []int)) {
						err := BatchRangeSearchFunc(context.Background(), ix.b, queries[:n], ix.eps, workers, 0, wave,
							func(i int, ids []int) {
								mu.Lock()
								calls++
								mu.Unlock()
								fn(i, ids)
							})
						if err != nil {
							t.Fatal(err)
						}
					})
					if calls != n {
						t.Fatalf("%s, %d queries, wave %d, workers %d: %d callbacks", ix.name, n, wave, workers, calls)
					}
					for i := range got {
						if w := want[i%len(pool)]; !slices.Equal(got[i], w) {
							t.Fatalf("%s, %d queries, wave %d, workers %d, query %d: %v, RangeSearch %v",
								ix.name, n, wave, workers, i, got[i], w)
						}
					}
				}
			}
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
// wave of callbacks follows the cancellation. Both the brute-force tile
// path and the plain RangeSearch path are exercised.
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

// selfJoinTestPoints returns 1025 rows at a dimension whose last block is
// a tail: clustered unit rows, so the queries share many pairs, random
// unit rows, non-unit and zero rows, shuffled.
func selfJoinTestPoints() [][]float32 {
	const dim = 19
	rng := rand.New(rand.NewSource(41))
	rows := append(clusteredPoints(600, dim, 42), batchTestPoints(400, dim, 43)...)
	for i := 0; i < 20; i++ {
		rows = append(rows, vecmath.Scale(float32(0.25+3*rng.Float64()), vecmath.Clone(rows[i])))
	}
	for len(rows) < DefaultWaveSize+1 {
		rows = append(rows, make([]float32, dim))
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return rows
}

// selfJoinQueries returns the query id sets the self-join tests run for n
// points: every point, an ascending subset and a rng.Perm order.
func selfJoinQueries(n int, rng *rand.Rand) map[string][]int {
	var subset []int
	for id := 0; id < n; id++ {
		if id%3 != 1 {
			subset = append(subset, id)
		}
	}
	return map[string][]int{
		"every point": nil,
		"subset":      subset,
		"perm":        rng.Perm(n)[:max(1, n*2/3)],
	}
}

// TestBatchSelfSearchMatchesBatchRangeSearch pins the self-join to the
// query path list by list: each query gets the ids BatchRangeSearchFunc
// gives it for the same vector, in the same ascending order, for every
// point, an ascending subset and a rng.Perm order of queries, point counts
// 1–9 and 4k±1 around the default wave boundary, wave sizes 1, 3, 4, 5 and
// the default, and one and two workers, on plain rows and on rows where a
// NaN or a past-2¹⁰⁰ row sends pairs to CosineDistanceUnit. -short runs
// the large counts at waves 4 and the default only.
func TestBatchSelfSearchMatchesBatchRangeSearch(t *testing.T) {
	pool := selfJoinTestPoints()
	nanRow := vecmath.Clone(pool[7])
	nanRow[3] = float32(math.NaN())
	hugeRow := vecmath.Scale(0x1p101, vecmath.Clone(pool[11]))
	rng := rand.New(rand.NewSource(44))
	const eps = 0.6
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, DefaultWaveSize - 1, DefaultWaveSize + 1} {
		for _, special := range []struct {
			name string
			row  []float32
		}{{"plain", nil}, {"NaN row", nanRow}, {"huge row", hugeRow}} {
			points := slices.Clone(pool[:n])
			if special.row != nil {
				points[n/2] = special.row
			}
			b := NewBruteForce(points, vecmath.CosineDistanceUnit)
			for qname, qids := range selfJoinQueries(n, rng) {
				if w := selfJoin(b, points, qids); w == nil {
					t.Fatalf("%d points, %s, %s: the self-join was not taken", n, special.name, qname)
				} else {
					w.release()
				}
				queries := points
				if qids != nil {
					queries = make([][]float32, len(qids))
					for i, id := range qids {
						queries[i] = points[id]
					}
				}
				want := collectStream(len(queries), func(fn func(int, []int)) {
					if err := BatchRangeSearchFunc(context.Background(), b, queries, eps, 1, 0, 0, fn); err != nil {
						t.Fatal(err)
					}
				})
				for _, wave := range []int{1, 3, 4, 5, 0} {
					if testing.Short() && n > 9 && wave != 4 && wave != 0 {
						continue
					}
					for _, workers := range []int{1, 2} {
						label := fmt.Sprintf("%d points, %s, %s, wave %d, workers %d", n, special.name, qname, wave, workers)
						checkSelfSearch(t, label, b, points, qids, eps, workers, wave, want)
					}
				}
			}
		}
	}
}

// checkSelfSearch runs BatchSelfSearchFunc and compares every list with
// want, in order, and the callback count with the query count.
func checkSelfSearch(t *testing.T, label string, s RangeSearcher, points [][]float32, qids []int, eps float64, workers, wave int, want [][]int) {
	t.Helper()
	var calls atomic.Int64
	got := collectStream(len(want), func(fn func(int, []int)) {
		err := BatchSelfSearchFunc(context.Background(), s, points, qids, eps, workers, 0, wave,
			func(i int, ids []int) {
				calls.Add(1)
				fn(i, ids)
			})
		if err != nil {
			t.Fatal(err)
		}
	})
	if int(calls.Load()) != len(want) {
		t.Fatalf("%s: %d callbacks, want %d", label, calls.Load(), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s, query %d: %v, BatchRangeSearchFunc %v", label, i, got[i], want[i])
		}
	}
}

// TestBatchSelfSearchQueryPath pins which calls self-join: an index over
// the same row slices does, even through a copy of the outer slice, while
// an index over a copy of the rows or over fewer of them, one under
// another distance, a cover tree and a query set that repeats an id take
// the query path. Every list is BatchRangeSearchFunc's, in its order.
func TestBatchSelfSearchQueryPath(t *testing.T) {
	points := selfJoinTestPoints()[:300]
	copied := make([][]float32, len(points))
	for i, p := range points {
		copied[i] = vecmath.Clone(p)
	}
	rng := rand.New(rand.NewSource(45))
	cases := []struct {
		name string
		s    RangeSearcher
		eps  float64
		qids []int
		join bool
	}{
		{"same rows", NewBruteForce(points, vecmath.CosineDistanceUnit), 0.6, nil, true},
		{"outer slice copied", NewBruteForce(slices.Clone(points), vecmath.CosineDistanceUnit), 0.6, rng.Perm(len(points)), true},
		{"rows copied", NewBruteForce(copied, vecmath.CosineDistanceUnit), 0.6, nil, false},
		{"euclidean", NewBruteForce(points, vecmath.EuclideanDistance), 1.1, nil, false},
		{"cover tree", NewCoverTree(points, vecmath.EuclideanDistance, 2.0), 1.1, nil, false},
		{"repeated id", NewBruteForce(points, vecmath.CosineDistanceUnit), 0.6, []int{5, 9, 5, 2}, false},
		{"fewer rows", NewBruteForce(points[:299], vecmath.CosineDistanceUnit), 0.6, []int{0, 1, 2}, false},
	}
	for _, c := range cases {
		w := selfJoin(c.s, points, c.qids)
		if (w != nil) != c.join {
			t.Fatalf("%s: self-join taken %v, want %v", c.name, w != nil, c.join)
		}
		if w != nil {
			w.release()
		}
		queries := points
		if c.qids != nil {
			queries = make([][]float32, len(c.qids))
			for i, id := range c.qids {
				queries[i] = points[id]
			}
		}
		want := collectStream(len(queries), func(fn func(int, []int)) {
			if err := BatchRangeSearchFunc(context.Background(), c.s, queries, c.eps, 1, 0, 0, fn); err != nil {
				t.Fatal(err)
			}
		})
		checkSelfSearch(t, c.name, c.s, points, c.qids, c.eps, 2, 7, want)
	}
}

// TestBatchSelfSearchCancelAtEveryBarrier cancels a self-join during each
// wave in turn: the call returns context.Canceled once that wave has
// delivered, and no callback runs past its barrier. It also checks that
// the progress hook's counts sum to the query count of a whole call.
func TestBatchSelfSearchCancelAtEveryBarrier(t *testing.T) {
	points := selfJoinTestPoints()[:150]
	b := NewBruteForce(points, vecmath.CosineDistanceUnit)
	qids := rand.New(rand.NewSource(46)).Perm(len(points))[:37]
	const wave = 8
	waves := (len(qids) + wave - 1) / wave
	for stop := 0; stop < waves; stop++ {
		ctx, cancel := context.WithCancel(context.Background())
		var calls, late atomic.Int64
		err := BatchSelfSearchFunc(ctx, b, points, qids, 0.6, 2, 0, wave, func(i int, _ []int) {
			calls.Add(1)
			if i/wave > stop {
				late.Add(1)
			}
			if i/wave == stop {
				cancel()
			}
		})
		cancel()
		if stop == waves-1 {
			if err != nil {
				t.Fatalf("cancelled in the last wave: err = %v, want nil", err)
			}
		} else if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled in wave %d: err = %v, want context.Canceled", stop, err)
		}
		if want := min((stop+1)*wave, len(qids)); calls.Load() != int64(want) || late.Load() != 0 {
			t.Fatalf("cancelled in wave %d: %d callbacks, %d past the barrier; want %d and 0", stop, calls.Load(), late.Load(), want)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := BatchSelfSearchFunc(ctx, b, points, qids, 0.6, 2, 0, wave, func(int, []int) {
		t.Fatal("callback ran under a context cancelled before the call")
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled before the call: err = %v, want context.Canceled", err)
	}

	var total, reports atomic.Int64
	ctx = WithWaveProgress(context.Background(), func(q int) {
		total.Add(int64(q))
		reports.Add(1)
	})
	b.ResetQueries()
	if err := BatchSelfSearchFunc(ctx, b, points, qids, 0.6, 2, 0, wave, func(int, []int) {}); err != nil {
		t.Fatal(err)
	}
	if total.Load() != int64(len(qids)) || reports.Load() != int64(waves) {
		t.Errorf("progress: %d queries in %d reports, want %d in %d", total.Load(), reports.Load(), len(qids), waves)
	}
	if got := b.Queries(); got != int64(len(qids)) {
		t.Errorf("query counter = %d, want %d", got, len(qids))
	}
}
