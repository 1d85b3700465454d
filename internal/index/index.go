package index

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"lafdbscan/internal/vecmath"
)

// RangeSearcher answers radius queries over an indexed point set. Queries
// must be safe for concurrent use: BatchRangeSearchFunc runs many at once.
type RangeSearcher interface {
	// RangeSearch returns the ids of all indexed points p with
	// d(q, p) < eps, in unspecified order.
	RangeSearch(q []float32, eps float64) []int
	// RangeCount returns len(RangeSearch(q, eps)) without materializing
	// the result.
	RangeCount(q []float32, eps float64) int
	// Len returns the number of indexed points.
	Len() int
}

// KNNSearcher answers k-nearest-neighbor queries.
type KNNSearcher interface {
	// KNN returns up to k ids sorted by increasing distance, and the
	// corresponding distances.
	KNN(q []float32, k int) ([]int, []float64)
}

// BruteForce scans every indexed point. It parallelizes large scans across
// GOMAXPROCS workers, which is the configuration all methods share in the
// benchmark harness so that relative timings stay meaningful.
//
// Every scan goes through scan. With vecmath.CosineDistanceUnit as its
// distance that is the float32 kernel vecmath.AppendCosineUnitRange, whose
// decisions equal the per-pair loop's; any other distance keeps the
// per-pair loop.
type BruteForce struct {
	points   [][]float32
	dist     vecmath.DistanceFunc
	unitCos  bool    // dist is vecmath.CosineDistanceUnit
	maxNorm  float64 // ≥ every point's norm when unitCos; NaN or +Inf after a non-finite point
	parallel bool
	queries  atomic.Int64
}

// NewBruteForce indexes points with the given distance. The points slice is
// retained, not copied.
func NewBruteForce(points [][]float32, dist vecmath.DistanceFunc) *BruteForce {
	b := &BruteForce{points: points, dist: dist, parallel: true}
	b.unitCos = vecmath.IsCosineUnit(dist)
	b.growMaxNorm(points)
	return b
}

// growMaxNorm raises maxNorm to cover vecs. Deletions never lower it: a
// stale, larger value only loosens the kernel's error bound.
func (b *BruteForce) growMaxNorm(vecs [][]float32) {
	if !b.unitCos {
		return
	}
	for _, v := range vecs {
		if n := vecmath.Norm(v); n > b.maxNorm || math.IsNaN(n) {
			b.maxNorm = n
		}
	}
}

// scan appends to dst the ids in [lo, hi) of the points within eps of q,
// in increasing order. It is the one scan loop of every BruteForce query
// path.
func (b *BruteForce) scan(dst []int, q []float32, eps float64, lo, hi int) []int {
	if b.unitCos {
		start := len(dst)
		dst = vecmath.AppendCosineUnitRange(dst, q, b.points[lo:hi], eps, b.maxNorm)
		for i := start; lo != 0 && i < len(dst); i++ {
			dst[i] += lo
		}
		return dst
	}
	for i := lo; i < hi; i++ {
		if b.dist(q, b.points[i]) < eps {
			dst = append(dst, i)
		}
	}
	return dst
}

// SetParallel toggles multi-goroutine scans (on by default). Tests use the
// serial path for determinism-sensitive assertions.
func (b *BruteForce) SetParallel(p bool) { b.parallel = p }

// Len returns the number of indexed points.
func (b *BruteForce) Len() int { return len(b.points) }

// Queries returns the number of range queries executed so far. LAF's whole
// point is reducing this number; the experiment harness reports it.
func (b *BruteForce) Queries() int64 { return b.queries.Load() }

// ResetQueries zeroes the query counter.
func (b *BruteForce) ResetQueries() { b.queries.Store(0) }

const parallelThreshold = 1 << 17 // ~point-dims per shard worth spawning for

// shards returns how many goroutines a scan of q is split across: 1, the
// calling goroutine, for a serial index or a small scan, else GOMAXPROCS.
func (b *BruteForce) shards(q []float32) int {
	workers := runtime.GOMAXPROCS(0)
	if !b.parallel || workers == 1 || len(b.points)*len(q) < parallelThreshold {
		return 1
	}
	return workers
}

// scanShards scans the points in workers contiguous id ranges, one
// goroutine each: range w's ids go to ids[w], or, with ids nil, only their
// number to counts[w].
func (b *BruteForce) scanShards(q []float32, eps float64, workers int, ids [][]int, counts []int) {
	n := len(b.points)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			if ids != nil {
				ids[w] = b.scan(nil, q, eps, lo, hi)
			} else {
				counts[w] = b.count(q, eps, lo, hi)
			}
		}(w, lo, min(lo+chunk, n))
	}
	wg.Wait()
}

// RangeSearch implements RangeSearcher.
func (b *BruteForce) RangeSearch(q []float32, eps float64) []int {
	b.queries.Add(1)
	workers := b.shards(q)
	if workers == 1 {
		return b.scan(nil, q, eps, 0, len(b.points))
	}
	parts := make([][]int, workers)
	b.scanShards(q, eps, workers, parts, nil)
	var out []int
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// appendRangeSearch is BruteForce's wave-driver fast path: one serial scan
// appended to the slot's reused buffer. The wave pool already runs queries
// in parallel, so the per-query sharding of RangeSearch would only nest
// goroutines under it.
func (b *BruteForce) appendRangeSearch(dst []int, q []float32, eps float64) []int {
	b.queries.Add(1)
	return b.scan(dst, q, eps, 0, len(b.points))
}

// count returns the number of points in [lo, hi) within eps of q. It
// scans in blocks no longer than its stack buffer, so the ids never
// outgrow it and counting allocates nothing.
func (b *BruteForce) count(q []float32, eps float64, lo, hi int) int {
	var buf [256]int
	c := 0
	for ; lo < hi; lo += len(buf) {
		c += len(b.scan(buf[:0], q, eps, lo, min(lo+len(buf), hi)))
	}
	return c
}

// RangeCount implements RangeSearcher.
func (b *BruteForce) RangeCount(q []float32, eps float64) int {
	b.queries.Add(1)
	workers := b.shards(q)
	if workers == 1 {
		return b.count(q, eps, 0, len(b.points))
	}
	counts := make([]int, workers)
	b.scanShards(q, eps, workers, nil, counts)
	total := 0
	for _, c := range counts {
		total += c
	}
	return total
}

var _ RangeSearcher = (*BruteForce)(nil)
