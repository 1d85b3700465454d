package index

import (
	"math"
	"sync/atomic"

	"lafdbscan/internal/vecmath"
)

// RangeSearcher answers radius queries over an indexed point set. Queries
// must be safe for concurrent use: BatchRangeSearchFunc runs many at once.
type RangeSearcher interface {
	// RangeSearch returns the ids of all indexed points p with
	// d(q, p) < eps, in unspecified order.
	RangeSearch(q []float32, eps float64) []int
	// Len returns the number of indexed points.
	Len() int
}

// BruteForce scans every indexed point, one tile of queries on one
// goroutine. The engines run many queries at once through
// BatchRangeSearchFunc's worker pool, the one way a scan uses several
// cores.
//
// Every query goes through scanTile. With vecmath.CosineDistanceUnit as
// its distance, a tile of four queries scores each row against all four
// with one kernel call (vecmath.AppendCosineUnitRange4) and a smaller tile
// scores each query against four rows per call
// (vecmath.AppendCosineUnitRange); both decide exactly as the per-pair
// loop does. Any other distance keeps the per-pair loop.
type BruteForce struct {
	points  [][]float32
	dist    vecmath.DistanceFunc
	unitCos bool    // dist is vecmath.CosineDistanceUnit
	maxNorm float64 // ≥ every point's norm when unitCos; NaN or +Inf after a non-finite point
	queries atomic.Int64
}

// NewBruteForce indexes points with the given distance. The points slice is
// retained, not copied.
func NewBruteForce(points [][]float32, dist vecmath.DistanceFunc) *BruteForce {
	b := &BruteForce{points: points, dist: dist}
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

// tileSize is the number of queries one scanTile call scores against each
// row: the lanes of the vecmath tile kernel.
const tileSize = 4

// scanTile answers a tile of one to tileSize queries: dst[k] is reset and
// gets the ids of the points within eps of qs[k], in increasing order. It
// is BruteForce's one wave path.
//
//lafvet:hotpath
func (b *BruteForce) scanTile(dst [][]int, qs [][]float32, eps float64) {
	b.queries.Add(int64(len(qs)))
	if b.unitCos && len(qs) == tileSize {
		d := (*[tileSize][]int)(dst)
		for k := range d {
			d[k] = d[k][:0]
		}
		vecmath.AppendCosineUnitRange4(d, (*[tileSize][]float32)(qs), b.points, eps, b.maxNorm)
		return
	}
	for k, q := range qs {
		dst[k] = b.scan(dst[k][:0], q, eps, 0, len(b.points))
	}
}

// scan appends to dst the ids in [lo, hi) of the points within eps of q,
// in increasing order: the scan of one query.
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

// Measures reports whether the index answers under dist itself: then its
// range queries decide exactly what a new BruteForce with dist would.
func (b *BruteForce) Measures(dist vecmath.DistanceFunc) bool {
	return vecmath.SameDistance(b.dist, dist)
}

// Len returns the number of indexed points.
func (b *BruteForce) Len() int { return len(b.points) }

// Queries returns the number of range queries executed so far. LAF's whole
// point is reducing this number; the experiment harness reports it.
func (b *BruteForce) Queries() int64 { return b.queries.Load() }

// ResetQueries zeroes the query counter.
func (b *BruteForce) ResetQueries() { b.queries.Store(0) }

// RangeSearch implements RangeSearcher.
func (b *BruteForce) RangeSearch(q []float32, eps float64) []int {
	b.queries.Add(1)
	return b.scan(nil, q, eps, 0, len(b.points))
}

// RangeCount returns len(RangeSearch(q, eps)) without materializing the
// ids. The exact cardinality estimator counts through it. It scans in
// blocks no longer than its stack buffer, so the ids never outgrow it and
// counting allocates nothing.
func (b *BruteForce) RangeCount(q []float32, eps float64) int {
	b.queries.Add(1)
	var buf [256]int
	n, c := len(b.points), 0
	for lo := 0; lo < n; lo += len(buf) {
		c += len(b.scan(buf[:0], q, eps, lo, min(lo+len(buf), n)))
	}
	return c
}

var _ RangeSearcher = (*BruteForce)(nil)
