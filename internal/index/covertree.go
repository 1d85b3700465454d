package index

import (
	"math"

	"lafdbscan/internal/vecmath"
)

// CoverTree is an insertion-built cover tree (Beygelzimer, Kakade & Langford
// 2006, in the simplified formulation of Izbicki & Shelton 2015) supporting
// exact range queries under any true metric. BLOCK-DBSCAN uses it with the
// Euclidean metric on unit-normalized vectors; the cosine threshold is
// converted via Equation 1 of the paper. Cosine distance 1 − cos is not a
// metric: it breaks the triangle inequality the pruning relies on, so the
// tree is not exact under it.
//
// Base is the expansion constant of the level radii (the paper's
// "basis of the cover tree", default 2.0, swept 1.1–5 in the trade-off
// experiments). Smaller bases build deeper trees with tighter covers
// (slower build, faster queries); larger bases do the opposite.
type CoverTree struct {
	points [][]float32
	dist   vecmath.DistanceFunc
	base   float64
	root   *ctNode
	size   int
}

type ctNode struct {
	idx      int
	level    int
	maxDist  float64 // distance to the farthest descendant (0 for leaves)
	children []*ctNode
}

// NewCoverTree builds a cover tree over points with the given metric
// distance and base. It panics if base <= 1.
func NewCoverTree(points [][]float32, dist vecmath.DistanceFunc, base float64) *CoverTree {
	if base <= 1 {
		panic("index: cover tree base must be > 1")
	}
	t := &CoverTree{points: points, dist: dist, base: base}
	for i := range points {
		t.insert(i)
	}
	return t
}

// Len returns the number of indexed points.
func (t *CoverTree) Len() int { return t.size }

func (t *CoverTree) covDist(n *ctNode) float64 {
	return math.Pow(t.base, float64(n.level))
}

func (t *CoverTree) d(i, j int) float64 { return t.dist(t.points[i], t.points[j]) }

func (t *CoverTree) insert(idx int) {
	t.size++
	if t.root == nil {
		t.root = &ctNode{idx: idx, level: 0}
		return
	}
	d := t.d(t.root.idx, idx)
	if d > t.covDist(t.root) {
		// The new point does not fit under the root: raise the root level
		// until it covers the new point, then make the new point the root's
		// sibling under a fresh top. Raising by re-rooting on the new point
		// keeps the invariant "children within covDist(parent)".
		for d > t.covDist(t.root)*t.base {
			t.raiseRoot()
		}
		newRoot := &ctNode{idx: idx, level: t.root.level + 1}
		newRoot.children = []*ctNode{t.root}
		newRoot.maxDist = d + t.root.maxDist
		t.root = newRoot
		return
	}
	t.insertInto(t.root, idx, d)
}

// raiseRoot increases the root level by one, keeping the same root point.
func (t *CoverTree) raiseRoot() {
	t.root.level++
}

// insertInto inserts idx somewhere under n; dn is d(n.point, idx) and the
// caller guarantees dn <= covDist(n).
func (t *CoverTree) insertInto(n *ctNode, idx int, dn float64) {
	if dn > n.maxDist {
		n.maxDist = dn
	}
	for _, c := range n.children {
		dc := t.d(c.idx, idx)
		if dc <= t.covDist(c) {
			t.insertInto(c, idx, dc)
			return
		}
	}
	n.children = append(n.children, &ctNode{idx: idx, level: n.level - 1})
}

// RangeSearch implements RangeSearcher.
func (t *CoverTree) RangeSearch(q []float32, eps float64) []int {
	if t.root == nil {
		return nil
	}
	var out []int
	var walk func(n *ctNode, dn float64)
	walk = func(n *ctNode, dn float64) {
		if dn < eps {
			out = append(out, n.idx)
		}
		for _, c := range n.children {
			dc := t.dist(q, t.points[c.idx])
			// Any descendant of c lies within c.maxDist of c, so the
			// triangle inequality prunes the whole subtree when even the
			// closest possible descendant is out of range.
			if dc-c.maxDist < eps {
				walk(c, dc)
			}
		}
	}
	walk(t.root, t.dist(q, t.points[t.root.idx]))
	return out
}

// NearestNeighbor returns the id and distance of the closest indexed point
// to q, or (-1, +Inf) for an empty tree. BLOCK-DBSCAN's outer-point
// assignment uses it.
func (t *CoverTree) NearestNeighbor(q []float32) (int, float64) {
	if t.root == nil {
		return -1, math.Inf(1)
	}
	best := -1
	bestD := math.Inf(1)
	var walk func(n *ctNode, dn float64)
	walk = func(n *ctNode, dn float64) {
		if dn < bestD {
			bestD = dn
			best = n.idx
		}
		for _, c := range n.children {
			dc := t.dist(q, t.points[c.idx])
			if dc-c.maxDist < bestD {
				walk(c, dc)
			}
		}
	}
	walk(t.root, t.dist(q, t.points[t.root.idx]))
	return best, bestD
}

var _ RangeSearcher = (*CoverTree)(nil)
