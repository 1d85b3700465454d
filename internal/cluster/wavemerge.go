package cluster

import "sync/atomic"

// WaveMerger folds streamed range-query results into the three order-free
// facts label resolution needs — core flags, ε-connectivity of core points,
// and border-assignment stubs — so neighbor lists can be dropped the moment
// they are produced. It is the consumer side of index.BatchRangeSearchFunc:
// the clustering engines call Absorb from the wave callback and never
// retain a core point's neighbor list.
//
// Core-core edges are unioned through a publish-then-scan handshake: Absorb
// publishes p's core status atomically before scanning p's list, and unions
// p with every neighbor already published as core. Because d is symmetric,
// an ε-edge between cores p and q is seen from both sides; whichever side
// scans second finds the other's status already published, so every edge is
// unioned at least once no matter how queries interleave (with sequentially
// consistent atomics, both scans missing each other would require each
// store to follow the other's load — impossible). Neighbors whose queries
// never run (LAF's predicted stop points) stay unpublished and are never
// unioned, which is exactly the LAF drivers' contract.
//
// Non-core results are kept as stubs — a copy of the point's own neighbor
// list, necessarily shorter than tau — because a border point's own list
// contains every core within ε of it (symmetry again), which is all that
// border assignment needs. The big lists, the core points' — the bulk of
// the O(Σ|N(p)|) it would take to hold every list — are copied only after
// KeepRows, for a caller that goes on to maintain the clustering.
type WaveMerger struct {
	tau     int
	status  []atomic.Int32 // 0 unpublished, 1 non-core, 2 core
	stubs   [][]int32      // row of every absorbed non-core point; of every absorbed point after KeepRows
	keepAll bool           // KeepRows was called
	uf      *AtomicUnionFind
}

const (
	waveUnpublished int32 = iota
	waveNonCore
	waveCore
)

// NewWaveMerger returns a merger over n points with core threshold tau.
// resolve reports whether the caller will call Resolve: only then are
// border stubs kept. Drivers that number clusters off Core and UnionFind
// and assign borders themselves (LAF-DBSCAN++ folds each core's row into
// nearest-core slots as it streams) pass false and pay for no stub slice;
// Resolve must not be called on such a merger.
func NewWaveMerger(n, tau int, resolve bool) *WaveMerger {
	m := &WaveMerger{tau: tau, status: make([]atomic.Int32, n), uf: NewAtomicUnionFind(n)}
	if resolve {
		m.stubs = make([][]int32, n)
	}
	return m
}

// KeepRows makes the merger keep every absorbed point's own neighbor list,
// core points' included, for Rows. Call it before the first Absorb, on a
// merger built with resolve. A non-core point's row is its stub, so no list
// is copied twice.
func (m *WaveMerger) KeepRows() { m.keepAll = true }

// Rows returns the neighbor lists kept since KeepRows: row p is p's own
// range-query result (p included) for every absorbed point, nil for points
// never absorbed. The rows are the merger's own; Resolve reads the non-core
// ones, so a caller may take them over only after it has resolved.
func (m *WaveMerger) Rows() [][]int32 { return m.stubs }

// Absorb folds the range-query result of point p into the merger and
// returns whether p is core. Safe for concurrent use on distinct p; ids is
// not retained (non-core lists are copied into the stub), so the caller may
// recycle it. Each p must be absorbed at most once.
//
//lafvet:hotpath
func (m *WaveMerger) Absorb(p int, ids []int) bool {
	core := len(ids) >= m.tau
	if m.stubs != nil && (m.keepAll || !core) {
		//lafvet:allow hotalloc the stub copy is the design: one short (<tau) allocation per NON-core point replaces buffering every neighbor list; every point's only after KeepRows
		row := make([]int32, len(ids))
		for k, q := range ids {
			row[k] = int32(q)
		}
		m.stubs[p] = row
	}
	if core {
		m.status[p].Store(waveCore)
		for _, q := range ids {
			if q != p && m.status[q].Load() == waveCore {
				m.uf.Union(p, q)
			}
		}
		return true
	}
	m.status[p].Store(waveNonCore)
	return false
}

// Core returns the core-point mask. Call only after all Absorbs have
// completed (the wave engine's pool barrier provides the ordering).
func (m *WaveMerger) Core() []bool {
	core := make([]bool, len(m.status))
	for i := range m.status {
		core[i] = m.status[i].Load() == waveCore
	}
	return core
}

// UnionFind returns the ε-connectivity forest of the core points. Only
// meaningful after all Absorbs have completed.
func (m *WaveMerger) UnionFind() *AtomicUnionFind { return m.uf }

// Resolve turns the absorbed facts into the labeling sequential DBSCAN
// would produce, with the two rules that reproduce its traversal: cluster
// ids are numbered by first-core scan order, and a border point takes the
// minimum cluster id among its adjacent cores. The border rule is
// evaluated from the border's side — its adjacent cores are read from its
// own stub, or, for points whose query never ran, from their row of the
// optional partial-neighbor map (the queried points that found them). Both
// views name the identical core set by symmetry of the metric, so the
// labels match sequential DBSCAN's bit for bit.
func (m *WaveMerger) Resolve(stop *PartialNeighbors) []int {
	n := len(m.status)
	core := m.Core()
	labels := make([]int, n) // 0 = unassigned, cluster ids start at 1
	componentID := make(map[int]int)
	c := 0
	for p := 0; p < n; p++ {
		if !core[p] {
			continue
		}
		root := m.uf.Find(p)
		id, ok := componentID[root]
		if !ok {
			c++
			id = c
			componentID[root] = id
		}
		labels[p] = id
	}
	// claim gives border q the minimum label among its core neighbors.
	claim := func(q, nb int) {
		if core[nb] {
			if id := labels[nb]; labels[q] == 0 || id < labels[q] {
				labels[q] = id
			}
		}
	}
	for q := 0; q < n; q++ {
		if core[q] {
			continue
		}
		for _, nb := range m.stubs[q] {
			claim(q, int(nb))
		}
		if stop != nil && stop.Stop[q] && labels[q] == 0 {
			for _, nb := range stop.Rows[q] {
				claim(q, int(nb))
			}
		}
	}
	for i, l := range labels {
		if l == 0 {
			labels[i] = Noise
		}
	}
	return labels
}
