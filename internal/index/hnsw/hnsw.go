// Package hnsw implements a layered proximity-graph index (Malkov &
// Yashunin 2018, "Hierarchical Navigable Small World") for approximate
// range and k-nearest-neighbor queries with sub-linear scaling in the
// number of indexed points.
//
// The graph is deliberately deterministic: node levels are generated from
// a splitmix64 hash of (seed, rebuild generation, insertion counter)
// rather than a shared RNG, so the same seed over the same insertion
// sequence always produces the same graph — and therefore the same query
// answers. That property is what lets the backend registry rebuild an
// identical index when a persisted model is reloaded.
//
// Queries follow the standard two-phase search: greedy descent through
// the upper layers to a layer-0 entry point, then best-first expansion
// bounded by the EfSearch candidate list. Range queries widen the
// expansion bound to max(eps, worst-of-EfSearch), so every visited point
// within eps is reported; raising EfSearch trades query time for recall.
//
// The package depends only on vecmath: the index package layers the
// batch/worker-pool plumbing and the backend registry on top of it.
package hnsw

import (
	"math"
	"sync"

	"lafdbscan/internal/vecmath"
)

// Defaults for Config fields left zero.
const (
	DefaultM              = 16
	DefaultEfConstruction = 128
	DefaultEfSearch       = 64
)

// maxLevel caps generated node levels; with mL = 1/ln(M) the probability
// of reaching it is astronomically small, the cap only bounds the damage
// of an adversarial hash value.
const maxLevel = 30

// rebuildFraction mirrors the tree indexes' overlay threshold: when dead
// slots reach 1/4 of the graph the structure is rebuilt over the live
// points (see internal/index/dynamic.go).
const rebuildFraction = 4

// Config shapes the speed/recall trade-off of the graph.
type Config struct {
	// M is the graph degree: each node keeps at most M links per upper
	// layer and 2M at layer 0. Default 16.
	M int
	// EfConstruction is the candidate-list width used while inserting;
	// larger values build better graphs more slowly. Default 128.
	EfConstruction int
	// EfSearch is the candidate-list width used while querying — the
	// recall knob. Default 64.
	EfSearch int
	// Seed drives deterministic level generation: the same seed over the
	// same insertion sequence yields the same graph.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.M < 2 {
		c.M = DefaultM
	}
	if c.EfConstruction < 1 {
		c.EfConstruction = DefaultEfConstruction
	}
	if c.EfSearch < 1 {
		c.EfSearch = DefaultEfSearch
	}
	return c
}

// node is one graph vertex: a neighbor list per layer 0..level.
type node struct {
	layers [][]int32
}

// Graph is the index. Queries (RangeSearch, RangeCount, KNN) are safe for
// concurrent use; mutations (Insert, Delete, DeleteMany, SetEfSearch)
// must not run concurrently with queries or each other, matching the
// contract of every other index in this repository.
type Graph struct {
	points [][]float32
	dist   vecmath.DistanceFunc
	cfg    Config
	mL     float64

	nodes    []node
	entry    int // internal id of the top-layer entry point, -1 when empty
	topLayer int

	// tombstone remap, the same convention as internal/index: ext maps
	// internal (grow-only) slots to external (compacted) ids, -1 dead,
	// nil meaning identity.
	ext  []int
	dead int

	inserted uint64 // insertion counter feeding level generation
	gen      uint64 // rebuild generation, part of the level-hash domain

	pool sync.Pool // *searchCtx
}

// New builds a graph over points with the given distance. The points
// slice is retained and mutated by Insert/Delete, like every dynamic
// index here.
func New(points [][]float32, dist vecmath.DistanceFunc, cfg Config) *Graph {
	g := &Graph{
		points: points,
		dist:   dist,
		cfg:    cfg.withDefaults(),
		entry:  -1,
	}
	g.mL = 1 / math.Log(float64(g.cfg.M))
	g.pool.New = func() any { return new(searchCtx) }
	for i := range g.points {
		g.addNode(i)
	}
	return g
}

// Len returns the number of indexed (live) points.
func (g *Graph) Len() int { return len(g.points) - g.dead }

// Config returns the normalized configuration the graph was built with.
func (g *Graph) Config() Config { return g.cfg }

// SetEfSearch adjusts the query-time recall knob without rebuilding. It
// is a mutation: do not call it concurrently with queries.
func (g *Graph) SetEfSearch(ef int) {
	if ef < 1 {
		ef = DefaultEfSearch
	}
	g.cfg.EfSearch = ef
}

// TopLayer returns the current highest layer of the graph (0 for a
// single-layer graph, -1 when empty). Exposed for tests.
func (g *Graph) TopLayer() int {
	if g.entry < 0 {
		return -1
	}
	return g.topLayer
}

// splitmix64 is the finalizer of the SplitMix64 generator — a bijective
// avalanche hash, the standard way to turn a counter into uniform bits.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// nextLevel draws the level of the next inserted node from the geometric
// distribution floor(-ln(u)·mL), hashing (seed, generation, counter) so
// the sequence is a pure function of the insertion history.
func (g *Graph) nextLevel() int {
	g.inserted++
	h := splitmix64(uint64(g.cfg.Seed) ^ (g.gen * 0x9e3779b97f4a7c15))
	h = splitmix64(h ^ g.inserted)
	u := float64(h>>11) / float64(uint64(1)<<53) // uniform in [0, 1)
	level := int(-math.Log(1-u) * g.mL)
	if level > maxLevel {
		level = maxLevel
	}
	return level
}

// maxLinks is the degree bound at a layer: 2M at the base layer (where
// every node lives and range expansion happens), M above.
func (g *Graph) maxLinks(layer int) int {
	if layer == 0 {
		return 2 * g.cfg.M
	}
	return g.cfg.M
}

// liveInternal reports whether internal slot i is not tombstoned.
func (g *Graph) liveInternal(i int32) bool {
	return g.ext == nil || g.ext[i] >= 0
}

// extOfInternal returns the external (compacted) id of internal slot i.
func (g *Graph) extOfInternal(i int32) int {
	if g.ext == nil {
		return int(i)
	}
	return g.ext[i]
}

// --- construction ---

// addNode inserts point i (already present in g.points) into the graph.
func (g *Graph) addNode(i int) {
	level := g.nextLevel()
	g.nodes = append(g.nodes, node{layers: make([][]int32, level+1)})
	if g.entry < 0 {
		g.entry = i
		g.topLayer = level
		return
	}
	q := g.points[i]
	ep := int32(g.entry)
	d := g.dist(q, g.points[ep])
	for l := g.topLayer; l > level; l-- {
		ep, d = g.greedyLayer(q, ep, d, l)
	}
	sc := g.getCtx(g.cfg.EfConstruction)
	for l := minInt(level, g.topLayer); l >= 0; l-- {
		sc.reset(len(g.nodes), g.cfg.EfConstruction)
		g.searchLayer(sc, q, ep, d, l, g.cfg.EfConstruction, 0)
		ids, ds := sc.resExtract()
		nbrs := g.selectNeighbors(ids, ds, g.maxLinks(l))
		g.nodes[i].layers[l] = nbrs
		for _, nb := range nbrs {
			g.link(nb, int32(i), l)
		}
		if len(ids) > 0 {
			ep, d = ids[0], ds[0]
		}
	}
	g.putCtx(sc)
	if level > g.topLayer {
		g.topLayer = level
		g.entry = i
	}
}

// selectNeighbors applies the HNSW neighbor-selection heuristic
// (Algorithm 4): a candidate is kept only if it is closer to the query
// than to every already-kept neighbor, which spreads links across
// directions instead of bunching them in the nearest cluster. Pruned
// candidates backfill remaining slots (keepPrunedConnections) so the
// graph keeps its degree. ids/ds must be sorted by ascending distance.
func (g *Graph) selectNeighbors(ids []int32, ds []float64, m int) []int32 {
	out := make([]int32, 0, m)
	var pruned []int32
	for k, c := range ids {
		if len(out) == m {
			break
		}
		keep := true
		for _, s := range out {
			if g.dist(g.points[c], g.points[s]) < ds[k] {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, c)
		} else {
			pruned = append(pruned, c)
		}
	}
	for _, c := range pruned {
		if len(out) == m {
			break
		}
		out = append(out, c)
	}
	return out
}

// link adds m to n's layer-l neighbor list, re-running the selection
// heuristic when the list overflows its degree bound.
func (g *Graph) link(n, m int32, l int) {
	nbrs := append(g.nodes[n].layers[l], m)
	limit := g.maxLinks(l)
	if len(nbrs) > limit {
		p := g.points[n]
		ds := make([]float64, len(nbrs))
		for k, nb := range nbrs {
			ds[k] = g.dist(p, g.points[nb])
		}
		sortByDist(nbrs, ds)
		nbrs = g.selectNeighbors(nbrs, ds, limit)
	}
	g.nodes[n].layers[l] = nbrs
}

// sortByDist sorts ids and ds together by ascending distance (insertion
// sort: lists here are at most 2M+1 long).
func sortByDist(ids []int32, ds []float64) {
	for i := 1; i < len(ds); i++ {
		id, d := ids[i], ds[i]
		j := i - 1
		for j >= 0 && ds[j] > d {
			ids[j+1], ds[j+1] = ids[j], ds[j]
			j--
		}
		ids[j+1], ds[j+1] = id, d
	}
}

// --- search ---

// greedyLayer walks layer l greedily from ep toward q until no neighbor
// improves the distance — the upper-layer descent of every query.
func (g *Graph) greedyLayer(q []float32, ep int32, d float64, l int) (int32, float64) {
	for {
		improved := false
		for _, nb := range g.nodes[ep].layers[l] {
			if nd := g.dist(q, g.points[nb]); nd < d {
				ep, d = nb, nd
				improved = true
			}
		}
		if !improved {
			return ep, d
		}
	}
}

// descend runs the greedy upper-layer phase from the entry point down to
// layer 1, returning the layer-0 starting point.
func (g *Graph) descend(q []float32) (int32, float64) {
	ep := int32(g.entry)
	d := g.dist(q, g.points[ep])
	for l := g.topLayer; l >= 1; l-- {
		ep, d = g.greedyLayer(q, ep, d, l)
	}
	return ep, d
}

// searchLayer is the best-first expansion at one layer — the inner loop
// of every query and every insertion, run once per visited node per
// query. The frontier is a fixed-capacity min-heap, the result set a
// fixed-capacity max-heap of the ef closest live points, and visited
// marks are epoch-stamped, so the loop performs no allocation: all
// scratch lives in sc, sized by sc.reset before the call.
//
// With eps > 0 the expansion bound widens from worst-of-ef to
// max(eps, worst-of-ef) and every visited live point within eps is
// recorded in sc.out — the range-query mode. With eps = 0 the bound is
// the classic ef-limited one (KNN and construction mode).
//
//lafvet:hotpath
func (g *Graph) searchLayer(sc *searchCtx, q []float32, ep int32, epDist float64, layer, ef int, eps float64) {
	sc.mark(ep)
	sc.candPush(ep, epDist)
	if g.liveInternal(ep) {
		sc.resPush(ep, epDist, ef)
		if epDist < eps {
			sc.out[sc.outN] = ep
			sc.outN++
		}
	}
	for sc.candN > 0 {
		cd := sc.candD[0]
		bound := math.Inf(1)
		if sc.resN >= ef {
			bound = sc.resD[0]
			if eps > bound {
				bound = eps
			}
		}
		if cd > bound {
			break
		}
		ci := sc.candPop()
		for _, nb := range g.nodes[ci].layers[layer] {
			if sc.seen(nb) {
				continue
			}
			sc.mark(nb)
			d := g.dist(q, g.points[nb])
			if sc.resN < ef || d < sc.resD[0] || d < eps {
				sc.candPush(nb, d)
				if g.liveInternal(nb) {
					sc.resPush(nb, d, ef)
					if d < eps {
						sc.out[sc.outN] = nb
						sc.outN++
					}
				}
			}
		}
	}
}

// RangeSearch implements the RangeSearcher contract: all indexed points
// within eps of q, modulo the graph's approximation — every reported id
// is a true neighbor (distances are computed exactly), but neighbors in
// regions the bounded expansion never reaches can be missed. Raising
// EfSearch shrinks that miss rate.
func (g *Graph) RangeSearch(q []float32, eps float64) []int {
	if g.entry < 0 || g.Len() == 0 {
		return nil
	}
	sc := g.getCtx(g.cfg.EfSearch)
	ep, d := g.descend(q)
	g.searchLayer(sc, q, ep, d, 0, g.cfg.EfSearch, eps)
	var out []int
	if sc.outN > 0 {
		out = make([]int, sc.outN)
		for k := 0; k < sc.outN; k++ {
			out[k] = g.extOfInternal(sc.out[k])
		}
	}
	g.putCtx(sc)
	return out
}

// RangeCount implements the RangeSearcher contract without materializing
// ids.
func (g *Graph) RangeCount(q []float32, eps float64) int {
	if g.entry < 0 || g.Len() == 0 {
		return 0
	}
	sc := g.getCtx(g.cfg.EfSearch)
	ep, d := g.descend(q)
	g.searchLayer(sc, q, ep, d, 0, g.cfg.EfSearch, eps)
	n := sc.outN
	g.putCtx(sc)
	return n
}

// KNN implements the KNNSearcher contract: up to k approximate nearest
// neighbors sorted by ascending distance. The candidate list is
// max(EfSearch, k) wide.
func (g *Graph) KNN(q []float32, k int) ([]int, []float64) {
	if g.entry < 0 || g.Len() == 0 || k <= 0 {
		return nil, nil
	}
	ef := g.cfg.EfSearch
	if ef < k {
		ef = k
	}
	sc := g.getCtx(ef)
	ep, d := g.descend(q)
	g.searchLayer(sc, q, ep, d, 0, ef, 0)
	ids, ds := sc.resExtract()
	if len(ids) > k {
		ids, ds = ids[:k], ds[:k]
	}
	outIDs := make([]int, len(ids))
	outDs := make([]float64, len(ds))
	for i := range ids {
		outIDs[i] = g.extOfInternal(ids[i])
		outDs[i] = ds[i]
	}
	g.putCtx(sc)
	return outIDs, outDs
}

// --- dynamic mutations (see internal/index/dynamic.go for the id
// conventions these mirror) ---

// Insert appends vectors to the indexed set and threads them into the
// graph natively; the new points get ids len..len+k-1 in order.
func (g *Graph) Insert(vecs [][]float32) {
	g.growExt(len(vecs))
	for _, v := range vecs {
		g.points = append(g.points, v)
		g.addNode(len(g.points) - 1)
	}
}

// Delete tombstones the point with the given (external) id — the graph
// keeps its node as a waypoint but queries stop reporting it — and ids
// above it shift down by one. When dead slots reach 1/rebuildFraction of
// the graph it is rebuilt over the live points.
func (g *Graph) Delete(id int) {
	g.kill(id)
	if g.dead*rebuildFraction >= len(g.nodes) {
		g.rebuild()
	}
}

// DeleteMany tombstones a sorted, duplicate-free batch of external ids in
// one pass, then evaluates the rebuild threshold once.
func (g *Graph) DeleteMany(ids []int) {
	g.killMany(ids)
	if g.dead*rebuildFraction >= len(g.nodes) {
		g.rebuild()
	}
}

// growExt registers k appended slots whose external ids continue the live
// sequence (no-op while the mapping is still the identity).
func (g *Graph) growExt(k int) {
	if g.ext == nil {
		return
	}
	live := g.Len()
	for j := 0; j < k; j++ {
		g.ext = append(g.ext, live+j)
	}
}

// materializeExt switches from the identity mapping to an explicit one.
func (g *Graph) materializeExt() {
	if g.ext != nil {
		return
	}
	g.ext = make([]int, len(g.points))
	for i := range g.ext {
		g.ext[i] = i
	}
}

// kill marks the slot holding external id e dead and shifts every higher
// external id down by one.
func (g *Graph) kill(e int) {
	g.materializeExt()
	for i, x := range g.ext {
		switch {
		case x == e:
			g.ext[i] = -1
		case x > e:
			g.ext[i] = x - 1
		}
	}
	g.dead++
}

// killMany is kill over a sorted batch, applying the whole shift in one
// pass over the slots.
func (g *Graph) killMany(ids []int) {
	g.materializeExt()
	for i, x := range g.ext {
		if x < 0 {
			continue
		}
		j := lowerBound(ids, x)
		if j < len(ids) && ids[j] == x {
			g.ext[i] = -1
			continue
		}
		g.ext[i] = x - j // j removed externals precede x
	}
	g.dead += len(ids)
}

// lowerBound returns the first index in sorted a with a[i] >= x.
func lowerBound(a []int, x int) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// rebuild reconstructs the graph over the live points, compacting ids.
// The generation counter feeds the level hash, so the rebuilt graph's
// levels are deterministic but independent of the pre-rebuild ones.
func (g *Graph) rebuild() {
	live := make([][]float32, 0, g.Len())
	for i, p := range g.points {
		if g.extOfInternal(int32(i)) >= 0 {
			live = append(live, p)
		}
	}
	g.points = live
	g.ext, g.dead = nil, 0
	g.nodes = g.nodes[:0]
	g.entry = -1
	g.topLayer = 0
	g.gen++
	g.inserted = 0
	for i := range g.points {
		g.addNode(i)
	}
}

// --- per-query scratch ---

// getCtx takes a scratch context from the pool, sized for the current
// graph.
func (g *Graph) getCtx(ef int) *searchCtx {
	sc := g.pool.Get().(*searchCtx)
	sc.reset(len(g.nodes), ef)
	return sc
}

func (g *Graph) putCtx(sc *searchCtx) { g.pool.Put(sc) }

// searchCtx is the allocation-free scratch of one query: epoch-stamped
// visited marks, the candidate min-heap (frontier), the result max-heap
// (ef closest live points) and the range-result buffer. Capacities are
// bounds, not guesses: the visited guard admits each node into the
// frontier and the range buffer at most once, so length-n arrays can
// never overflow.
type searchCtx struct {
	visited []uint32
	epoch   uint32

	candID []int32
	candD  []float64
	candN  int

	resID []int32
	resD  []float64
	resN  int

	out  []int32
	outN int
}

// reset prepares the context for a query over n nodes with an ef-wide
// result set. Growth happens here, outside the hot loop, and at least
// doubles the node arrays: a graph build grows n by one per insert, and
// exact-size regrowth would allocate O(n²) bytes over the build.
func (sc *searchCtx) reset(n, ef int) {
	if len(sc.visited) < n {
		size := max(n, 2*len(sc.visited))
		sc.visited = make([]uint32, size)
		sc.candID = make([]int32, size)
		sc.candD = make([]float64, size)
		sc.out = make([]int32, size)
		sc.epoch = 0
	}
	if len(sc.resID) < ef {
		sc.resID = make([]int32, ef)
		sc.resD = make([]float64, ef)
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: clear the stale marks and restart
		for i := range sc.visited {
			sc.visited[i] = 0
		}
		sc.epoch = 1
	}
	sc.candN, sc.resN, sc.outN = 0, 0, 0
}

func (sc *searchCtx) seen(i int32) bool { return sc.visited[i] == sc.epoch }
func (sc *searchCtx) mark(i int32)      { sc.visited[i] = sc.epoch }

// candPush adds an entry to the frontier min-heap.
func (sc *searchCtx) candPush(id int32, d float64) {
	i := sc.candN
	sc.candID[i], sc.candD[i] = id, d
	sc.candN++
	for i > 0 {
		p := (i - 1) / 2
		if sc.candD[p] <= sc.candD[i] {
			break
		}
		sc.candID[p], sc.candID[i] = sc.candID[i], sc.candID[p]
		sc.candD[p], sc.candD[i] = sc.candD[i], sc.candD[p]
		i = p
	}
}

// candPop removes and returns the closest frontier entry.
func (sc *searchCtx) candPop() int32 {
	id := sc.candID[0]
	sc.candN--
	n := sc.candN
	sc.candID[0], sc.candD[0] = sc.candID[n], sc.candD[n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && sc.candD[r] < sc.candD[l] {
			m = r
		}
		if sc.candD[i] <= sc.candD[m] {
			break
		}
		sc.candID[i], sc.candID[m] = sc.candID[m], sc.candID[i]
		sc.candD[i], sc.candD[m] = sc.candD[m], sc.candD[i]
		i = m
	}
	return id
}

// resPush offers an entry to the ef-bounded result max-heap, evicting the
// current worst when full.
func (sc *searchCtx) resPush(id int32, d float64, ef int) {
	if sc.resN < ef {
		i := sc.resN
		sc.resID[i], sc.resD[i] = id, d
		sc.resN++
		for i > 0 {
			p := (i - 1) / 2
			if sc.resD[p] >= sc.resD[i] {
				break
			}
			sc.resID[p], sc.resID[i] = sc.resID[i], sc.resID[p]
			sc.resD[p], sc.resD[i] = sc.resD[i], sc.resD[p]
			i = p
		}
		return
	}
	if d >= sc.resD[0] {
		return
	}
	sc.resID[0], sc.resD[0] = id, d
	sc.resSiftDown(0, sc.resN)
}

func (sc *searchCtx) resSiftDown(i, n int) {
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && sc.resD[r] > sc.resD[l] {
			m = r
		}
		if sc.resD[i] >= sc.resD[m] {
			return
		}
		sc.resID[i], sc.resID[m] = sc.resID[m], sc.resID[i]
		sc.resD[i], sc.resD[m] = sc.resD[m], sc.resD[i]
		i = m
	}
}

// resExtract heapsorts the result set in place and returns it sorted by
// ascending distance. The returned slices alias the context's arrays and
// are valid until the next reset; the heap is consumed.
func (sc *searchCtx) resExtract() ([]int32, []float64) {
	n := sc.resN
	for sc.resN > 1 {
		last := sc.resN - 1
		sc.resID[0], sc.resID[last] = sc.resID[last], sc.resID[0]
		sc.resD[0], sc.resD[last] = sc.resD[last], sc.resD[0]
		sc.resN--
		sc.resSiftDown(0, sc.resN)
	}
	sc.resN = 0
	return sc.resID[:n], sc.resD[:n]
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
