// Package hnsw implements a layered proximity-graph index (Malkov &
// Yashunin 2018, "Hierarchical Navigable Small World") for approximate
// range queries with sub-linear scaling in the number of indexed points.
//
// The graph is deliberately deterministic: node levels are generated from
// a splitmix64 hash of (seed, rebuild generation, insertion counter)
// rather than a shared RNG, so the same seed over the same insertion
// sequence always produces the same graph — and therefore the same query
// answers. That property is what lets the backend registry rebuild an
// identical index when a persisted model is reloaded.
//
// Construction keeps that property while using every core: an insert's
// reverse links (link) touch disjoint neighbor lists, so they fan out
// across up to GOMAXPROCS goroutines, and the graph stays a pure function
// of seed and insertion order. Each link's distance is computed once and
// cached beside the graph, and with vecmath.CosineDistanceUnit the
// neighbor heuristic decides its threshold tests with the exact float32
// kernel vecmath.CosineUnitLess; both give the per-pair float64 answers.
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
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

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

// rebuildFraction bounds the tombstoned share of the graph: when dead
// slots reach 1/4 of it the structure is rebuilt over the live points.
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

// node is one graph vertex: a neighbor list per layer 0..level. Each list
// has capacity maxLinks+1, so link appends in place.
type node struct {
	layers [][]int32
}

// Graph is the index. Queries (RangeSearch) are safe for
// concurrent use; mutations (Insert, DeleteMany, SetEfSearch)
// must not run concurrently with queries or each other, matching the
// contract of every other index in this repository.
type Graph struct {
	points [][]float32
	dist   vecmath.DistanceFunc
	cfg    Config
	mL     float64

	nodes []node
	// linkD is the side table of link distances, parallel to nodes:
	// linkD[n][l][k] is dist(points[n], points[nodes[n].layers[l][k]]),
	// computed once when the link is made. It lives beside nodes so
	// queries touch the same memory they would without it.
	linkD    [][][]float64
	entry    int // internal id of the top-layer entry point, -1 when empty
	topLayer int

	// unitCos marks dist as vecmath.CosineDistanceUnit; maxNorm is then at
	// least every point's norm (NaN or +Inf after a non-finite point),
	// and maxNorm² scales the float32 heuristic test's error bound.
	unitCos bool
	maxNorm float64

	// tombstone remap, the same convention as internal/index: ext maps
	// internal (grow-only) slots to external (compacted) ids, -1 dead,
	// nil meaning identity.
	ext  []int
	dead int

	inserted uint64 // insertion counter feeding level generation
	gen      uint64 // rebuild generation, part of the level-hash domain

	pool    sync.Pool       // *searchCtx
	scratch []*pruneScratch // one per link goroutine, grown on demand
	fan     linkers
}

// New builds a graph over points with the given distance, which must be
// safe for concurrent use: construction and batch queries call it from
// several goroutines. The points slice is retained and mutated by
// Insert/DeleteMany, like every dynamic index here.
func New(points [][]float32, dist vecmath.DistanceFunc, cfg Config) *Graph {
	g := &Graph{
		points:  points,
		dist:    dist,
		cfg:     cfg.withDefaults(),
		entry:   -1,
		unitCos: vecmath.IsCosineUnit(dist),
	}
	g.mL = 1 / math.Log(float64(g.cfg.M))
	g.pool.New = func() any { return new(searchCtx) }
	g.growMaxNorm(points)
	g.addNodes(0)
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

// growMaxNorm raises maxNorm to cover vecs. Deletions never lower it: a
// stale, larger value only loosens the heuristic's error bound.
func (g *Graph) growMaxNorm(vecs [][]float32) {
	if !g.unitCos {
		return
	}
	for _, v := range vecs {
		if n := vecmath.Norm(v); n > g.maxNorm || math.IsNaN(n) {
			g.maxNorm = n
		}
	}
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
	g.addLists(level)
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
		nbrs, nds := g.selectNeighbors(g.scratch[0], ids, ds, g.maxLinks(l))
		g.nodes[i].layers[l] = append(g.nodes[i].layers[l], nbrs...)
		g.linkD[i][l] = append(g.linkD[i][l], nds...)
		g.linkAll(g.nodes[i].layers[l], int32(i), l)
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

// addLists appends the empty neighbor lists of a new node with the given
// level to nodes and linkD: capacity maxLinks+1 per layer, carved from one
// id array and one distance array, so link never reallocates them.
func (g *Graph) addLists(level int) {
	size := 0
	for l := 0; l <= level; l++ {
		size += g.maxLinks(l) + 1
	}
	ids, ds := make([]int32, size), make([]float64, size)
	layers, dls := make([][]int32, level+1), make([][]float64, level+1)
	off := 0
	for l := range layers {
		end := off + g.maxLinks(l) + 1
		layers[l], dls[l] = ids[off:off:end], ds[off:off:end]
		off = end
	}
	g.nodes = append(g.nodes, node{layers: layers})
	g.linkD = append(g.linkD, dls)
}

// pruneScratch is one link goroutine's buffers for selectNeighbors: the kept
// and the pruned candidates with their distances.
type pruneScratch struct {
	keep, pruned   []int32
	keepD, prunedD []float64
}

// growScratch makes sure at least n link goroutines have scratch. Lists of up
// to max(EfConstruction, 2M+1) candidates are pruned to at most 2M.
func (g *Graph) growScratch(n int) {
	for len(g.scratch) < n {
		m, c := g.maxLinks(0), max(g.cfg.EfConstruction, g.maxLinks(0)+1)
		g.scratch = append(g.scratch, &pruneScratch{
			keep: make([]int32, 0, m), keepD: make([]float64, 0, m),
			pruned: make([]int32, 0, c), prunedD: make([]float64, 0, c),
		})
	}
}

// selectNeighbors applies the HNSW neighbor-selection heuristic
// (Algorithm 4): a candidate is kept only if it is closer to the query
// than to every already-kept neighbor, which spreads links across
// directions instead of bunching them in the nearest cluster. Pruned
// candidates backfill remaining slots (keepPrunedConnections) so the
// graph keeps its degree. ids/ds must be sorted by ascending distance.
// The kept ids and their distances are returned in ps's buffers, valid
// until ps is used again.
//
// The test dist(c, s) < ds[k] is a threshold test, so with
// CosineDistanceUnit it runs as vecmath.CosineUnitLess, whose answers are
// the float64 ones: every point's norm is at most maxNorm, so maxNorm²
// bounds the norm product of every pair.
//
//lafvet:hotpath
func (g *Graph) selectNeighbors(ps *pruneScratch, ids []int32, ds []float64, m int) ([]int32, []float64) {
	out, outD := ps.keep[:0], ps.keepD[:0]
	pruned, prunedD := ps.pruned[:0], ps.prunedD[:0]
	bound, fast := 0.0, false
	if g.unitCos && len(ids) > 0 {
		bound, fast = vecmath.CosineUnitBound(len(g.points[ids[0]]), g.maxNorm*g.maxNorm)
	}
	for k, c := range ids {
		if len(out) == m {
			break
		}
		pc, keep := g.points[c], true
		for _, s := range out {
			var closer bool
			if fast {
				closer = vecmath.CosineUnitLess(pc, g.points[s], ds[k], bound)
			} else {
				closer = g.dist(pc, g.points[s]) < ds[k]
			}
			if closer {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, c)       //lafvet:allow hotalloc within the scratch's capacity m
			outD = append(outD, ds[k]) //lafvet:allow hotalloc within the scratch's capacity m
		} else {
			pruned = append(pruned, c)       //lafvet:allow hotalloc within the scratch's capacity len(ids)
			prunedD = append(prunedD, ds[k]) //lafvet:allow hotalloc within the scratch's capacity len(ids)
		}
	}
	for k, c := range pruned {
		if len(out) == m {
			break
		}
		out = append(out, c)            //lafvet:allow hotalloc within the scratch's capacity m
		outD = append(outD, prunedD[k]) //lafvet:allow hotalloc within the scratch's capacity m
	}
	return out, outD
}

// link adds m to n's layer-l neighbor list, re-running the selection
// heuristic when the list overflows its degree bound. The new link's
// distance is dist(points[n], points[m]), the argument order of every
// distance in linkD[n], so the re-prune sorts exactly the values a fresh
// computation would give. It reads the points and n's list and writes
// only n's list, so calls for distinct n may run concurrently, each with
// its own ps.
//
//lafvet:hotpath
func (g *Graph) link(ps *pruneScratch, n, m int32, l int) {
	nbrs := append(g.nodes[n].layers[l], m)                       //lafvet:allow hotalloc the list has capacity maxLinks+1
	ds := append(g.linkD[n][l], g.dist(g.points[n], g.points[m])) //lafvet:allow hotalloc the list has capacity maxLinks+1
	if limit := g.maxLinks(l); len(nbrs) > limit {
		sortByDist(nbrs, ds)
		keep, keepD := g.selectNeighbors(ps, nbrs, ds, limit)
		nbrs, ds = nbrs[:copy(nbrs, keep)], ds[:copy(ds, keepD)]
	}
	g.nodes[n].layers[l] = nbrs
	g.linkD[n][l] = ds
}

// linkers is the fan-out of one insert's link calls: the inserting
// goroutine and up to helpers helper goroutines, which live for one
// addNodes call, each take the next unlinked neighbor until none is left.
type linkers struct {
	helpers int
	start   chan struct{}  // one token per helper per fan-out; closed to stop them
	done    sync.WaitGroup // helpers yet to finish the current fan-out
	exit    sync.WaitGroup // helpers still running
	next    atomic.Int64   // index of the next neighbor to link
	nbrs    []int32
	i       int32
	l       int
}

// addNodes threads points[from:] into the graph in order. Each insert's
// link calls fan out over up to GOMAXPROCS goroutines (no more than the
// 2M links an insert can make), started here and stopped before it
// returns.
func (g *Graph) addNodes(from int) {
	if from == len(g.points) {
		return
	}
	f := &g.fan
	f.helpers = min(runtime.GOMAXPROCS(0), g.maxLinks(0)) - 1
	g.growScratch(f.helpers + 1)
	if f.helpers > 0 {
		f.start = make(chan struct{})
		f.exit.Add(f.helpers)
		for w := 1; w <= f.helpers; w++ {
			go g.linkHelper(g.scratch[w])
		}
		defer func() {
			close(f.start)
			f.exit.Wait()
		}()
	}
	for i := from; i < len(g.points); i++ {
		g.addNode(i)
	}
}

// linkHelper is one helper goroutine of addNodes: it joins every fan-out
// it is handed a token for, until the start channel closes.
func (g *Graph) linkHelper(ps *pruneScratch) {
	defer g.fan.exit.Done()
	for range g.fan.start {
		g.linkShare(ps)
		g.fan.done.Done()
	}
}

// linkShare links the current fan-out's neighbors one at a time until
// none is left.
func (g *Graph) linkShare(ps *pruneScratch) {
	f := &g.fan
	for k := f.next.Add(1) - 1; k < int64(len(f.nbrs)); k = f.next.Add(1) - 1 {
		g.link(ps, f.nbrs[k], f.i, f.l)
	}
}

// linkAll links i into the layer-l list of every node in nbrs. nbrs holds
// distinct nodes and each link writes only its own node's list, so the
// calls may run on any goroutine in any order and the graph is the same.
func (g *Graph) linkAll(nbrs []int32, i int32, l int) {
	f := &g.fan
	f.nbrs, f.i, f.l = nbrs, i, l
	f.next.Store(0)
	n := max(0, min(f.helpers, len(nbrs)-1))
	f.done.Add(n)
	for w := 0; w < n; w++ {
		f.start <- struct{}{}
	}
	g.linkShare(g.scratch[0])
	f.done.Wait()
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
// the classic ef-limited one (construction mode).
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

// --- dynamic mutations (see internal/index/dynamic.go for the id
// conventions these mirror) ---

// Insert appends vectors to the indexed set and threads them into the
// graph natively; the new points get ids len..len+k-1 in order.
func (g *Graph) Insert(vecs [][]float32) {
	g.growExt(len(vecs))
	g.growMaxNorm(vecs)
	g.points = append(g.points, vecs...)
	g.addNodes(len(g.points) - len(vecs))
}

// DeleteMany marks a sorted, duplicate-free batch of external ids dead in
// one pass — each graph node stays as a waypoint but queries stop
// reporting it — and ids above each removed one shift down. When dead
// slots reach 1/rebuildFraction of the graph it is rebuilt over the live
// points. An id outside [0, Len()) panics before anything changes, like
// slices.Delete on the point set.
func (g *Graph) DeleteMany(ids []int) {
	if len(ids) > 0 {
		g.checkID(ids[0])
		g.checkID(ids[len(ids)-1])
	}
	g.killMany(ids)
	if g.dead*rebuildFraction >= len(g.nodes) {
		g.rebuild()
	}
}

// checkID panics unless id is a live external id.
func (g *Graph) checkID(id int) {
	if id < 0 || id >= g.Len() {
		panic(fmt.Sprintf("hnsw: delete of id %d outside [0, %d)", id, g.Len()))
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

// killMany marks the slots holding a sorted batch of external ids dead
// and shifts every higher external id down, in one pass over the slots.
// dead grows by the slots actually killed.
func (g *Graph) killMany(ids []int) {
	g.materializeExt()
	for i, x := range g.ext {
		if x < 0 {
			continue
		}
		j := lowerBound(ids, x)
		if j < len(ids) && ids[j] == x {
			g.ext[i] = -1
			g.dead++
			continue
		}
		g.ext[i] = x - j // j removed externals precede x
	}
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
	g.nodes, g.linkD = g.nodes[:0], g.linkD[:0]
	g.entry = -1
	g.topLayer = 0
	g.gen++
	g.inserted = 0
	g.addNodes(0)
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
