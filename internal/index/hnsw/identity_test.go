package hnsw

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"lafdbscan/internal/vecmath"
)

// refGraph builds graphs with the straightforward construction the
// optimized one must reproduce bit for bit: per-pair DistanceFunc calls in
// the neighbor heuristic, every distance recomputed on each re-prune, and
// one link at a time on the calling goroutine. Level generation and the
// layer search are the Graph's own.
type refGraph struct{ *Graph }

func newRef(points [][]float32, dist vecmath.DistanceFunc, cfg Config) refGraph {
	g := &Graph{points: points, dist: dist, cfg: cfg.withDefaults(), entry: -1}
	g.mL = 1 / math.Log(float64(g.cfg.M))
	g.pool.New = func() any { return new(searchCtx) }
	r := refGraph{g}
	for i := range r.points {
		r.addNode(i)
	}
	return r
}

func (r refGraph) Insert(vecs [][]float32) {
	r.growExt(len(vecs))
	for _, v := range vecs {
		r.points = append(r.points, v)
		r.addNode(len(r.points) - 1)
	}
}

func (r refGraph) DeleteMany(ids []int) {
	r.killMany(ids)
	if r.dead*rebuildFraction >= len(r.nodes) {
		r.rebuild()
	}
}

func (r refGraph) rebuild() {
	live := make([][]float32, 0, r.Len())
	for i, p := range r.points {
		if r.extOfInternal(int32(i)) >= 0 {
			live = append(live, p)
		}
	}
	r.points = live
	r.ext, r.dead = nil, 0
	r.nodes = r.nodes[:0]
	r.entry = -1
	r.topLayer = 0
	r.gen++
	r.inserted = 0
	for i := range r.points {
		r.addNode(i)
	}
}

func (r refGraph) addNode(i int) {
	g := r.Graph
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
	for l := min(level, g.topLayer); l >= 0; l-- {
		sc.reset(len(g.nodes), g.cfg.EfConstruction)
		g.searchLayer(sc, q, ep, d, l, g.cfg.EfConstruction, 0)
		ids, ds := sc.resExtract()
		nbrs := r.selectNeighbors(ids, ds, g.maxLinks(l))
		g.nodes[i].layers[l] = nbrs
		for _, nb := range nbrs {
			r.link(nb, int32(i), l)
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

func (r refGraph) selectNeighbors(ids []int32, ds []float64, m int) []int32 {
	out := make([]int32, 0, m)
	var pruned []int32
	for k, c := range ids {
		if len(out) == m {
			break
		}
		keep := true
		for _, s := range out {
			if r.dist(r.points[c], r.points[s]) < ds[k] {
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

func (r refGraph) link(n, m int32, l int) {
	nbrs := append(r.nodes[n].layers[l], m)
	limit := r.maxLinks(l)
	if len(nbrs) > limit {
		p := r.points[n]
		ds := make([]float64, len(nbrs))
		for k, nb := range nbrs {
			ds[k] = r.dist(p, r.points[nb])
		}
		sortByDist(nbrs, ds)
		nbrs = r.selectNeighbors(nbrs, ds, limit)
	}
	r.nodes[n].layers[l] = nbrs
}

// sameGraph fails unless g and want have the same entry point, top layer,
// node count and neighbor lists, and g's cached link distances are the
// ones a fresh DistanceFunc call gives, bit for bit.
func sameGraph(t *testing.T, g *Graph, want refGraph) {
	t.Helper()
	if g.entry != want.entry || g.topLayer != want.topLayer || len(g.nodes) != len(want.nodes) {
		t.Fatalf("entry %d, top layer %d, %d nodes; reference %d, %d, %d",
			g.entry, g.topLayer, len(g.nodes), want.entry, want.topLayer, len(want.nodes))
	}
	if g.Len() != want.Len() || !slices.Equal(g.ext, want.ext) {
		t.Fatalf("id mapping diverged: Len %d vs %d", g.Len(), want.Len())
	}
	if len(g.linkD) != len(g.nodes) {
		t.Fatalf("%d link-distance rows for %d nodes", len(g.linkD), len(g.nodes))
	}
	for n := range g.nodes {
		got, ref := g.nodes[n].layers, want.nodes[n].layers
		if len(got) != len(ref) || len(g.linkD[n]) != len(got) {
			t.Fatalf("node %d: %d layers (%d distance rows), reference %d", n, len(got), len(g.linkD[n]), len(ref))
		}
		for l := range got {
			if !slices.Equal(got[l], ref[l]) {
				t.Fatalf("node %d layer %d: %v, reference %v", n, l, got[l], ref[l])
			}
			if len(g.linkD[n][l]) != len(got[l]) {
				t.Fatalf("node %d layer %d: %d cached distances for %d links", n, l, len(g.linkD[n][l]), len(got[l]))
			}
			for k, m := range got[l] {
				d := g.dist(g.points[n], g.points[m])
				if math.Float64bits(g.linkD[n][l][k]) != math.Float64bits(d) {
					t.Fatalf("node %d layer %d link %d: cached %v, fresh %v", n, l, m, g.linkD[n][l][k], d)
				}
			}
		}
	}
}

// atProcs runs f once per GOMAXPROCS value in {1, 2, 4}. Construction runs
// on the calling goroutine, so the graph must not depend on the setting.
func atProcs(t *testing.T, f func(t *testing.T)) {
	for _, p := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", p), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
			f(t)
		})
	}
}

// checkBuild builds pts with New and with the reference and compares them.
func checkBuild(t *testing.T, pts [][]float32, dist vecmath.DistanceFunc, cfg Config) {
	t.Helper()
	atProcs(t, func(t *testing.T) {
		sameGraph(t, New(slices.Clone(pts), dist, cfg), newRef(slices.Clone(pts), dist, cfg))
	})
}

// scaledPoints multiplies each point by 10^(u·decades), u uniform in
// [0, 1), so norms spread over decades orders of magnitude.
func scaledPoints(pts [][]float32, decades float64, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, len(pts))
	for i, p := range pts {
		out[i] = vecmath.Scale(float32(math.Pow(10, decades*rng.Float64())), vecmath.Clone(p))
	}
	return out
}

// smallCfg has a low degree bound, so most lists overflow and re-prune.
var smallCfg = Config{M: 4, EfConstruction: 24, Seed: 3}

func TestBuildMatchesReferenceUnitCosine(t *testing.T) {
	type build struct {
		n, dim int
		cfg    Config
	}
	builds := []build{
		{500, 7, Config{Seed: 1}},
		{600, 7, smallCfg},
		{300, 200, Config{M: 8, EfConstruction: 48, Seed: 2}},
		{200, 768, Config{M: 6, EfConstruction: 32, Seed: 4}},
	}
	if !testing.Short() {
		builds = append(builds, build{600, 200, Config{Seed: 5}}, build{400, 768, Config{Seed: 6}})
	}
	for _, tc := range builds {
		t.Run(fmt.Sprintf("d=%d/M=%d", tc.dim, tc.cfg.M), func(t *testing.T) {
			checkBuild(t, clusteredPoints(tc.n, tc.dim, int64(tc.dim)), vecmath.CosineDistanceUnit, tc.cfg)
		})
	}
}

func TestBuildMatchesReferenceOtherDistances(t *testing.T) {
	pts := scaledPoints(clusteredPoints(500, 16, 41), 3, 42)
	// asymmetric is deterministic but dist(a, b) != dist(b, a), so a cached
	// distance stored with its arguments swapped would show.
	asymmetric := func(a, b []float32) float64 {
		return vecmath.EuclideanDistance(a, b) + math.Abs(float64(a[0]))
	}
	t.Run("euclidean", func(t *testing.T) { checkBuild(t, pts, vecmath.EuclideanDistance, smallCfg) })
	t.Run("cosine", func(t *testing.T) { checkBuild(t, pts, vecmath.CosineDistance, smallCfg) })
	t.Run("asymmetric", func(t *testing.T) { checkBuild(t, pts, asymmetric, smallCfg) })
}

// TestBuildMatchesReferenceUnnormalized feeds CosineDistanceUnit points
// with norms up to 1e6, where the float32 test's bound is wide and most
// decisions fall back to the exact distance.
func TestBuildMatchesReferenceUnnormalized(t *testing.T) {
	pts := scaledPoints(clusteredPoints(400, 24, 43), 6, 44)
	checkBuild(t, pts, vecmath.CosineDistanceUnit, smallCfg)
}

func TestBuildMatchesReferenceZeroAndNaN(t *testing.T) {
	pts := clusteredPoints(400, 12, 45)
	pts[7] = make([]float32, 12)
	t.Run("zero", func(t *testing.T) { checkBuild(t, pts, vecmath.CosineDistanceUnit, smallCfg) })
	nan := slices.Clone(pts)
	nan[30] = vecmath.Clone(nan[30])
	nan[30][5] = float32(math.NaN())
	t.Run("nan", func(t *testing.T) { checkBuild(t, nan, vecmath.CosineDistanceUnit, smallCfg) })
}

// TestInsertMatchesReference inserts after the build, with a batch whose
// second vector raises maxNorm, so later re-prunes use a wider bound.
func TestInsertMatchesReference(t *testing.T) {
	pts := clusteredPoints(400, 16, 47)
	extra := clusteredPoints(60, 16, 48)
	extra[1] = vecmath.Scale(40, extra[1])
	atProcs(t, func(t *testing.T) {
		g := New(slices.Clone(pts), vecmath.CosineDistanceUnit, smallCfg)
		want := newRef(slices.Clone(pts), vecmath.CosineDistanceUnit, smallCfg)
		before := g.maxNorm
		g.Insert(extra[:30])
		want.Insert(extra[:30])
		if g.maxNorm <= before {
			t.Fatalf("maxNorm %v did not grow past %v", g.maxNorm, before)
		}
		g.Insert(extra[30:])
		want.Insert(extra[30:])
		sameGraph(t, g, want)
	})
}

// TestRebuildMatchesReference deletes past the rebuild threshold and then
// inserts, so the link-distance table is reset and refilled.
func TestRebuildMatchesReference(t *testing.T) {
	pts := clusteredPoints(300, 16, 49)
	extra := clusteredPoints(40, 16, 50)
	var ids []int
	for id := 0; id < 300; id += 3 { // a third of the points: past 1/4
		ids = append(ids, id)
	}
	atProcs(t, func(t *testing.T) {
		g := New(slices.Clone(pts), vecmath.CosineDistanceUnit, smallCfg)
		want := newRef(slices.Clone(pts), vecmath.CosineDistanceUnit, smallCfg)
		g.DeleteMany(ids)
		want.DeleteMany(ids)
		if g.gen != 1 {
			t.Fatalf("generation %d after deleting a third, want a rebuild", g.gen)
		}
		sameGraph(t, g, want)
		g.Insert(extra)
		want.Insert(extra)
		sameGraph(t, g, want)
	})
}

// TestInsertOverTombstonesMatchesReference deletes every node above layer
// 0, staying under the rebuild threshold, and then inserts: a new node
// with an upper layer finds no live neighbor there and links to nothing.
func TestInsertOverTombstonesMatchesReference(t *testing.T) {
	pts := clusteredPoints(300, 16, 51)
	extra := clusteredPoints(120, 16, 52)
	cfg := Config{EfConstruction: 24, Seed: 7}
	atProcs(t, func(t *testing.T) {
		g := New(slices.Clone(pts), vecmath.CosineDistanceUnit, cfg)
		want := newRef(slices.Clone(pts), vecmath.CosineDistanceUnit, cfg)
		var upper []int
		for i, n := range g.nodes {
			if len(n.layers) > 1 {
				upper = append(upper, i)
			}
		}
		g.DeleteMany(upper)
		want.DeleteMany(upper)
		if len(upper) == 0 || g.gen != 0 {
			t.Fatalf("deleted %d upper-layer nodes, generation %d; want some, and no rebuild", len(upper), g.gen)
		}
		g.Insert(extra)
		want.Insert(extra)
		sameGraph(t, g, want)
	})
}

// checkLifecycle builds the first half of pts with New and with the
// reference, inserts the second half, deletes every third point (past the
// rebuild threshold) and inserts the deleted points again, comparing the
// graphs after each step.
func checkLifecycle(t *testing.T, pts [][]float32, dist vecmath.DistanceFunc, cfg Config) {
	t.Helper()
	atProcs(t, func(t *testing.T) {
		half := len(pts) / 2
		g := New(slices.Clone(pts[:half]), dist, cfg)
		want := newRef(slices.Clone(pts[:half]), dist, cfg)
		sameGraph(t, g, want)
		g.Insert(pts[half:])
		want.Insert(pts[half:])
		sameGraph(t, g, want)
		var ids []int
		var again [][]float32
		for id := 0; id < len(pts); id += 3 {
			ids = append(ids, id)
			again = append(again, pts[id])
		}
		g.DeleteMany(ids)
		want.DeleteMany(ids)
		if g.gen != 1 {
			t.Fatalf("generation %d after deleting a third, want a rebuild", g.gen)
		}
		sameGraph(t, g, want)
		g.Insert(again)
		want.Insert(again)
		sameGraph(t, g, want)
	})
}

// TestTiesMatchReference builds inputs where many link distances tie, so
// the re-prune's order among equal distances decides the graph: each
// distinct point repeated four times under CosineDistanceUnit, and the
// {-1, 0, 1}^4 grid (zero vector included) under the Euclidean and cosine
// distances. {M: 3, EfConstruction: 8} makes addNode's selection fill the
// list, so the first reverse link already re-prunes it.
func TestTiesMatchReference(t *testing.T) {
	distinct := clusteredPoints(60, 8, 53)
	var dups [][]float32
	for r := 0; r < 4; r++ {
		dups = append(dups, distinct...)
	}
	var grid [][]float32
	for c := 0; c < 81; c++ {
		p := make([]float32, 4)
		for k, v := 0, c; k < 4; k, v = k+1, v/3 {
			p[k] = float32(v%3 - 1)
		}
		grid = append(grid, p)
	}
	inputs := []struct {
		name string
		pts  [][]float32
		dist vecmath.DistanceFunc
	}{
		{"duplicates/unit-cosine", dups, vecmath.CosineDistanceUnit},
		{"grid/euclidean", grid, vecmath.EuclideanDistance},
		{"grid/cosine", grid, vecmath.CosineDistance},
	}
	cfgs := []Config{smallCfg, {M: 3, EfConstruction: 8, Seed: 8}, {Seed: 9}}
	for _, in := range inputs {
		for _, cfg := range cfgs {
			t.Run(fmt.Sprintf("%s/M=%d/ef=%d", in.name, cfg.M, cfg.EfConstruction), func(t *testing.T) {
				checkLifecycle(t, in.pts, in.dist, cfg)
			})
		}
	}
}
