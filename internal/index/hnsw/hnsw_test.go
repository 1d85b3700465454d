package hnsw

import (
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"lafdbscan/internal/vecmath"
)

func clusteredPoints(n, dim int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float32, 0, n)
	centers := make([][]float32, 5)
	for i := range centers {
		centers[i] = vecmath.RandomUnit(dim, rng)
	}
	for len(pts) < n {
		c := centers[rng.Intn(len(centers))]
		pts = append(pts, vecmath.PerturbOnSphere(c, 0.08, rng))
	}
	return pts
}

func randomUnitPoints(n, dim int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float32, n)
	for i := range pts {
		pts[i] = vecmath.RandomUnit(dim, rng)
	}
	return pts
}

// bruteRange is the exact reference answer.
func bruteRange(pts [][]float32, q []float32, eps float64) []int {
	var out []int
	for i, p := range pts {
		if vecmath.CosineDistanceUnit(q, p) < eps {
			out = append(out, i)
		}
	}
	return out
}

func sortedCopy(a []int) []int {
	b := slices.Clone(a)
	sort.Ints(b)
	return b
}

// TestDeterministicBuild pins the determinism contract: two graphs built
// with the same seed over the same points answer every query with the
// same ids in the same order.
func TestDeterministicBuild(t *testing.T) {
	pts := clusteredPoints(300, 16, 1)
	a := New(slices.Clone(pts), vecmath.CosineDistanceUnit, Config{Seed: 42})
	b := New(slices.Clone(pts), vecmath.CosineDistanceUnit, Config{Seed: 42})
	if a.TopLayer() != b.TopLayer() {
		t.Fatalf("top layers differ: %d vs %d", a.TopLayer(), b.TopLayer())
	}
	for _, q := range pts[:30] {
		ga, gb := a.RangeSearch(q, 0.3), b.RangeSearch(q, 0.3)
		if !slices.Equal(ga, gb) {
			t.Fatalf("same-seed graphs diverged: %v vs %v", ga, gb)
		}
	}
}

// TestRangeSearchIsSound checks the one-sided error contract: every id a
// range query reports is a true eps-neighbor (the approximation may only
// miss, never invent).
func TestRangeSearchIsSound(t *testing.T) {
	pts := clusteredPoints(500, 16, 3)
	g := New(slices.Clone(pts), vecmath.CosineDistanceUnit, Config{Seed: 7})
	for _, q := range pts[:50] {
		got := g.RangeSearch(q, 0.3)
		for _, id := range got {
			if d := vecmath.CosineDistanceUnit(q, pts[id]); d >= 0.3 {
				t.Fatalf("reported id %d at distance %v >= eps", id, d)
			}
		}
		if n := g.RangeCount(q, 0.3); n != len(got) {
			t.Fatalf("RangeCount = %d, RangeSearch returned %d ids", n, len(got))
		}
	}
}

// measureRecall runs every point as a query and returns found/true
// neighbor totals against the exact scan.
func measureRecall(g *Graph, pts [][]float32, eps float64, queries int) (found, want int) {
	for _, q := range pts[:queries] {
		truth := bruteRange(pts, q, eps)
		got := sortedCopy(g.RangeSearch(q, eps))
		want += len(truth)
		i := 0
		for _, id := range truth {
			for i < len(got) && got[i] < id {
				i++
			}
			if i < len(got) && got[i] == id {
				found++
				i++
			}
		}
	}
	return found, want
}

// TestRangeRecallAtDefaults asserts the acceptance criterion directly:
// recall vs brute force >= 0.95 at the default EfSearch, on the same
// synthetic clustered workload the clustering tests use.
func TestRangeRecallAtDefaults(t *testing.T) {
	pts := clusteredPoints(2000, 16, 5)
	g := New(slices.Clone(pts), vecmath.CosineDistanceUnit, Config{Seed: 11})
	found, want := measureRecall(g, pts, 0.05, 200)
	if want == 0 {
		t.Fatal("degenerate workload: no true neighbors")
	}
	if recall := float64(found) / float64(want); recall < 0.95 {
		t.Fatalf("recall %.4f < 0.95 at default EfSearch (%d/%d)", recall, found, want)
	}
}

// TestEfSearchKnob checks the knob moves recall in the right direction:
// a wider candidate list can only find more of the true neighbors.
func TestEfSearchKnob(t *testing.T) {
	pts := clusteredPoints(1500, 16, 9)
	g := New(slices.Clone(pts), vecmath.CosineDistanceUnit, Config{Seed: 13, EfSearch: 4})
	lowFound, want := measureRecall(g, pts, 0.05, 150)
	g.SetEfSearch(256)
	highFound, _ := measureRecall(g, pts, 0.05, 150)
	if highFound < lowFound {
		t.Fatalf("recall fell when EfSearch rose: %d/%d -> %d/%d", lowFound, want, highFound, want)
	}
	if highFound < want*95/100 {
		t.Fatalf("EfSearch=256 recall %d/%d below 0.95", highFound, want)
	}
}

// TestKNN checks ordering, k-truncation and approximate agreement with
// the exact nearest neighbor on an easy workload.
func TestKNN(t *testing.T) {
	pts := clusteredPoints(800, 16, 15)
	g := New(slices.Clone(pts), vecmath.CosineDistanceUnit, Config{Seed: 17})
	for qi, q := range pts[:40] {
		ids, ds := g.KNN(q, 10)
		if len(ids) != 10 || len(ds) != 10 {
			t.Fatalf("KNN returned %d ids, %d dists", len(ids), len(ds))
		}
		if !sort.Float64sAreSorted(ds) {
			t.Fatalf("KNN distances not ascending: %v", ds)
		}
		// The query is an indexed point, so its own id must be the 0-distance head.
		if ids[0] != qi || ds[0] > 1e-6 {
			t.Fatalf("query %d: self not at head: ids[0]=%d d=%v", qi, ids[0], ds[0])
		}
	}
	if ids, _ := g.KNN(pts[0], 0); ids != nil {
		t.Fatalf("KNN(k=0) = %v, want nil", ids)
	}
}

// TestDynamicMutations drives a scripted insert/delete mix and checks the
// compacting-id semantics: Len tracks a mirrored slice, reported ids are
// always valid external ids, and every reported id is a true neighbor of
// the current live set.
func TestDynamicMutations(t *testing.T) {
	pts := clusteredPoints(80, 16, 21)
	g := New(slices.Clone(pts), vecmath.CosineDistanceUnit, Config{Seed: 23})
	mirror := slices.Clone(pts)
	rng := rand.New(rand.NewSource(22))
	for step := 0; step < 60; step++ {
		if rng.Intn(2) == 0 && len(mirror) > 8 {
			id := rng.Intn(len(mirror))
			g.Delete(id)
			mirror = slices.Delete(mirror, id, id+1)
		} else {
			batch := make([][]float32, 1+rng.Intn(3))
			for i := range batch {
				batch[i] = vecmath.RandomUnit(len(mirror[0]), rng)
			}
			g.Insert(batch)
			mirror = append(mirror, batch...)
		}
		if g.Len() != len(mirror) {
			t.Fatalf("step %d: Len = %d, want %d", step, g.Len(), len(mirror))
		}
	}
	for _, q := range mirror[:20] {
		for _, id := range g.RangeSearch(q, 0.4) {
			if id < 0 || id >= len(mirror) {
				t.Fatalf("out-of-range id %d (live set %d)", id, len(mirror))
			}
			if d := vecmath.CosineDistanceUnit(q, mirror[id]); d >= 0.4 {
				t.Fatalf("id %d maps to distance %v >= eps: compaction broke", id, d)
			}
		}
	}
	// Every surviving point must find itself: the strongest findability
	// check an approximate index can honestly promise.
	for i, q := range mirror {
		if ids := g.RangeSearch(q, 1e-6); !slices.Contains(ids, i) {
			t.Fatalf("live point %d not found by its own query: %v", i, ids)
		}
	}
}

// TestDeleteRebuild forces the tombstone share over the rebuild threshold
// and checks the compaction.
func TestDeleteRebuild(t *testing.T) {
	pts := clusteredPoints(40, 8, 25)
	g := New(slices.Clone(pts), vecmath.CosineDistanceUnit, Config{Seed: 27})
	mirror := slices.Clone(pts)
	for i := 0; i < 20; i++ { // 50% deleted: crosses the 25% threshold twice
		g.Delete(0)
		mirror = mirror[1:]
	}
	if g.Len() != len(mirror) {
		t.Fatalf("Len = %d, want %d", g.Len(), len(mirror))
	}
	if g.gen == 0 {
		t.Fatal("50% deletion never crossed the rebuild threshold")
	}
	if len(g.nodes)-g.dead != len(mirror) {
		t.Fatalf("slot bookkeeping broke: %d nodes, %d dead, %d live points", len(g.nodes), g.dead, len(mirror))
	}
	for i, q := range mirror {
		if ids := g.RangeSearch(q, 1e-6); !slices.Contains(ids, i) {
			t.Fatalf("post-rebuild point %d not found by its own query: %v", i, ids)
		}
	}
}

// TestDeleteManyMatchesDeleteLoop pins DeleteMany against the per-id loop
// it replaces: both orders of the same batch leave identical live sets.
func TestDeleteManyMatchesDeleteLoop(t *testing.T) {
	pts := clusteredPoints(60, 12, 29)
	ids := []int{3, 10, 11, 30, 59}

	batch := New(slices.Clone(pts), vecmath.CosineDistanceUnit, Config{Seed: 31})
	batch.DeleteMany(slices.Clone(ids))

	loop := New(slices.Clone(pts), vecmath.CosineDistanceUnit, Config{Seed: 31})
	for i := len(ids) - 1; i >= 0; i-- { // highest first, like the contract
		loop.Delete(ids[i])
	}
	if batch.Len() != loop.Len() {
		t.Fatalf("Len diverged: %d vs %d", batch.Len(), loop.Len())
	}
	mirror := slices.Clone(pts)
	for i := len(ids) - 1; i >= 0; i-- {
		mirror = slices.Delete(mirror, ids[i], ids[i]+1)
	}
	for _, q := range mirror[:20] {
		a := sortedCopy(batch.RangeSearch(q, 1e-6))
		b := sortedCopy(loop.RangeSearch(q, 1e-6))
		if !slices.Equal(a, b) {
			t.Fatalf("DeleteMany vs Delete loop diverged: %v vs %v", a, b)
		}
	}
}

// TestDeleteOutOfRangePanics pins the id contract of Delete and
// DeleteMany: an id outside [0, Len()) panics, like slices.Delete on the
// point set, and leaves Len and the rebuild bookkeeping untouched.
func TestDeleteOutOfRangePanics(t *testing.T) {
	g := New(clusteredPoints(20, 8, 37), vecmath.CosineDistanceUnit, Config{Seed: 39})
	g.Delete(0)
	for _, tc := range []struct {
		name string
		del  func()
	}{
		{"Delete(Len())", func() { g.Delete(g.Len()) }},
		{"Delete(-1)", func() { g.Delete(-1) }},
		{"DeleteMany past Len", func() { g.DeleteMany([]int{1, g.Len()}) }},
		{"DeleteMany negative", func() { g.DeleteMany([]int{-1, 2}) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.del()
		}()
		if g.Len() != 19 || g.dead != 1 {
			t.Fatalf("after %s: Len %d, dead %d; want 19, 1", tc.name, g.Len(), g.dead)
		}
	}
}

// TestEmptyAndDegenerate covers the zero-value edges.
func TestEmptyAndDegenerate(t *testing.T) {
	g := New(nil, vecmath.CosineDistanceUnit, Config{})
	if g.Len() != 0 || g.TopLayer() != -1 {
		t.Fatalf("empty graph: Len=%d TopLayer=%d", g.Len(), g.TopLayer())
	}
	q := []float32{1, 0}
	if ids := g.RangeSearch(q, 1); ids != nil {
		t.Fatalf("empty RangeSearch = %v", ids)
	}
	g.Insert([][]float32{{1, 0}, {0, 1}})
	if g.Len() != 2 {
		t.Fatalf("Len after insert = %d", g.Len())
	}
	if ids := g.RangeSearch(q, 0.5); !slices.Contains(ids, 0) {
		t.Fatalf("inserted point not found: %v", ids)
	}
}

// TestQueryScalingIsSubLinear is the wall-clock-free form of the
// sub-linearity acceptance criterion: distance evaluations per query
// (counted through an instrumented DistanceFunc) must grow far slower
// than the 10x growth in points. Brute force would grow exactly 10x.
func TestQueryScalingIsSubLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 30k-point graph; skipped in -short")
	}
	evalsPerQuery := func(n int) float64 {
		pts := randomUnitPoints(n, 24, 33)
		var evals atomic.Int64 // the build calls dist from several goroutines
		counting := func(a, b []float32) float64 {
			evals.Add(1)
			return vecmath.CosineDistanceUnit(a, b)
		}
		g := New(pts, counting, Config{Seed: 35})
		evals.Store(0)
		queries := randomUnitPoints(200, 24, 34)
		for _, q := range queries {
			g.RangeSearch(q, 0.1)
		}
		return float64(evals.Load()) / float64(len(queries))
	}
	small := evalsPerQuery(3000)
	large := evalsPerQuery(30000)
	if ratio := large / small; ratio >= 4 {
		t.Fatalf("distance evals grew %.1fx for 10x points (%.0f -> %.0f): not sub-linear", ratio, small, large)
	}
}
