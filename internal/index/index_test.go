package index

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"lafdbscan/internal/vecmath"
)

func randomUnitPoints(n, dim int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float32, n)
	for i := range pts {
		pts[i] = vecmath.RandomUnit(dim, rng)
	}
	return pts
}

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

func sortedCopy(a []int) []int {
	b := append([]int(nil), a...)
	sort.Ints(b)
	return b
}

func equalIDs(a, b []int) bool {
	a, b = sortedCopy(a), sortedCopy(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBruteForceBasics(t *testing.T) {
	pts := [][]float32{{1, 0}, {0, 1}, {-1, 0}}
	bf := NewBruteForce(pts, vecmath.CosineDistanceUnit)
	if bf.Len() != 3 {
		t.Fatalf("Len = %d", bf.Len())
	}
	got := bf.RangeSearch(pts[0], 1.5)
	if !equalIDs(got, []int{0, 1}) { // d(p0,p1)=1 < 1.5, d(p0,p2)=2
		t.Errorf("RangeSearch = %v", got)
	}
	if c := bf.RangeCount(pts[0], 1.5); c != 2 {
		t.Errorf("RangeCount = %d", c)
	}
	if bf.Queries() != 2 {
		t.Errorf("Queries = %d", bf.Queries())
	}
	bf.ResetQueries()
	if bf.Queries() != 0 {
		t.Error("ResetQueries failed")
	}
}

func TestBruteForceStrictInequality(t *testing.T) {
	pts := [][]float32{{1, 0}, {0, 1}}
	bf := NewBruteForce(pts, vecmath.CosineDistanceUnit)
	// d(p0, p1) = 1 exactly; strict < must exclude it.
	if got := bf.RangeSearch(pts[0], 1.0); !equalIDs(got, []int{0}) {
		t.Errorf("strict range returned %v", got)
	}
}

func TestBruteForceEmpty(t *testing.T) {
	bf := NewBruteForce(nil, vecmath.CosineDistance)
	if got := bf.RangeSearch([]float32{1}, 1); got != nil {
		t.Errorf("empty index returned %v", got)
	}
	if c := bf.RangeCount([]float32{1}, 1); c != 0 {
		t.Errorf("empty count = %d", c)
	}
}

// perPairRange is the reference every BruteForce entry point must match:
// the plain loop over the current points, ids ascending.
func perPairRange(pts [][]float32, q []float32, eps float64) []int {
	var out []int
	for j, p := range pts {
		if vecmath.CosineDistanceUnit(q, p) < eps {
			out = append(out, j)
		}
	}
	return out
}

// checkEntryPoints runs RangeSearch, RangeCount and
// the streaming wave path (in tiles of two and of four) for every query at
// eps and at the exact distance from each query to the boundary points,
// give or take one ulp, and compares each with the per-pair loop.
func checkEntryPoints(t *testing.T, stage string, bf *BruteForce, mirror, queries [][]float32, eps float64, boundary [][]float32) {
	t.Helper()
	epss := []float64{eps}
	for _, q := range queries {
		for _, p := range boundary {
			e := vecmath.CosineDistanceUnit(q, p)
			epss = append(epss, math.Nextafter(e, 0), e, math.Nextafter(e, 3))
		}
	}
	for _, e := range epss {
		want := make([][]int, len(queries))
		for i, q := range queries {
			want[i] = perPairRange(mirror, q, e)
			if got := bf.RangeSearch(q, e); !equalIDs(got, want[i]) {
				t.Fatalf("%s: RangeSearch(q%d, %v) = %d ids, per-pair %d", stage, i, e, len(got), len(want[i]))
			}
			if got := bf.RangeCount(q, e); got != len(want[i]) {
				t.Fatalf("%s: RangeCount(q%d, %v) = %d, per-pair %d", stage, i, e, got, len(want[i]))
			}
		}
		// Waves of two run tiles of two queries, each scanned alone; the
		// default wave runs the four-query tile.
		for _, wave := range []int{2, 0} {
			streamed := collectStream(len(queries), func(fn func(int, []int)) {
				if err := BatchRangeSearchFunc(context.Background(), bf, queries, e, 2, 1, wave, fn); err != nil {
					t.Fatal(err)
				}
			})
			for i, got := range streamed {
				if !equalIDs(got, want[i]) {
					t.Fatalf("%s: BatchRangeSearchFunc q%d at %v, wave %d: %d ids, per-pair %d", stage, i, e, wave, len(got), len(want[i]))
				}
			}
		}
	}
}

// TestBruteForceScanMatchesPerPairAfterMutation pins the cosine kernel's
// exactness through mutation: the inserted point's norm dwarfs every
// earlier one, so a maxNorm left at its construction value would let the
// float32 pass decide pairs at eps wrongly; after DeleteMany the stale,
// larger maxNorm must still give the same answers.
func TestBruteForceScanMatchesPerPairAfterMutation(t *testing.T) {
	const dim = 48
	pts := clusteredPoints(6000, dim, 11)
	mirror := append([][]float32(nil), pts...)
	bf := NewBruteForce(append([][]float32(nil), pts...), vecmath.CosineDistanceUnit)
	queries := append([][]float32{}, pts[:4]...)
	checkEntryPoints(t, "fresh", bf, mirror, queries, 0.3, pts[4:8])

	// big = 1e6·r + 0.45·q with r a unit vector orthogonal to queries[0]:
	// distance about 0.55 from it, norm about 1e6.
	rng := rand.New(rand.NewSource(12))
	q := queries[0]
	r := vecmath.RandomGaussian(dim, 0, 1, rng)
	proj := float32(vecmath.Dot(r, q))
	for i := range r {
		r[i] -= proj * q[i]
	}
	vecmath.Normalize(r)
	big := make([]float32, dim)
	for i := range big {
		big[i] = 1e6*r[i] + 0.45*q[i]
	}
	added := [][]float32{big, vecmath.RandomUnit(dim, rng), vecmath.PerturbOnSphere(q, 0.05, rng)}
	bf.Insert(added)
	mirror = append(mirror, added...)
	checkEntryPoints(t, "after Insert", bf, mirror, queries, 0.3, added)

	del := []int{0, 5, 17, 1000, 2999, 3000}
	bf.DeleteMany(del)
	kept := mirror[:0:0]
	for i, p := range mirror {
		if !slices.Contains(del, i) {
			kept = append(kept, p)
		}
	}
	checkEntryPoints(t, "after DeleteMany", bf, kept, queries, 0.3, kept[len(kept)-2:])
}

// TestCoverTreeMatchesBruteForce holds BLOCK-DBSCAN's Euclidean cover tree
// to the exact scan, on clustered data and on the 8-d random unit vectors
// (cosine eps 0.4, converted by Equation 1) that broke a cosine cover tree:
// under a true metric the triangle-inequality pruning loses nothing.
func TestCoverTreeMatchesBruteForce(t *testing.T) {
	pts := clusteredPoints(400, 24, 7)
	bf := NewBruteForce(pts, vecmath.EuclideanDistance)
	ct := NewCoverTree(pts, vecmath.EuclideanDistance, 2.0)
	if ct.Len() != len(pts) {
		t.Fatalf("cover tree Len = %d", ct.Len())
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 25; i++ {
		q := pts[rng.Intn(len(pts))]
		eps := 0.2 + rng.Float64()*1.2
		want := bf.RangeSearch(q, eps)
		got := ct.RangeSearch(q, eps)
		if !equalIDs(got, want) {
			t.Fatalf("cover tree range mismatch at eps=%v: got %d want %d", eps, len(got), len(want))
		}
	}

	r8 := randomUnitPoints(1000, 8, 31)
	bf = NewBruteForce(r8, vecmath.EuclideanDistance)
	ct = NewCoverTree(r8, vecmath.EuclideanDistance, 2.0)
	eps := vecmath.CosineToEuclidean(0.4)
	for i, q := range r8 {
		if got, want := ct.RangeSearch(q, eps), bf.RangeSearch(q, eps); !equalIDs(got, want) {
			t.Fatalf("random 8-d query %d: cover tree found %d, brute force %d", i, len(got), len(want))
		}
	}
}

// Property: cover trees with arbitrary bases in the paper's sweep range stay
// exact.
func TestCoverTreeExactForAnyBase(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := 1.1 + rng.Float64()*3.9 // the paper sweeps 1.1 - 5
		pts := clusteredPoints(150, 12, seed)
		bf := NewBruteForce(pts, vecmath.EuclideanDistance)
		ct := NewCoverTree(pts, vecmath.EuclideanDistance, base)
		for i := 0; i < 5; i++ {
			q := pts[rng.Intn(len(pts))]
			eps := 0.3 + rng.Float64()
			if !equalIDs(ct.RangeSearch(q, eps), bf.RangeSearch(q, eps)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCoverTreeNearestNeighbor(t *testing.T) {
	pts := clusteredPoints(300, 16, 9)
	ct := NewCoverTree(pts, vecmath.EuclideanDistance, 2.0)
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 20; i++ {
		q := vecmath.RandomUnit(16, rng)
		id, d := ct.NearestNeighbor(q)
		// verify against brute force
		bestID, bestD := -1, 1e18
		for j, p := range pts {
			if dd := vecmath.EuclideanDistance(q, p); dd < bestD {
				bestID, bestD = j, dd
			}
		}
		if id != bestID && d > bestD+1e-9 {
			t.Fatalf("NN mismatch: got (%d, %v), want (%d, %v)", id, d, bestID, bestD)
		}
	}
}

func TestCoverTreeEmptyAndSingleton(t *testing.T) {
	ct := NewCoverTree(nil, vecmath.EuclideanDistance, 2)
	if got := ct.RangeSearch([]float32{1}, 5); got != nil {
		t.Errorf("empty tree returned %v", got)
	}
	if id, _ := ct.NearestNeighbor([]float32{1}); id != -1 {
		t.Errorf("empty tree NN id = %d", id)
	}
	one := NewCoverTree([][]float32{{1, 0}}, vecmath.EuclideanDistance, 2)
	if got := one.RangeSearch([]float32{1, 0}, 0.1); !equalIDs(got, []int{0}) {
		t.Errorf("singleton tree returned %v", got)
	}
}

func TestCoverTreeBadBasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCoverTree(nil, vecmath.EuclideanDistance, 1.0)
}

func TestKMeansTreeHighRecallAtFullBudget(t *testing.T) {
	pts := clusteredPoints(500, 32, 11)
	tree := NewKMeansTree(pts, vecmath.CosineDistanceUnit, KMeansTreeConfig{
		Branching: 8, LeavesRatio: 1.0, MaxLeaf: 16, Seed: 1,
	})
	if tree.Len() != 500 {
		t.Fatalf("Len = %d", tree.Len())
	}
	if tree.NumLeaves() < 2 {
		t.Fatalf("NumLeaves = %d", tree.NumLeaves())
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 10; i++ {
		q := pts[rng.Intn(len(pts))]
		ids, dists := tree.KNN(q, 10)
		if len(ids) != 10 {
			t.Fatalf("KNN returned %d ids", len(ids))
		}
		for j := 1; j < len(dists); j++ {
			if dists[j] < dists[j-1] {
				t.Fatal("KNN distances not sorted")
			}
		}
		// With full leaf budget the search is exhaustive: the first result
		// must be the query itself at distance 0.
		if dists[0] > 1e-6 {
			t.Fatalf("self not found, d=%v", dists[0])
		}
	}
}

func TestKMeansTreeRecallDegradesGracefully(t *testing.T) {
	pts := clusteredPoints(600, 24, 13)
	full := NewKMeansTree(pts, vecmath.CosineDistanceUnit, KMeansTreeConfig{
		Branching: 8, LeavesRatio: 1.0, MaxLeaf: 8, Seed: 1,
	})
	tiny := NewKMeansTree(pts, vecmath.CosineDistanceUnit, KMeansTreeConfig{
		Branching: 8, LeavesRatio: 0.05, MaxLeaf: 8, Seed: 1,
	})
	rng := rand.New(rand.NewSource(14))
	var fullHits, tinyHits int
	for i := 0; i < 20; i++ {
		q := pts[rng.Intn(len(pts))]
		truth, _ := full.KNN(q, 5)
		approx, _ := tiny.KNN(q, 5)
		set := make(map[int]bool)
		for _, id := range truth {
			set[id] = true
		}
		for _, id := range approx {
			if set[id] {
				tinyHits++
			}
		}
		fullHits += len(truth)
	}
	if tinyHits == 0 {
		t.Error("tiny budget found nothing at all")
	}
	if tinyHits > fullHits {
		t.Error("impossible recall")
	}
}

func TestKMeansTreeEdgeCases(t *testing.T) {
	tree := NewKMeansTree(nil, vecmath.CosineDistance, KMeansTreeConfig{})
	if ids, _ := tree.KNN([]float32{1}, 3); len(ids) != 0 {
		t.Errorf("empty tree KNN = %v", ids)
	}
	if ids, _ := tree.KNN([]float32{1}, 0); ids != nil {
		t.Errorf("k=0 returned %v", ids)
	}
	dup := make([][]float32, 40)
	for i := range dup {
		dup[i] = []float32{1, 0}
	}
	dt := NewKMeansTree(dup, vecmath.CosineDistanceUnit, KMeansTreeConfig{Branching: 4, MaxLeaf: 4, Seed: 3})
	ids, _ := dt.KNN([]float32{1, 0}, 40)
	if len(ids) != 40 {
		t.Errorf("duplicate-point tree lost points: %d", len(ids))
	}
}

func TestGridMatchesBruteForceAtRhoZero(t *testing.T) {
	// rho = 0: the grid must return exactly the true neighbors.
	pts := clusteredPoints(300, 8, 17)
	g := NewGrid(pts, 0.5, 0)
	bf := NewBruteForce(pts, vecmath.EuclideanDistance)
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 20; i++ {
		q := pts[rng.Intn(len(pts))]
		want := bf.RangeSearch(q, 0.5)
		got := g.ApproxRangeSearch(q, 0.5)
		if !equalIDs(got, want) {
			t.Fatalf("rho=0 grid mismatch: got %d want %d", len(got), len(want))
		}
	}
}

// Property: ρ-approximate semantics. Every true eps-neighbor is counted and
// nothing beyond eps*(1+rho) is.
func TestGridApproxSemantics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := clusteredPoints(200, 6, seed)
		rho := rng.Float64()
		eps := 0.3 + rng.Float64()*0.4
		g := NewGrid(pts, eps, rho)
		q := pts[rng.Intn(len(pts))]
		got := g.ApproxRangeSearch(q, eps)
		inner, outer := 0, 0
		for _, p := range pts {
			d := vecmath.EuclideanDistance(q, p)
			if d < eps {
				inner++
			}
			if d < eps*(1+rho)+1e-9 {
				outer++
			}
		}
		return len(got) >= inner && len(got) <= outer
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestGridPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewGrid(nil, 0, 0) },
		func() { NewGrid(nil, 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestGridCellStructure(t *testing.T) {
	pts := [][]float32{{0.1, 0.1}, {0.11, 0.11}, {5, 5}}
	g := NewGrid(pts, 1.0, 0)
	if g.Len() != 3 {
		t.Errorf("Len = %d", g.Len())
	}
	if g.NumCells() != 2 {
		t.Errorf("NumCells = %d, want 2", g.NumCells())
	}
}

// TestBruteForceStreamingConcurrentCalls runs the wave path from several
// goroutines at once, so concurrent calls share the pooled wave scratch,
// and checks every result against the per-pair loop.
func TestBruteForceStreamingConcurrentCalls(t *testing.T) {
	pts := clusteredPoints(600, 32, 21)
	bf := NewBruteForce(pts, vecmath.CosineDistanceUnit)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				lo := (g*10 + r) * 7 % 500
				queries := pts[lo : lo+1+(r%3)*20]
				got := collectStream(len(queries), func(fn func(int, []int)) {
					if err := BatchRangeSearchFunc(context.Background(), bf, queries, 0.3, 2, 1, 16, fn); err != nil {
						t.Error(err)
					}
				})
				for i, q := range queries {
					if want := perPairRange(pts, q, 0.3); !equalIDs(got[i], want) {
						t.Errorf("goroutine %d call %d query %d: %d ids, per-pair %d", g, r, i, len(got[i]), len(want))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

var scanSink int

// BenchmarkBruteScan times one serial cosine range query over 2^16 to
// 2^20 point-dims (256-d unit points), scanned by the calling goroutine.
func BenchmarkBruteScan(b *testing.B) {
	const dim = 256
	pts := randomUnitPoints((1<<20)/dim, dim, 21)
	for pd := 1 << 16; pd <= 1<<20; pd <<= 1 {
		bf := NewBruteForce(pts[:pd/dim], vecmath.CosineDistanceUnit)
		n := bf.Len()
		b.Run(fmt.Sprintf("pointdims%d/serial", pd), func(b *testing.B) {
			var buf []int
			for i := 0; i < b.N; i++ {
				buf = bf.scan(buf[:0], pts[i%n], 0.5, 0, n)
				scanSink += len(buf)
			}
		})
	}
}
