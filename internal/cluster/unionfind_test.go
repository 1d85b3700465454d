package cluster

import (
	"sync"
	"testing"

	"lafdbscan/internal/dataset"
	"lafdbscan/internal/index"
	"lafdbscan/internal/vecmath"
)

func TestAtomicUnionFindSequential(t *testing.T) {
	u := NewAtomicUnionFind(10)
	u.Union(1, 2)
	u.Union(3, 4)
	if u.Same(1, 3) {
		t.Error("disjoint sets merged")
	}
	u.Union(2, 3)
	if !u.Same(1, 4) {
		t.Error("transitive union broken")
	}
	// Roots are canonical minimum members.
	if r := u.Find(4); r != 1 {
		t.Errorf("root = %d, want 1", r)
	}
	if r := u.Find(0); r != 0 {
		t.Errorf("singleton root = %d", r)
	}
}

func TestAtomicUnionFindConcurrentDeterministic(t *testing.T) {
	const n = 2000
	// A chain 0-1-2-...-n/2 plus scattered pairs, unioned from many
	// goroutines in conflicting orders; the final roots must be the
	// component minima no matter the interleaving.
	u := NewAtomicUnionFind(n)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n/2-1; i += 8 {
				u.Union(i, i+1)
			}
			for i := n/2 + w; i+1 < n; i += 16 {
				u.Union(i+1, i)
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < n/2; i++ {
		if r := u.Find(i); r != 0 {
			t.Fatalf("chain member %d has root %d, want 0", i, r)
		}
	}
}

// TestClusterCoresAndAssignUnionWorkersMatchesSerial pins the wave
// engines' DBSCAN++ tail — core connectivity read off a union-find forest,
// assignment spread over a worker pool — to the serial neighbor-list
// construction.
func TestClusterCoresAndAssignUnionWorkersMatchesSerial(t *testing.T) {
	d := dataset.GloVeLike(300, 3)
	const eps, tau = 0.5, 3
	idx := index.NewBruteForce(d.Vectors, vecmath.CosineDistanceUnit)
	var cores []int
	coreNeighbors := make(map[int][]int)
	m := NewWaveMerger(d.Len(), tau)
	for i := 0; i < d.Len(); i += 2 { // every other point stands in for a sample
		nb := idx.RangeSearch(d.Vectors[i], eps)
		if m.Absorb(i, nb) {
			cores = append(cores, i)
			coreNeighbors[i] = nb
		}
	}
	serial := ClusterCoresAndAssign(d.Vectors, eps, cores, coreNeighbors)
	for _, workers := range []int{0, 2, 5} {
		par := ClusterCoresAndAssignUnionWorkers(d.Vectors, eps, cores, m.UnionFind(), workers, 8)
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d: label[%d] = %d, serial %d", workers, i, par[i], serial[i])
			}
		}
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind()
	if uf.Find(3) != 3 {
		t.Error("fresh key not its own root")
	}
	uf.Union(1, 2)
	uf.Union(2, 3)
	if !uf.Same(1, 3) {
		t.Error("transitive union broken")
	}
	if uf.Same(1, 9) {
		t.Error("disjoint keys reported same")
	}
	root := uf.Find(1)
	if r2 := uf.Union(1, 3); r2 != root {
		t.Error("idempotent union changed root")
	}
}

func TestResultFinalize(t *testing.T) {
	r := &Result{Labels: []int{1, 1, 5, Noise, 9}}
	r.finalize()
	if r.NumClusters != 3 {
		t.Errorf("NumClusters = %d, want 3", r.NumClusters)
	}
}
