package cluster

import (
	"slices"
	"sync"
	"testing"
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

// TestResultFinalize checks a Result finished the way every engine finishes
// one: a gap in the ids counts the clusters, not the largest id.
func TestResultFinalize(t *testing.T) {
	r := &Result{Labels: []int{1, 1, 5, Noise, 9}}
	r.NumClusters = RenumberAscending(r.Labels)
	if r.NumClusters != 3 {
		t.Errorf("NumClusters = %d, want 3", r.NumClusters)
	}
	if want := []int{1, 1, 2, Noise, 3}; !slices.Equal(r.Labels, want) {
		t.Errorf("Labels = %v, want %v", r.Labels, want)
	}
}
