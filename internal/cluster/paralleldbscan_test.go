package cluster

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"lafdbscan/internal/dataset"
	"lafdbscan/internal/index"
	"lafdbscan/internal/metrics"
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

// parallelTestSets returns the synthetic datasets the equivalence tests
// sweep: the three corpus families at test scale.
func parallelTestSets() []*dataset.Dataset {
	return []*dataset.Dataset{
		dataset.GloVeLike(400, 7),
		dataset.MSLike(300, 8),
		dataset.NYTLike(dataset.NYTLikeConfig{N: 300, Seed: 9, NoiseFrac: 0.15}),
		dataset.TwoBlobs(40, 10),
	}
}

// TestParallelDBSCANMatchesSequential asserts the parallel driver's labels
// are identical to sequential DBSCAN's — exact equality, which implies the
// issue's ARI == 1.0 criterion — across datasets, parameters and worker
// counts.
func TestParallelDBSCANMatchesSequential(t *testing.T) {
	for _, d := range parallelTestSets() {
		for _, s := range []struct {
			eps float64
			tau int
		}{{0.4, 3}, {0.55, 5}} {
			seq, err := (&DBSCAN{Points: d.Vectors, Eps: s.eps, Tau: s.tau}).Run()
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4, runtime.NumCPU()} {
				name := fmt.Sprintf("%s/eps=%v,tau=%d/w=%d", d.Name, s.eps, s.tau, workers)
				par, err := (&ParallelDBSCAN{
					Points: d.Vectors, Eps: s.eps, Tau: s.tau,
					Workers: workers, BatchSize: 8,
				}).Run()
				if err != nil {
					t.Fatal(err)
				}
				if par.NumClusters != seq.NumClusters {
					t.Errorf("%s: %d clusters, sequential %d", name, par.NumClusters, seq.NumClusters)
				}
				if par.RangeQueries != seq.RangeQueries {
					t.Errorf("%s: %d queries, sequential %d", name, par.RangeQueries, seq.RangeQueries)
				}
				for i := range seq.Labels {
					if par.Labels[i] != seq.Labels[i] {
						t.Fatalf("%s: label[%d] = %d, sequential %d", name, i, par.Labels[i], seq.Labels[i])
					}
				}
				ari, err := metrics.ARI(seq.Labels, par.Labels)
				if err != nil {
					t.Fatal(err)
				}
				if ari != 1.0 {
					t.Errorf("%s: ARI = %v, want 1.0", name, ari)
				}
			}
		}
	}
}

func TestParallelDBSCANValidation(t *testing.T) {
	if _, err := (&ParallelDBSCAN{Points: nil, Eps: 0.5, Tau: 3}).Run(); err == nil {
		t.Error("empty dataset accepted")
	}
	d := dataset.TwoBlobs(5, 1)
	if _, err := (&ParallelDBSCAN{Points: d.Vectors, Eps: -1, Tau: 3}).Run(); err == nil {
		t.Error("negative eps accepted")
	}
	if _, err := (&ParallelDBSCAN{Points: d.Vectors, Eps: 0.5, Tau: 0}).Run(); err == nil {
		t.Error("zero tau accepted")
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
