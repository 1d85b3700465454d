package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"lafdbscan/internal/dataset"
	"lafdbscan/internal/index"
	"lafdbscan/internal/metrics"
	"lafdbscan/internal/vecmath"
)

// TestWaveEngineMatchesSequentialAcrossWaveSizes pins the wave engine's
// labels to sequential DBSCAN's — exact equality, which implies the
// ARI == 1.0 criterion — across wave sizes from one query per wave to one
// wave holding every query, at several worker counts. Run
// under -race this also exercises the publish-then-scan handshake that
// folds core-core unions into in-flight waves.
func TestWaveEngineMatchesSequentialAcrossWaveSizes(t *testing.T) {
	for _, d := range parallelTestSets() {
		seq, err := (&DBSCAN{Points: d.Vectors, Eps: 0.5, Tau: 4}).Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, wave := range []int{0, 1, 7, 64, 100000} {
			for _, workers := range []int{1, 4, runtime.NumCPU()} {
				name := fmt.Sprintf("%s/wave=%d/w=%d", d.Name, wave, workers)
				par, err := (&ParallelDBSCAN{
					Points: d.Vectors, Eps: 0.5, Tau: 4,
					Workers: workers, BatchSize: 8, WaveSize: wave,
				}).Run()
				if err != nil {
					t.Fatal(err)
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

// TestWaveMergerMatchesSequentialDBSCAN drives the merger directly with
// precomputed neighbor lists absorbed concurrently in shuffled order — the
// worst case for the publish-then-scan handshake — and checks the resolved
// labels against sequential DBSCAN's.
func TestWaveMergerMatchesSequentialDBSCAN(t *testing.T) {
	d := dataset.GloVeLike(500, 21)
	const eps, tau = 0.5, 4
	idx := index.NewBruteForce(d.Vectors, vecmath.CosineDistanceUnit)
	n := d.Len()
	neighbors := make([][]int, n)
	for p, v := range d.Vectors {
		neighbors[p] = idx.RangeSearch(v, eps)
	}
	seq, err := (&DBSCAN{Points: d.Vectors, Eps: eps, Tau: tau, Index: idx}).Run()
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Labels

	for trial := 0; trial < 3; trial++ {
		order := rand.New(rand.NewSource(int64(trial))).Perm(n)
		m := NewWaveMerger(n, tau)
		var wg sync.WaitGroup
		const goroutines = 8
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := g; k < n; k += goroutines {
					p := order[k]
					m.Absorb(p, neighbors[p])
				}
			}(g)
		}
		wg.Wait()
		got := m.Resolve(nil)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: label[%d] = %d, want %d", trial, i, got[i], want[i])
			}
		}
	}
}

// TestWaveMergerStubsBounded checks the memory contract the wave engine is
// built on: after a full absorb sweep, no retained stub is tau or longer
// (core lists are never retained at all).
func TestWaveMergerStubsBounded(t *testing.T) {
	d := dataset.MSLike(300, 22)
	const eps, tau = 0.55, 5
	idx := index.NewBruteForce(d.Vectors, vecmath.CosineDistanceUnit)
	n := d.Len()
	m := NewWaveMerger(n, tau)
	if err := index.BatchRangeSearchFunc(context.Background(), idx, d.Vectors, eps, 2, 4, 32,
		func(p int, ids []int) { m.Absorb(p, ids) }); err != nil {
		t.Fatal(err)
	}
	core := m.Core()
	for p, stub := range m.stubs {
		if core[p] && stub != nil {
			t.Fatalf("core point %d retained a neighbor list", p)
		}
		if len(stub) >= tau {
			t.Fatalf("stub[%d] has %d entries, want < %d", p, len(stub), tau)
		}
	}
}
