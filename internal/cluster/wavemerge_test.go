package cluster

import (
	"context"
	"testing"

	"lafdbscan/internal/dataset"
	"lafdbscan/internal/index"
	"lafdbscan/internal/vecmath"
)

// TestWaveMergerStubsBounded checks the memory contract the wave engine is
// built on: after a full absorb sweep, no retained stub is tau or longer
// (core lists are never retained at all).
func TestWaveMergerStubsBounded(t *testing.T) {
	d := dataset.MSLike(300, 22)
	const eps, tau = 0.55, 5
	idx := index.NewBruteForce(d.Vectors, vecmath.CosineDistanceUnit)
	n := d.Len()
	m := NewWaveMerger(n, tau, true)
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
