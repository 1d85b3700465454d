package index

import (
	"math/rand"
	"slices"
	"testing"

	"lafdbscan/internal/vecmath"
)

// This file is the shared DynamicIndex conformance suite: one scripted
// battery of Insert/DeleteMany checks, run through the registry against
// every registered backend (brute force and HNSW). The exact backend is
// held to full equivalence with a fresh brute-force scan after every
// mutation; the approximate one is held to the honest subset of that —
// sound answers (every reported id is a true neighbor of the compacted
// live set), exact Len bookkeeping, self-findability of every live point,
// and a recall floor.

// conformanceCase configures one backend run of the suite.
type conformanceCase struct {
	backend string
	exact   bool
	opts    BackendOptions
	eps     float64 // query radius under opts.Metric
}

// backendCases is one configuration per registered backend.
func backendCases() []conformanceCase {
	return []conformanceCase{
		{BackendBrute, true, BackendOptions{Metric: vecmath.Cosine}, 0.4},
		{BackendHNSW, false, BackendOptions{Metric: vecmath.Cosine, Seed: 1}, 0.4},
	}
}

func (c conformanceCase) truthIndex(pts [][]float32) *BruteForce {
	return NewBruteForce(pts, c.opts.Metric.Func())
}

// applyOps drives a DynamicIndex through a scripted mutation sequence and
// mirrors it on a plain slice, returning the expected live point set.
// Deletions are single-id batches. The script crosses HNSW's rebuild
// threshold repeatedly, so the rebuild path is part of conformance, not
// a special case.
func applyOps(t *testing.T, idx DynamicIndex, pts [][]float32, seed int64) [][]float32 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mirror := slices.Clone(pts)
	for step := 0; step < 40; step++ {
		if rng.Intn(2) == 0 && len(mirror) > 8 {
			id := rng.Intn(len(mirror))
			idx.DeleteMany([]int{id})
			mirror = slices.Delete(mirror, id, id+1)
		} else {
			batch := make([][]float32, 1+rng.Intn(3))
			for i := range batch {
				batch[i] = vecmath.RandomUnit(len(mirror[0]), rng)
			}
			idx.Insert(batch)
			mirror = append(mirror, batch...)
		}
	}
	return mirror
}

// checkAnswers holds a mutated index to the conformance bar against the
// live point set.
func checkAnswers(t *testing.T, c conformanceCase, idx RangeSearcher, mirror [][]float32) {
	t.Helper()
	dist := c.opts.Metric.Func()
	truth := c.truthIndex(mirror)
	found, want := 0, 0
	for _, q := range mirror[:min(20, len(mirror))] {
		got := idx.RangeSearch(q, c.eps)
		exact := truth.RangeSearch(q, c.eps)
		if c.exact {
			if !equalIDs(got, exact) {
				t.Fatalf("%s: exact backend diverged from brute force: %v vs %v", c.backend, got, exact)
			}
		} else {
			for _, id := range got {
				if id < 0 || id >= len(mirror) {
					t.Fatalf("%s: out-of-range id %d (live set %d)", c.backend, id, len(mirror))
				}
				if d := dist(q, mirror[id]); d >= c.eps {
					t.Fatalf("%s: reported id %d at distance %v >= eps: compaction broke", c.backend, id, d)
				}
			}
			sorted := sortedCopy(got)
			for _, id := range exact {
				if _, ok := slices.BinarySearch(sorted, id); ok {
					found++
				}
			}
			want += len(exact)
		}
	}
	if !c.exact && want > 0 && float64(found) < 0.9*float64(want) {
		t.Fatalf("%s: recall %d/%d fell under 0.9 after mutations", c.backend, found, want)
	}
	// Every live point must find itself under a near-zero radius — the
	// strongest findability guarantee exact and approximate backends share.
	for i, q := range mirror {
		if ids := idx.RangeSearch(q, 1e-6); !slices.Contains(ids, i) {
			t.Fatalf("%s: live point %d not found by its own query: %v", c.backend, i, ids)
		}
	}
}

// TestDynamicConformance runs the scripted mutation battery against every
// backend: compacting-id semantics, Len bookkeeping and
// post-mutation answers, with HNSW's rebuild threshold crossed along the
// way.
func TestDynamicConformance(t *testing.T) {
	for _, c := range backendCases() {
		c := c
		t.Run(c.backend, func(t *testing.T) {
			pts := clusteredPoints(60, 16, 1)
			built, err := NewBackend(c.backend, slices.Clone(pts), c.opts)
			if err != nil {
				t.Fatalf("building %s: %v", c.backend, err)
			}
			dyn, ok := built.(DynamicIndex)
			if !ok {
				t.Fatalf("%s does not implement DynamicIndex", c.backend)
			}
			mirror := applyOps(t, dyn, pts, 2)
			if built.Len() != len(mirror) {
				t.Fatalf("Len = %d, want %d", built.Len(), len(mirror))
			}
			checkAnswers(t, c, built, mirror)
		})
	}
}

// TestDeleteManyConformance pins the batch-deletion path of every
// backend: one DeleteMany call must leave the index answering for the
// surviving, renumbered point set.
func TestDeleteManyConformance(t *testing.T) {
	for _, c := range backendCases() {
		c := c
		t.Run(c.backend, func(t *testing.T) {
			pts := clusteredPoints(80, 12, 21)
			rng := rand.New(rand.NewSource(22))
			ids := rng.Perm(len(pts))[:25] // 25/80 crosses the rebuild threshold
			slices.Sort(ids)
			mirror := make([][]float32, 0, len(pts)-len(ids))
			for i, p := range pts {
				if !slices.Contains(ids, i) {
					mirror = append(mirror, p)
				}
			}
			built, err := NewBackend(c.backend, slices.Clone(pts), c.opts)
			if err != nil {
				t.Fatalf("building %s: %v", c.backend, err)
			}
			built.(DynamicIndex).DeleteMany(slices.Clone(ids))
			if built.Len() != len(mirror) {
				t.Fatalf("Len = %d, want %d", built.Len(), len(mirror))
			}
			checkAnswers(t, c, built, mirror)
		})
	}
}

// TestDeleteManyMatchesDeleteLoop pins one DeleteMany batch against the
// same ids deleted as single-id batches, highest id first, on every
// backend.
func TestDeleteManyMatchesDeleteLoop(t *testing.T) {
	ids := []int{3, 10, 11, 30, 59}
	for _, c := range backendCases() {
		c := c
		t.Run(c.backend, func(t *testing.T) {
			pts := clusteredPoints(60, 12, 29)
			batch, err := NewBackend(c.backend, slices.Clone(pts), c.opts)
			if err != nil {
				t.Fatalf("building %s: %v", c.backend, err)
			}
			batch.(DynamicIndex).DeleteMany(slices.Clone(ids))
			loop, err := NewBackend(c.backend, slices.Clone(pts), c.opts)
			if err != nil {
				t.Fatalf("building %s: %v", c.backend, err)
			}
			for i := len(ids) - 1; i >= 0; i-- {
				loop.(DynamicIndex).DeleteMany([]int{ids[i]})
			}
			if batch.Len() != loop.Len() {
				t.Fatalf("Len diverged: %d vs %d", batch.Len(), loop.Len())
			}
			mirror := slices.Clone(pts)
			for i := len(ids) - 1; i >= 0; i-- {
				mirror = slices.Delete(mirror, ids[i], ids[i]+1)
			}
			// Self-queries give a deterministic comparison that is valid
			// for approximate backends too (an index must always find an
			// indexed point at radius ~0).
			for i, q := range mirror[:20] {
				a := batch.RangeSearch(q, 1e-6)
				b := loop.RangeSearch(q, 1e-6)
				if !slices.Contains(a, i) || !slices.Contains(b, i) {
					t.Fatalf("point %d lost: batch=%v loop=%v", i, a, b)
				}
			}
		})
	}
}
