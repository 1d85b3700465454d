package cluster

import (
	"slices"
	"testing"
)

// TestResolveCanonicalIgnoresStaleEntries checks demotion tolerance:
// adjacency entries pointing at no-longer-core points must not leak labels.
func TestResolveCanonicalIgnoresStaleEntries(t *testing.T) {
	core := []bool{true, false, false}
	adj := [][]int32{{}, {0, 2}, {2}} // 2 is stale (demoted)
	labels := ResolveCanonical(core, adj)
	want := []int{1, 1, Noise}
	if !slices.Equal(labels, want) {
		t.Fatalf("labels = %v, want %v", labels, want)
	}
}

// TestRenumberAscending pins the canonicalization and cluster count that
// every engine, model maintenance and a model load finish with.
func TestRenumberAscending(t *testing.T) {
	labels := []int{7, Noise, 3, 7, 12, 3}
	k := RenumberAscending(labels)
	want := []int{2, Noise, 1, 2, 3, 1}
	if k != 3 || !slices.Equal(labels, want) {
		t.Fatalf("k = %d labels = %v, want 3 %v", k, labels, want)
	}
	// Idempotent on an already-canonical labeling.
	if k := RenumberAscending(labels); k != 3 || !slices.Equal(labels, want) {
		t.Fatalf("renumber not idempotent: %v", labels)
	}
}
