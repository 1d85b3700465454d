package index

import (
	"context"
	"slices"
	"strings"
	"testing"

	"lafdbscan/internal/vecmath"
)

func TestBackendsListing(t *testing.T) {
	names := Backends()
	want := []string{BackendBrute, BackendHNSW, BackendCoverTree, BackendKMeansTree, BackendGrid}
	if !slices.Equal(names, want) {
		t.Fatalf("Backends() = %v, want %v", names, want)
	}
	for _, n := range names {
		if _, ok := LookupBackend(n); !ok {
			t.Fatalf("LookupBackend(%q) not found", n)
		}
	}
	if _, ok := LookupBackend("faiss"); ok {
		t.Fatal("LookupBackend accepted an unknown name")
	}
}

func TestBackendCapabilities(t *testing.T) {
	brute, _ := LookupBackend(BackendBrute)
	if !brute.Exact || !brute.Dynamic || brute.KNN || !brute.Cosine || !brute.Euclidean {
		t.Fatalf("brute capabilities wrong: %+v", brute)
	}
	hnswCaps, _ := LookupBackend(BackendHNSW)
	if hnswCaps.Exact || !hnswCaps.Dynamic || !hnswCaps.KNN || !hnswCaps.Cosine || !hnswCaps.Euclidean {
		t.Fatalf("hnsw capabilities wrong: %+v", hnswCaps)
	}
	grid, _ := LookupBackend(BackendGrid)
	if grid.Cosine || !grid.Euclidean || !grid.NeedsEps {
		t.Fatalf("grid capabilities wrong: %+v", grid)
	}
}

func TestNewBackendErrors(t *testing.T) {
	pts := clusteredPoints(20, 8, 1)
	if _, err := NewBackend("faiss", pts, BackendOptions{}); err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("unknown backend error = %v", err)
	}
	// Metric-capability rejection: the grid answers Euclidean only.
	if _, err := NewBackend(BackendGrid, pts, BackendOptions{Metric: vecmath.Cosine, Eps: 0.5}); err == nil ||
		!strings.Contains(err.Error(), "does not support metric cosine") {
		t.Fatalf("grid+cosine error = %v", err)
	}
	// NeedsEps rejection: no radius, no grid.
	if _, err := NewBackend(BackendGrid, pts, BackendOptions{Metric: vecmath.Euclidean}); err == nil ||
		!strings.Contains(err.Error(), "query radius") {
		t.Fatalf("grid-without-eps error = %v", err)
	}
}

// TestEveryBackendBuildsAndAnswers exercises the registry end to end:
// each backend builds under a supported configuration, answers a
// self-query, and streams through the wave driver exactly the answers of
// its per-query RangeSearch.
func TestEveryBackendBuildsAndAnswers(t *testing.T) {
	pts := clusteredPoints(50, 8, 5)
	for _, c := range conformanceCases() {
		idx, err := NewBackend(c.backend, slices.Clone(pts), c.opts)
		if err != nil {
			t.Fatalf("building %s: %v", c.backend, err)
		}
		if idx.Len() != len(pts) {
			t.Fatalf("%s: Len = %d, want %d", c.backend, idx.Len(), len(pts))
		}
		if ids := idx.RangeSearch(pts[0], 1e-6); !slices.Contains(ids, 0) {
			t.Fatalf("%s: self-query missed: %v", c.backend, ids)
		}
		queries := pts[:12]
		got := collectStream(len(queries), func(fn func(int, []int)) {
			if err := BatchRangeSearchFunc(context.Background(), idx, queries, c.eps, 2, 2, 5, fn); err != nil {
				t.Fatalf("%s: BatchRangeSearchFunc: %v", c.backend, err)
			}
		})
		for i, q := range queries {
			assertSameIDs(t, c.backend, got[i], idx.RangeSearch(q, c.eps))
		}
	}
}

func TestResolveBackend(t *testing.T) {
	// The default chain requires exactness by default, so resolution lands
	// on brute force — the behavior-preserving default.
	got, err := ResolveBackend(nil, Requirements{Exact: true, Metric: vecmath.Cosine})
	if err != nil || got != BackendBrute {
		t.Fatalf("exact default resolution = %q, %v", got, err)
	}
	// Dropping the exactness requirement opts into the graph.
	got, err = ResolveBackend(nil, Requirements{Metric: vecmath.Cosine})
	if err != nil || got != BackendHNSW {
		t.Fatalf("approx default resolution = %q, %v", got, err)
	}
	// NeedsEps backends are skipped when the caller has no radius.
	got, err = ResolveBackend([]string{BackendGrid, BackendBrute}, Requirements{Metric: vecmath.Euclidean})
	if err != nil || got != BackendBrute {
		t.Fatalf("grid-without-eps resolution = %q, %v", got, err)
	}
	got, err = ResolveBackend([]string{BackendGrid, BackendBrute}, Requirements{Metric: vecmath.Euclidean, HaveEps: true})
	if err != nil || got != BackendGrid {
		t.Fatalf("grid-with-eps resolution = %q, %v", got, err)
	}
	// A chain that cannot satisfy the requirements reports every rejection.
	_, err = ResolveBackend([]string{BackendGrid}, Requirements{Metric: vecmath.Cosine})
	if err == nil || !strings.Contains(err.Error(), "rejected [grid]") {
		t.Fatalf("exhausted-chain error = %v", err)
	}
	// Unknown names fail loudly rather than being skipped.
	if _, err = ResolveBackend([]string{"faiss"}, Requirements{Metric: vecmath.Cosine}); err == nil ||
		!strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("unknown-chain error = %v", err)
	}
	// KNN-requiring resolution skips backends without KNN.
	got, err = ResolveBackend([]string{BackendCoverTree, BackendKMeansTree}, Requirements{KNN: true, Metric: vecmath.Cosine})
	if err != nil || got != BackendKMeansTree {
		t.Fatalf("knn resolution = %q, %v", got, err)
	}
}
