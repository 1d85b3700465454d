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
	if !brute.Exact || !brute.Dynamic || !brute.Cosine || !brute.Euclidean {
		t.Fatalf("brute capabilities wrong: %+v", brute)
	}
	hnswCaps, _ := LookupBackend(BackendHNSW)
	if hnswCaps.Exact || !hnswCaps.Dynamic || !hnswCaps.Cosine || !hnswCaps.Euclidean {
		t.Fatalf("hnsw capabilities wrong: %+v", hnswCaps)
	}
	grid, _ := LookupBackend(BackendGrid)
	if grid.Cosine || !grid.Euclidean || !grid.NeedsEps {
		t.Fatalf("grid capabilities wrong: %+v", grid)
	}
	// Dynamic is declared exactly where the built index implements
	// DynamicIndex, for every registered backend.
	pts := clusteredPoints(20, 8, 3)
	cases := backendCases()
	if len(cases) != len(Backends()) {
		t.Fatalf("backendCases covers %d backends, registry has %d", len(cases), len(Backends()))
	}
	for _, c := range cases {
		caps, _ := LookupBackend(c.backend)
		idx, err := NewBackend(c.backend, slices.Clone(pts), c.opts)
		if err != nil {
			t.Fatalf("building %s: %v", c.backend, err)
		}
		if _, dyn := idx.(DynamicIndex); dyn != caps.Dynamic {
			t.Errorf("%s: caps.Dynamic = %v, but implements DynamicIndex = %v", c.backend, caps.Dynamic, dyn)
		}
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
	for _, c := range backendCases() {
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

// TestCosineBackendTakesFloat32Kernel guards the one metric-to-distance
// map: cosine resolves to CosineDistanceUnit itself, so a brute-force
// index built through the registry runs the exact float32 scan.
func TestCosineBackendTakesFloat32Kernel(t *testing.T) {
	if !vecmath.IsCosineUnit(vecmath.Cosine.Func()) {
		t.Fatal("vecmath.Cosine.Func() is not CosineDistanceUnit")
	}
	idx, err := NewBackend(BackendBrute, clusteredPoints(20, 8, 2), BackendOptions{Metric: vecmath.Cosine})
	if err != nil {
		t.Fatal(err)
	}
	if !idx.(*BruteForce).unitCos {
		t.Fatal("cosine brute force built through NewBackend skips the float32 kernel")
	}
}
