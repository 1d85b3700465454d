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
	want := []string{BackendBrute, BackendHNSW}
	if !slices.Equal(names, want) {
		t.Fatalf("Backends() = %v, want %v", names, want)
	}
	cases := backendCases()
	if len(cases) != len(names) {
		t.Fatalf("backendCases covers %d backends, registry has %d", len(cases), len(names))
	}
}

// TestBackendCapabilities pins what every registered backend offers a
// model: it builds under both metrics and mutates in place.
func TestBackendCapabilities(t *testing.T) {
	pts := clusteredPoints(20, 8, 3)
	for _, name := range Backends() {
		for _, m := range []vecmath.Metric{vecmath.Cosine, vecmath.Euclidean} {
			idx, err := NewBackend(name, slices.Clone(pts), BackendOptions{Metric: m, Seed: 1})
			if err != nil {
				t.Fatalf("building %s under %v: %v", name, m, err)
			}
			if _, dyn := idx.(DynamicIndex); !dyn {
				t.Errorf("%s under %v does not implement DynamicIndex", name, m)
			}
			if ids := idx.RangeSearch(pts[0], 1e-6); !slices.Contains(ids, 0) {
				t.Errorf("%s under %v: self-query missed: %v", name, m, ids)
			}
		}
	}
}

func TestNewBackendErrors(t *testing.T) {
	pts := clusteredPoints(20, 8, 1)
	// The baselines' structures are built directly, never by name.
	for _, name := range []string{"faiss", "covertree", "kmeanstree", "grid"} {
		if _, err := NewBackend(name, pts, BackendOptions{}); err == nil || !strings.Contains(err.Error(), "unknown backend") {
			t.Fatalf("NewBackend(%q) error = %v", name, err)
		}
	}
}

// TestEveryBackendBuildsAndAnswers exercises the registry end to end:
// each backend builds, answers a self-query, streams through the wave
// driver exactly the answers of its per-query RangeSearch, and answers
// against a per-pair scan under its metric — exactly for brute force,
// soundly (every id a true neighbor) for HNSW. The 8-d random unit
// vectors at eps 0.4 are the input on which a cosine cover tree, pruning
// with a triangle inequality cosine distance does not obey, missed
// neighbors on every query.
func TestEveryBackendBuildsAndAnswers(t *testing.T) {
	inputs := []struct {
		name string
		pts  [][]float32
	}{
		{"clustered", clusteredPoints(50, 8, 5)},
		{"random-8d", randomUnitPoints(1000, 8, 31)},
	}
	for _, in := range inputs {
		pts := in.pts
		for _, c := range backendCases() {
			label := c.backend + "/" + in.name
			idx, err := NewBackend(c.backend, slices.Clone(pts), c.opts)
			if err != nil {
				t.Fatalf("building %s: %v", label, err)
			}
			if idx.Len() != len(pts) {
				t.Fatalf("%s: Len = %d, want %d", label, idx.Len(), len(pts))
			}
			if ids := idx.RangeSearch(pts[0], 1e-6); !slices.Contains(ids, 0) {
				t.Fatalf("%s: self-query missed: %v", label, ids)
			}
			queries := pts[:12]
			got := collectStream(len(queries), func(fn func(int, []int)) {
				if err := BatchRangeSearchFunc(context.Background(), idx, queries, c.eps, 2, 2, 5, fn); err != nil {
					t.Fatalf("%s: BatchRangeSearchFunc: %v", label, err)
				}
			})
			for i, q := range queries {
				assertSameIDs(t, label, got[i], idx.RangeSearch(q, c.eps))
			}
			dist := c.opts.Metric.Func()
			for qi, q := range pts[:min(len(pts), 200)] {
				ids := idx.RangeSearch(q, c.eps)
				if c.exact {
					var want []int
					for j, p := range pts {
						if dist(q, p) < c.eps {
							want = append(want, j)
						}
					}
					assertSameIDs(t, label, ids, want)
					continue
				}
				for _, id := range ids {
					if d := dist(q, pts[id]); d >= c.eps {
						t.Fatalf("%s: query %d reported id %d at distance %v >= eps %v", label, qi, id, d, c.eps)
					}
				}
			}
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
