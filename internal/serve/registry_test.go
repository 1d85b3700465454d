package serve

import (
	"context"
	"errors"
	"sync"
	"testing"

	"lafdbscan"
	"lafdbscan/internal/dataset"
)

// TestRegistrySharesOneIndex checks the index amortization: concurrent
// requests for the same (dataset, metric) get the same index instance, and
// different metrics get different ones.
func TestRegistrySharesOneIndex(t *testing.T) {
	reg := testRegistry(t, "d", 40)
	const goroutines = 8
	got := make([]lafdbscan.RangeIndex, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			idx, backend, err := reg.Index("d", lafdbscan.MetricCosine, "")
			if err != nil {
				t.Error(err)
				return
			}
			if backend != "brute" {
				t.Errorf("default backend = %q, want brute", backend)
			}
			got[i] = idx
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent Index calls built distinct indexes")
		}
	}
	euc, _, err := reg.Index("d", lafdbscan.MetricEuclidean, "")
	if err != nil {
		t.Fatal(err)
	}
	if euc == got[0] {
		t.Error("euclidean and cosine share one index")
	}
	// An explicit "brute" shares the exact default's cache slot; "hnsw"
	// builds (and caches) a distinct approximate index.
	brute, _, err := reg.Index("d", lafdbscan.MetricCosine, "brute")
	if err != nil {
		t.Fatal(err)
	}
	if brute != got[0] {
		t.Error("explicit brute built a second index beside the default")
	}
	hnsw, backend, err := reg.Index("d", lafdbscan.MetricCosine, "hnsw")
	if err != nil {
		t.Fatal(err)
	}
	if backend != "hnsw" {
		t.Errorf("backend = %q, want hnsw", backend)
	}
	if hnsw == got[0] {
		t.Error("hnsw and brute share one index")
	}
	hnsw2, _, err := reg.Index("d", lafdbscan.MetricCosine, lafdbscan.IndexBackendAuto)
	if err != nil {
		t.Fatal(err)
	}
	if hnsw2 != hnsw {
		t.Error("auto resolved to a distinct index from explicit hnsw")
	}
}

// TestRegistryDefaultIndexBackend pins the server-wide default knob: auto
// flips unnamed requests onto the approximate chain, and invalid values are
// rejected up front with the named error.
func TestRegistryDefaultIndexBackend(t *testing.T) {
	reg := testRegistry(t, "d", 40)
	for _, name := range []string{"nope", "grid"} {
		if err := reg.SetDefaultIndexBackend(name); !errors.Is(err, lafdbscan.ErrUnknownIndexBackend) {
			t.Errorf("default backend %q: err = %v, want ErrUnknownIndexBackend", name, err)
		}
	}
	if err := reg.SetDefaultIndexBackend(lafdbscan.IndexBackendAuto); err != nil {
		t.Fatal(err)
	}
	if got := reg.DefaultIndexBackend(); got != lafdbscan.IndexBackendAuto {
		t.Errorf("DefaultIndexBackend() = %q", got)
	}
	_, backend, err := reg.Index("d", lafdbscan.MetricCosine, "")
	if err != nil {
		t.Fatal(err)
	}
	if backend != "hnsw" {
		t.Errorf("auto default resolved to %q, want hnsw", backend)
	}
	// The request-level knob still overrides the server default.
	_, backend, err = reg.Index("d", lafdbscan.MetricCosine, "brute")
	if err != nil {
		t.Fatal(err)
	}
	if backend != "brute" {
		t.Errorf("explicit brute resolved to %q", backend)
	}
	infos := reg.IndexInfo()
	if len(infos) != 1 || infos[0].Dataset != "d" {
		t.Fatalf("IndexInfo() = %+v", infos)
	}
	want := []string{"brute", "hnsw"}
	if got := infos[0].Backends; len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("built backends = %v, want %v", got, want)
	}
}

// TestRegistryRejects pins the registration error cases.
func TestRegistryRejects(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register("", dataset.MSLike(10, 1), "x"); err == nil {
		t.Error("empty name accepted")
	}
	if err := reg.Register("d", &dataset.Dataset{}, "x"); err == nil {
		t.Error("empty dataset accepted")
	}
	if err := reg.Register("d", dataset.MSLike(10, 1), "x"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("d", dataset.MSLike(10, 1), "x"); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := reg.RegisterSynthetic("s", "bogus", 10, 1); err == nil {
		t.Error("unknown synthetic kind accepted")
	}
	if _, err := reg.RegisterSynthetic("s", "ms", 0, 1); err == nil {
		t.Error("zero-size synthetic accepted")
	}
	// Inline vectors are normalized on ingestion.
	info, err := reg.RegisterVectors("inline", [][]float32{{3, 0}, {0, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if info.Points != 2 || info.Dims != 2 {
		t.Errorf("inline info = %+v", info)
	}
	ds, err := reg.Get("inline")
	if err != nil {
		t.Fatal(err)
	}
	if !ds.IsNormalized(1e-5) {
		t.Error("inline vectors not normalized")
	}
}

// TestEstimatorCacheFailureNotCached checks that a failed training is
// dropped (so a corrected request can retry) and never counted as a hit.
func TestEstimatorCacheFailureNotCached(t *testing.T) {
	c := NewEstimatorCache()
	// Empty training set fails inside TrainRMIEstimator.
	_, _, _, err := c.Get(context.Background(), "d", nil, lafdbscan.EstimatorConfig{})
	if err == nil {
		t.Fatal("training on an empty set succeeded")
	}
	if st := c.Stats(); st.Entries != 0 || st.Hits != 0 {
		t.Errorf("failed training cached: %+v", st)
	}
}
