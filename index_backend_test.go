package lafdbscan

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"slices"
	"strings"
	"testing"
)

// TestIndexBackendResolution pins the three resolution modes of the backend
// knob: empty keeps the exact default (brute force, bit-identical labels),
// IndexBackendAuto selects HNSW, and an explicit registered name passes
// through. Every other name — the baselines' structures included — fails
// with ErrUnknownIndexBackend.
func TestIndexBackendResolution(t *testing.T) {
	cases := []struct {
		name    string
		backend string
		want    string
	}{
		{"empty is exact brute", "", "brute"},
		{"auto is hnsw", IndexBackendAuto, "hnsw"},
		{"explicit brute", "brute", "brute"},
		{"explicit hnsw", "hnsw", "hnsw"},
		{"unknown name", "bogus", ""},
		{"removed cover tree", "covertree", ""},
		{"removed k-means tree", "kmeanstree", ""},
		{"removed grid", "grid", ""},
	}
	for _, c := range cases {
		got, err := ResolveIndexBackend(c.backend)
		if c.want == "" {
			if !errors.Is(err, ErrUnknownIndexBackend) {
				t.Errorf("%s: err = %v, want ErrUnknownIndexBackend", c.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s: resolved %q, want %q", c.name, got, c.want)
		}
	}

	if names := IndexBackends(); !slices.Equal(names, []string{"brute", "hnsw"}) {
		t.Fatalf("IndexBackends() = %v, want [brute hnsw]", names)
	}
}

// TestDBSCANOverHNSWApproximation is the clustering-quality acceptance
// gate of the approximate index: DBSCAN over HNSW neighborhoods at the
// default EfSearch must reproduce the exact clustering to ARI >= 0.99.
func TestDBSCANOverHNSWApproximation(t *testing.T) {
	d := GenerateMixture("hnsw-ari", MixtureConfig{
		N: 1200, Dim: 32, Clusters: 8, MinSpread: 0.12, MaxSpread: 0.25,
		NoiseFrac: 0.15, Seed: 17,
	})
	exactParams := Params{Eps: 0.4, Tau: 5}
	exact, err := DBSCAN(d.Vectors, exactParams)
	if err != nil {
		t.Fatal(err)
	}
	approxParams := Params{Eps: 0.4, Tau: 5, IndexBackend: "hnsw", Seed: 3}
	approx, err := DBSCAN(d.Vectors, approxParams)
	if err != nil {
		t.Fatal(err)
	}
	ari, err := ARI(exact.Labels, approx.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.99 {
		t.Errorf("DBSCAN over HNSW: ARI = %.4f vs exact, want >= 0.99", ari)
	}

	// Determinism: the same seed reruns to identical labels.
	again, err := DBSCAN(d.Vectors, approxParams)
	if err != nil {
		t.Fatal(err)
	}
	for i := range approx.Labels {
		if approx.Labels[i] != again.Labels[i] {
			t.Fatalf("HNSW-backed DBSCAN is not deterministic at point %d", i)
		}
	}
}

// TestHNSWRangeRecallDefaultKnob pins the recall floor the operations guide
// promises: at the default EfSearch, HNSW range queries return >= 95% of
// the true eps-neighbors, averaged over the dataset.
func TestHNSWRangeRecallDefaultKnob(t *testing.T) {
	d := GenerateMixture("hnsw-recall", MixtureConfig{
		N: 1500, Dim: 32, Clusters: 6, MinSpread: 0.15, MaxSpread: 0.3,
		NoiseFrac: 0.2, Seed: 29,
	})
	const eps = 0.4
	p := Params{Eps: eps, Tau: 5, Seed: 1}

	exactIdx := NewBruteForceIndex(d.Vectors, MetricCosine)
	p.IndexBackend = "hnsw"
	hnswIdx, name, err := p.NewIndex(d.Vectors, MetricCosine)
	if err != nil {
		t.Fatal(err)
	}
	if name != "hnsw" {
		t.Fatalf("resolved backend %q, want hnsw", name)
	}

	var found, truth int
	for _, q := range d.Vectors {
		exact := exactIdx.RangeSearch(q, eps)
		if len(exact) == 0 {
			continue
		}
		truthSet := make(map[int]bool, len(exact))
		for _, id := range exact {
			truthSet[id] = true
		}
		truth += len(exact)
		for _, id := range hnswIdx.RangeSearch(q, eps) {
			if truthSet[id] {
				found++
			}
		}
	}
	recall := float64(found) / float64(truth)
	if recall < 0.95 {
		t.Errorf("HNSW range recall at default EfSearch = %.4f, want >= 0.95", recall)
	}
	t.Logf("recall = %.4f over %d true neighbor pairs", recall, truth)
}

// TestModelIndexBackendRoundTrip checks the backend surfaces through the
// model API and survives persistence: a fit with WithIndexBackend reports
// the resolved name, and a save/load round trip rebuilds the same backend
// deterministically with identical predictions.
func TestModelIndexBackendRoundTrip(t *testing.T) {
	train, test := modelTestData(t)
	model, err := Fit(context.Background(), train.Vectors, MethodDBSCAN,
		WithEps(0.4), WithTau(4), WithSeed(7),
		WithIndexBackend("hnsw"), WithEfSearch(96))
	if err != nil {
		t.Fatal(err)
	}
	if got := model.IndexBackend(); got != "hnsw" {
		t.Fatalf("fitted model IndexBackend() = %q, want hnsw", got)
	}

	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.IndexBackend(); got != "hnsw" {
		t.Fatalf("loaded model IndexBackend() = %q, want hnsw", got)
	}

	want, _, err := model.PredictWithOptions(context.Background(), test.Vectors, PredictOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := loaded.PredictWithOptions(context.Background(), test.Vectors, PredictOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prediction %d diverged after round trip: %d vs %d", i, got[i], want[i])
		}
	}

	// After the first mutation the model queries the exact scan, so that is
	// the backend it saves and a reload rebuilds.
	if _, err := model.Insert(context.Background(), test.Vectors[:10]); err != nil {
		t.Fatal(err)
	}
	if got := model.Params().IndexBackend; got != "brute" {
		t.Fatalf("mutated model Params().IndexBackend = %q, want brute", got)
	}
	buf.Reset()
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	mutated, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, live := mutated.IndexBackend(), model.IndexBackend(); got != live {
		t.Fatalf("reloaded mutated model IndexBackend() = %q, live model %q", got, live)
	}
	want, _, err = model.PredictWithOptions(context.Background(), test.Vectors, PredictOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err = mutated.PredictWithOptions(context.Background(), test.Vectors, PredictOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prediction %d diverged after mutated round trip: %d vs %d", i, got[i], want[i])
		}
	}

	// The exact default still reports what backs it.
	exact, err := Fit(context.Background(), train.Vectors, MethodDBSCAN,
		WithEps(0.4), WithTau(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := exact.IndexBackend(); got != "brute" {
		t.Errorf("default fit IndexBackend() = %q, want brute", got)
	}
}

// TestEntryPointsRejectBadBackend checks the backend knob is validated at
// the same gate as every other parameter.
func TestEntryPointsRejectBadBackend(t *testing.T) {
	pts := [][]float32{{1, 0}, {0, 1}}
	bad := Params{Eps: 0.5, Tau: 2, IndexBackend: "bogus"}
	if _, err := DBSCAN(pts, bad); err == nil || !strings.Contains(err.Error(), "invalid IndexBackend") {
		t.Errorf("DBSCAN with unknown backend: err = %v, want invalid IndexBackend", err)
	}
	// Validate reports ResolveIndexBackend's own rejection behind the
	// field prefix.
	for _, name := range []string{"bogus", "grid"} {
		_, resolveErr := ResolveIndexBackend(name)
		err := Params{Eps: 0.5, Tau: 2, IndexBackend: name}.Validate()
		if resolveErr == nil || err == nil || err.Error() != "lafdbscan: invalid IndexBackend = "+name+": "+resolveErr.Error() {
			t.Errorf("Validate with IndexBackend %q: err = %v, want the resolver's %v behind the field prefix", name, err, resolveErr)
		}
	}
	if _, err := Fit(context.Background(), pts, MethodDBSCAN,
		WithEps(0.5), WithTau(2), WithIndexBackend("bogus")); err == nil {
		t.Error("Fit accepted an unknown index backend")
	}
	if _, err := Fit(context.Background(), pts, MethodDBSCAN,
		WithEps(0.5), WithTau(2), WithEfSearch(-1)); err == nil {
		t.Error("Fit accepted a negative EfSearch")
	}
}

// TestLoadModelRejectsRemovedBackend: version 1 and 2 model files may name
// a backend earlier releases registered ("covertree", "kmeanstree",
// "grid"). Their saved labels came from that index, so rebuilding on
// another one would break Predict(train) == labels; LoadModel refuses them
// with ErrUnknownIndexBackend instead.
func TestLoadModelRejectsRemovedBackend(t *testing.T) {
	for _, version := range []uint32{1, 2} {
		for _, name := range []string{"covertree", "kmeanstree", "grid"} {
			payload := modelPayloadV1{
				Method:    string(MethodDBSCAN),
				Algorithm: "dbscan",
				Params:    modelParamsV1{Eps: 0.5, Tau: 2, IndexBackend: name},
				Points:    [][]float32{{1, 0}, {0, 1}},
				Labels:    []int32{Noise, Noise},
				Core:      []bool{false, false},
				Forest:    []int32{-1, -1},
			}
			var buf bytes.Buffer
			buf.Write(modelMagic[:])
			if err := binary.Write(&buf, binary.LittleEndian, version); err != nil {
				t.Fatal(err)
			}
			if err := gob.NewEncoder(&buf).Encode(&payload); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadModel(&buf); !errors.Is(err, ErrUnknownIndexBackend) {
				t.Errorf("version %d naming %q: LoadModel err = %v, want ErrUnknownIndexBackend", version, name, err)
			}
		}
	}
}
