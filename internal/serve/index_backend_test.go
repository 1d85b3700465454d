package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lafdbscan"
)

// TestServeIndexBackendSurfacing drives the backend knob end to end through
// the HTTP surface: a fit naming "hnsw" succeeds, the stored model reports
// the resolved backend, /v1/stats lists the built shared indexes per
// dataset, and the registry's build counter carries the laf_index_backend
// label on /metrics.
func TestServeIndexBackendSurfacing(t *testing.T) {
	base, _, cleanup := modelServer(t, Options{Workers: 1, QueueDepth: 4})
	defer cleanup()

	code, body := postJSON(t, base+"/v1/models", map[string]any{
		"dataset": "mdl", "method": "dbscan",
		"params": map[string]any{"eps": 0.5, "tau": 4, "index_backend": "hnsw"},
	})
	if code != http.StatusCreated {
		t.Fatalf("fit with hnsw backend: %d %v", code, body)
	}
	info := body["model"].(map[string]any)
	if got := info["index_backend"]; got != "hnsw" {
		t.Errorf("fit model index_backend = %v, want hnsw", got)
	}
	id := info["id"].(string)

	// The stored info serves the same backend back on GET.
	code, body = getJSON(t, base+"/v1/models/"+id)
	if code != http.StatusOK {
		t.Fatalf("get model: %d %v", code, body)
	}
	if got := body["index_backend"]; got != "hnsw" {
		t.Errorf("GET model index_backend = %v, want hnsw", got)
	}

	// A default fit resolves to the exact backend and says so.
	code, body = postJSON(t, base+"/v1/models", map[string]any{
		"dataset": "mdl", "method": "dbscan",
		"params": map[string]any{"eps": 0.5, "tau": 4},
	})
	if code != http.StatusCreated {
		t.Fatalf("default fit: %d %v", code, body)
	}
	if got := body["model"].(map[string]any)["index_backend"]; got != "brute" {
		t.Errorf("default fit index_backend = %v, want brute", got)
	}

	// /v1/stats surfaces the default knob, the available backends, and the
	// per-dataset built set.
	code, body = getJSON(t, base+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %v", code, body)
	}
	idx, ok := body["index"].(map[string]any)
	if !ok {
		t.Fatalf("stats has no index section: %v", body)
	}
	if got := idx["default_backend"]; got != "" {
		t.Errorf("default_backend = %v, want \"\"", got)
	}
	if backends := idx["backends"].([]any); len(backends) != 2 || backends[0] != "brute" || backends[1] != "hnsw" {
		t.Errorf("stats backends = %v, want [brute hnsw]", backends)
	}
	datasets := idx["datasets"].([]any)
	if len(datasets) != 1 {
		t.Fatalf("stats index datasets = %v", datasets)
	}
	ds := datasets[0].(map[string]any)
	if ds["dataset"] != "mdl" {
		t.Errorf("stats index dataset = %v", ds["dataset"])
	}
	var built []string
	for _, b := range ds["backends"].([]any) {
		built = append(built, b.(string))
	}
	if strings.Join(built, ",") != "brute,hnsw" {
		t.Errorf("built backends = %v, want [brute hnsw]", built)
	}

	// The build counter is labeled by backend: one brute and one hnsw index
	// were built for this dataset.
	samples, _ := scrapeMetrics(t, base)
	for _, backend := range []string{"brute", "hnsw"} {
		key := `laf_index_builds_total{laf_index_backend="` + backend + `"}`
		if got := samples[key]; got != 1 {
			t.Errorf("%s = %v, want 1", key, got)
		}
	}
}

// TestServeIndexBackendRejections pins the 400 paths of the backend knob:
// unknown names — the baselines' structures, no longer registered,
// included — answer with lafdbscan.ErrUnknownIndexBackend, and the absent
// ef_search field is refused.
func TestServeIndexBackendRejections(t *testing.T) {
	base, _, cleanup := modelServer(t, Options{Workers: 1, QueueDepth: 4})
	defer cleanup()

	cases := []struct {
		name    string
		params  map[string]any
		backend bool // the rejection is ErrUnknownIndexBackend
	}{
		{"unknown backend", map[string]any{"eps": 0.5, "tau": 4, "index_backend": "bogus"}, true},
		{"removed cover tree", map[string]any{"eps": 0.5, "tau": 4, "index_backend": "covertree"}, true},
		{"removed k-means tree", map[string]any{"eps": 0.5, "tau": 4, "index_backend": "kmeanstree"}, true},
		{"removed grid", map[string]any{"eps": 0.5, "tau": 4, "index_backend": "grid"}, true},
		{"removed grid under euclidean", map[string]any{
			"eps": 0.5, "tau": 4, "metric": "euclidean", "index_backend": "grid"}, true},
		{"negative ef_search", map[string]any{"eps": 0.5, "tau": 4, "ef_search": -1}, false},
		// Jobs and fits run on the registry's shared graph, built with the
		// default beam, so the request has no ef_search field to honor.
		{"ef_search", map[string]any{"eps": 0.5, "tau": 4, "ef_search": 128}, false},
	}
	for _, tc := range cases {
		for _, endpoint := range []string{"/v1/models", "/v1/jobs"} {
			code, body := postJSON(t, base+endpoint, map[string]any{
				"dataset": "mdl", "method": "dbscan", "params": tc.params,
			})
			if code != http.StatusBadRequest {
				t.Errorf("%s %s: code %d %v, want 400", tc.name, endpoint, code, body)
			}
			if msg, _ := body["error"].(string); tc.backend && !strings.Contains(msg, lafdbscan.ErrUnknownIndexBackend.Error()) {
				t.Errorf("%s %s: error %q, want ErrUnknownIndexBackend", tc.name, endpoint, msg)
			}
		}
	}
}

// legacyModel is the gob layout of a version-2 model file as an earlier
// release wrote it, trimmed to the fields a load needs. Gob matches
// fields by name, so LoadModel decodes it like any saved model.
type legacyModel struct {
	Method string
	Params struct {
		Eps          float64
		Tau          int
		IndexBackend string
	}
	Points      [][]float32
	Labels      []int32
	Core        []bool
	Forest      []int32
	NumClusters int
}

// TestServeLoadRejectsRemovedBackend posts model files that name a backend
// earlier releases registered: each must answer 400 with
// ErrUnknownIndexBackend rather than reload on another index.
func TestServeLoadRejectsRemovedBackend(t *testing.T) {
	base, _, cleanup := modelServer(t, Options{Workers: 1, QueueDepth: 4})
	defer cleanup()
	for _, name := range []string{"covertree", "kmeanstree", "grid"} {
		var m legacyModel
		m.Method = "dbscan"
		m.Params.Eps, m.Params.Tau, m.Params.IndexBackend = 0.5, 2, name
		m.Points = [][]float32{{1, 0}, {0, 1}}
		m.Labels, m.Core, m.Forest = []int32{-1, -1}, []bool{false, false}, []int32{-1, -1}
		var blob bytes.Buffer
		blob.WriteString("LAFM")
		binary.Write(&blob, binary.LittleEndian, uint32(2))
		if err := gob.NewEncoder(&blob).Encode(&m); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/models/load", "application/octet-stream", &blob)
		if err != nil {
			t.Fatal(err)
		}
		code, body := decodeResp(t, resp)
		if code != http.StatusBadRequest {
			t.Fatalf("load naming %s: code %d %v, want 400", name, code, body)
		}
		if msg, _ := body["error"].(string); !strings.Contains(msg, lafdbscan.ErrUnknownIndexBackend.Error()) {
			t.Errorf("load naming %s: error %q, want ErrUnknownIndexBackend", name, msg)
		}
	}
}

// TestServeDefaultIndexBackendAuto opts a whole server into the approximate
// chain via Options.IndexBackend and checks unnamed requests resolve to
// HNSW while an invalid option panics (the documented contract).
func TestServeDefaultIndexBackendAuto(t *testing.T) {
	s := NewServer(Options{Workers: 1, QueueDepth: 4, IndexBackend: "auto"})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()
	code, body := postJSON(t, ts.URL+"/v1/datasets", map[string]any{
		"name":      "auto-ds",
		"synthetic": map[string]any{"kind": "glove", "n": 150, "seed": 5},
	})
	if code != http.StatusCreated {
		t.Fatalf("register: %d %v", code, body)
	}
	code, body = postJSON(t, ts.URL+"/v1/models", map[string]any{
		"dataset": "auto-ds", "method": "dbscan",
		"params": map[string]any{"eps": 0.5, "tau": 4},
	})
	if code != http.StatusCreated {
		t.Fatalf("fit: %d %v", code, body)
	}
	if got := body["model"].(map[string]any)["index_backend"]; got != "hnsw" {
		t.Errorf("auto-default fit index_backend = %v, want hnsw", got)
	}
	code, body = getJSON(t, ts.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %v", code, body)
	}
	if got := body["index"].(map[string]any)["default_backend"]; got != "auto" {
		t.Errorf("stats default_backend = %v, want auto", got)
	}

	defer func() {
		if recover() == nil {
			t.Error("NewServer accepted an invalid IndexBackend option")
		}
	}()
	NewServer(Options{IndexBackend: "bogus"})
}
