package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lafdbscan"
	"lafdbscan/internal/dataset"
)

// modelServer boots an in-process server with a small registered synthetic
// dataset and returns the base URL plus the same vectors for direct library
// comparisons.
func modelServer(t *testing.T, opts Options) (base string, vectors [][]float32, cleanup func()) {
	t.Helper()
	s := NewServer(opts)
	ts := httptest.NewServer(s.Handler())
	code, body := postJSON(t, ts.URL+"/v1/datasets", map[string]any{
		"name":      "mdl",
		"synthetic": map[string]any{"kind": "glove", "n": 200, "seed": 11},
	})
	if code != http.StatusCreated {
		t.Fatalf("register: %d %v", code, body)
	}
	ds := dataset.GloVeLike(200, 11)
	ds.Normalize()
	return ts.URL, ds.Vectors, func() { ts.Close(); s.Close() }
}

func labelsFromAny(t *testing.T, raw any) []int {
	t.Helper()
	arr := raw.([]any)
	out := make([]int, len(arr))
	for i, v := range arr {
		out[i] = int(v.(float64))
	}
	return out
}

// TestModelEndpointsLifecycle drives the full model surface: fit, list,
// get, predict (by dataset and inline), save, load, predict-from-loaded
// identity, delete, and the 404 afterwards. The fitted labels are pinned
// bit-identical to a direct library Fit with the same spec.
func TestModelEndpointsLifecycle(t *testing.T) {
	base, vectors, cleanup := modelServer(t, Options{Workers: 1, QueueDepth: 4})
	defer cleanup()

	params := map[string]any{"eps": 0.5, "tau": 4, "workers": 2}
	code, body := postJSON(t, base+"/v1/models", map[string]any{
		"dataset": "mdl", "method": "dbscan", "params": params,
	})
	if code != http.StatusCreated {
		t.Fatalf("fit: %d %v", code, body)
	}
	info := body["model"].(map[string]any)
	id := info["id"].(string)
	if info["method"].(string) != "dbscan" || int(info["points"].(float64)) != len(vectors) {
		t.Fatalf("model info: %v", info)
	}
	if int(info["cores"].(float64)) == 0 {
		t.Fatal("fitted model reports zero cores")
	}

	// Library reference: same data, same params, shared-index-equivalent.
	ref, err := lafdbscan.Fit(context.Background(), vectors, lafdbscan.MethodDBSCAN,
		lafdbscan.WithEps(0.5), lafdbscan.WithTau(4), lafdbscan.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}

	// Predict the training dataset by name: must reproduce the fitted
	// labels (and therefore the library fit's labels).
	code, body = postJSON(t, base+"/v1/models/"+id+"/predict", map[string]any{"dataset": "mdl"})
	if code != http.StatusOK {
		t.Fatalf("predict: %d %v", code, body)
	}
	got := labelsFromAny(t, body["labels"])
	want := ref.Labels()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("predict[%d] = %d, library fit %d", i, got[i], want[i])
		}
	}

	// Inline vectors round through server-side normalization.
	code, body = postJSON(t, base+"/v1/models/"+id+"/predict", map[string]any{
		"vectors": vectors[:3],
	})
	if code != http.StatusOK {
		t.Fatalf("inline predict: %d %v", code, body)
	}
	if n := len(labelsFromAny(t, body["labels"])); n != 3 {
		t.Fatalf("inline predict returned %d labels", n)
	}

	// List and get agree.
	if code, body = getJSON(t, base+"/v1/models"); code != http.StatusOK {
		t.Fatalf("list: %d %v", code, body)
	}
	if n := len(body["models"].([]any)); n != 1 {
		t.Fatalf("list holds %d models", n)
	}
	if code, _ = getJSON(t, base+"/v1/models/"+id); code != http.StatusOK {
		t.Fatalf("get: %d", code)
	}

	// Save: the binary stream loads back as a new model that predicts
	// identically.
	resp, err := http.Get(base + "/v1/models/" + id + "/save")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("save: %d %v", resp.StatusCode, err)
	}
	resp, err = http.Post(base+"/v1/models/load", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	code, body = decodeResp(t, resp)
	if code != http.StatusCreated {
		t.Fatalf("load: %d %v", code, body)
	}
	loadedInfo := body["model"].(map[string]any)
	loadedID := loadedInfo["id"].(string)
	if loadedInfo["source"].(string) != "loaded" {
		t.Fatalf("loaded model source %v", loadedInfo["source"])
	}
	code, body = postJSON(t, base+"/v1/models/"+loadedID+"/predict", map[string]any{"dataset": "mdl"})
	if code != http.StatusOK {
		t.Fatalf("loaded predict: %d %v", code, body)
	}
	gotLoaded := labelsFromAny(t, body["labels"])
	for i := range want {
		if gotLoaded[i] != want[i] {
			t.Fatalf("loaded predict[%d] = %d, want %d", i, gotLoaded[i], want[i])
		}
	}

	// Delete, then 404.
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/models/"+id, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if code, _ = decodeResp(t, resp); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	if code, _ = getJSON(t, base+"/v1/models/"+id); code != http.StatusNotFound {
		t.Fatalf("deleted model get: %d, want 404", code)
	}

	// Stats count the store's life.
	code, body = getJSON(t, base+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	ms := body["models"].(map[string]any)
	if ms["fitted"].(float64) < 1 || ms["loaded"].(float64) < 1 || ms["deleted"].(float64) < 1 {
		t.Fatalf("model stats: %v", ms)
	}
}

// TestServeRejectsBatchSize: params carries no batch_size (the engines'
// per-worker claim size is not a knob), so a fit or job that sends one is
// refused with a 400 naming the field instead of being silently ignored.
func TestServeRejectsBatchSize(t *testing.T) {
	base, _, cleanup := modelServer(t, Options{Workers: 1, QueueDepth: 4})
	defer cleanup()
	for _, endpoint := range []string{"/v1/models", "/v1/jobs"} {
		code, body := postJSON(t, base+endpoint, map[string]any{
			"dataset": "mdl", "method": "dbscan",
			"params": map[string]any{"eps": 0.5, "tau": 4, "batch_size": 16},
		})
		if code != http.StatusBadRequest {
			t.Errorf("%s: code %d %v, want 400", endpoint, code, body)
		}
		if msg, _ := body["error"].(string); !strings.Contains(msg, `"batch_size"`) {
			t.Errorf("%s: error %q does not name batch_size", endpoint, msg)
		}
	}
}

// TestModelEndpointsErrors pins the error contract: unknown ids are 404,
// invalid specs and bodies 400, ambiguous predict sources 400, dimension
// mismatches 400, a full store 409, and the LAF methods demand an estimator
// spec exactly like the job path.
func TestModelEndpointsErrors(t *testing.T) {
	base, vectors, cleanup := modelServer(t, Options{Workers: 1, QueueDepth: 4, MaxModels: 1})
	defer cleanup()

	if code, _ := getJSON(t, base+"/v1/models/m-999999"); code != http.StatusNotFound {
		t.Errorf("unknown model: %d, want 404", code)
	}
	if code, _ := postJSON(t, base+"/v1/models/m-999999/predict", map[string]any{"dataset": "mdl"}); code != http.StatusNotFound {
		t.Errorf("predict on unknown model: %d, want 404", code)
	}
	if code, _ := postJSON(t, base+"/v1/models", map[string]any{
		"dataset": "mdl", "method": "laf-dbscan",
		"params": map[string]any{"eps": 0.5, "tau": 4},
	}); code != http.StatusBadRequest {
		t.Errorf("LAF fit without estimator: %d, want 400", code)
	}
	if code, _ := postJSON(t, base+"/v1/models", map[string]any{
		"dataset": "mdl", "method": "dbscan",
		"params": map[string]any{"eps": 5.0, "tau": 4},
	}); code != http.StatusBadRequest {
		t.Errorf("bad eps fit: %d, want 400", code)
	}
	if code, _ := postJSON(t, base+"/v1/models", map[string]any{
		"dataset": "none", "method": "dbscan",
		"params": map[string]any{"eps": 0.5, "tau": 4},
	}); code != http.StatusNotFound {
		t.Errorf("fit on unknown dataset: %d, want 404", code)
	}

	// One successful fit fills the MaxModels=1 store.
	code, body := postJSON(t, base+"/v1/models", map[string]any{
		"dataset": "mdl", "method": "dbscan", "params": map[string]any{"eps": 0.5, "tau": 4},
	})
	if code != http.StatusCreated {
		t.Fatalf("fit: %d %v", code, body)
	}
	id := body["model"].(map[string]any)["id"].(string)
	if code, _ = postJSON(t, base+"/v1/models", map[string]any{
		"dataset": "mdl", "method": "dbscan", "params": map[string]any{"eps": 0.5, "tau": 4},
	}); code != http.StatusConflict {
		t.Errorf("fit into full store: %d, want 409", code)
	}

	// Predict source discipline.
	if code, _ = postJSON(t, base+"/v1/models/"+id+"/predict", map[string]any{}); code != http.StatusBadRequest {
		t.Errorf("sourceless predict: %d, want 400", code)
	}
	if code, _ = postJSON(t, base+"/v1/models/"+id+"/predict", map[string]any{
		"dataset": "mdl", "vectors": vectors[:1],
	}); code != http.StatusBadRequest {
		t.Errorf("double-source predict: %d, want 400", code)
	}
	if code, _ = postJSON(t, base+"/v1/models/"+id+"/predict", map[string]any{
		"vectors": [][]float32{{1, 0, 0}},
	}); code != http.StatusBadRequest {
		t.Errorf("dimension mismatch: %d, want 400", code)
	}
	// Gating a model without an estimator is a 400.
	if code, _ = postJSON(t, base+"/v1/models/"+id+"/predict", map[string]any{
		"dataset": "mdl", "gate": true,
	}); code != http.StatusBadRequest {
		t.Errorf("gate without estimator: %d, want 400", code)
	}

	// Corrupt upload.
	resp, err := http.Post(base+"/v1/models/load", "application/octet-stream",
		bytes.NewReader([]byte("not a model")))
	if err != nil {
		t.Fatal(err)
	}
	if code, _ = decodeResp(t, resp); code != http.StatusBadRequest {
		t.Errorf("corrupt load: %d, want 400", code)
	}
}

// TestModelFitSharesEstimatorCache pins the amortization contract: a LAF
// model fit resolves its estimator through the same cache as the job
// engine, so a job followed by a fit with the same spec trains once.
func TestModelFitSharesEstimatorCache(t *testing.T) {
	if testing.Short() {
		t.Skip("trains an estimator")
	}
	base, _, cleanup := modelServer(t, Options{Workers: 1, QueueDepth: 4})
	defer cleanup()

	estimator := map[string]any{"max_queries": 60, "hidden": []int{8}, "epochs": 2, "seed": 1}
	code, body := postJSON(t, base+"/v1/estimators", map[string]any{
		"dataset": "mdl", "estimator": estimator,
	})
	if code != http.StatusOK {
		t.Fatalf("train: %d %v", code, body)
	}
	code, body = postJSON(t, base+"/v1/models", map[string]any{
		"dataset": "mdl", "method": "laf-dbscan",
		"params":    map[string]any{"eps": 0.5, "tau": 4, "alpha": 1.2, "seed": 3},
		"estimator": estimator,
	})
	if code != http.StatusCreated {
		t.Fatalf("LAF fit: %d %v", code, body)
	}
	if !body["estimator_cached"].(bool) {
		t.Error("LAF model fit did not hit the estimator cache")
	}
	info := body["model"].(map[string]any)
	if !info["has_estimator"].(bool) {
		t.Error("LAF model reports no estimator")
	}
}
