package serve

import (
	"context"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"lafdbscan"
)

// pollJob waits for a job to reach a terminal state and returns it.
func pollJob(t *testing.T, base, id string) (state string, body map[string]any) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, b := getJSON(t, base+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("job status: %d %v", code, b)
		}
		state = b["state"].(string)
		if state == "done" || state == "failed" || state == "canceled" {
			return state, b
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", state)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestModelUpdateEndpoints drives the online-maintenance surface end to
// end in process: fit a model, insert new vectors asynchronously, remove
// points, and pin the evolved labeling bit-identical to a fresh library
// fit on the resulting point set. Along the way it checks the job Kind
// tag, the refreshed model info, and the store's update counters.
func TestModelUpdateEndpoints(t *testing.T) {
	base, vectors, cleanup := modelServer(t, Options{Workers: 2, QueueDepth: 8})
	defer cleanup()

	code, body := postJSON(t, base+"/v1/models", map[string]any{
		"dataset": "mdl", "method": "dbscan",
		"params": map[string]any{"eps": 0.5, "tau": 4, "workers": 2},
	})
	if code != http.StatusCreated {
		t.Fatalf("fit: %d %v", code, body)
	}
	id := body["model"].(map[string]any)["id"].(string)

	// Insert a batch of the dataset's own vectors (valid duplicates).
	insert := vectors[:15]
	code, body = postJSON(t, base+"/v1/models/"+id+"/insert", map[string]any{"vectors": insert})
	if code != http.StatusAccepted {
		t.Fatalf("insert: %d %v", code, body)
	}
	if body["kind"].(string) != "model-insert" {
		t.Errorf("kind = %v, want model-insert", body["kind"])
	}
	if state, b := pollJob(t, base, body["id"].(string)); state != "done" {
		t.Fatalf("insert job ended %q: %v", state, b["error"])
	}

	// Remove a few points (ids follow the compacting convention).
	code, body = postJSON(t, base+"/v1/models/"+id+"/delete", map[string]any{"ids": []int{0, 7, 42}})
	if code != http.StatusAccepted {
		t.Fatalf("remove: %d %v", code, body)
	}
	if body["kind"].(string) != "model-remove" {
		t.Errorf("kind = %v, want model-remove", body["kind"])
	}
	removeJob := body["id"].(string)
	if state, b := pollJob(t, base, removeJob); state != "done" {
		t.Fatalf("remove job ended %q: %v", state, b["error"])
	}

	// Model info reflects both updates.
	code, body = getJSON(t, base+"/v1/models/"+id)
	if code != http.StatusOK {
		t.Fatalf("info: %d %v", code, body)
	}
	wantPoints := len(vectors) + 15 - 3
	if got := int(body["points"].(float64)); got != wantPoints {
		t.Errorf("points = %d, want %d", got, wantPoints)
	}
	if got := int(body["updates"].(float64)); got != 18 {
		t.Errorf("updates = %d, want 18", got)
	}

	// The remove job's result is the evolved labeling: bit-identical to a
	// fresh library fit on the same final point set.
	code, body = getJSON(t, base+"/v1/jobs/"+removeJob+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: %d %v", code, body)
	}
	got := labelsFromAny(t, body["labels"])
	final := append(append([][]float32{}, vectors...), insert...)
	for _, rm := range []int{42, 7, 0} { // descending, like the model compaction
		final = slices.Delete(final, rm, rm+1)
	}
	ref, err := lafdbscan.Fit(context.Background(), final, lafdbscan.MethodDBSCAN,
		lafdbscan.WithEps(0.5), lafdbscan.WithTau(4), lafdbscan.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if want := ref.Labels(); !slices.Equal(got, want) {
		t.Fatalf("evolved labels diverge from fresh fit\n got: %v\nwant: %v", got[:20], want[:20])
	}

	// Store counters aggregate the maintenance activity.
	code, body = getJSON(t, base+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %v", code, body)
	}
	models := body["models"].(map[string]any)
	if models["inserts"].(float64) != 1 || models["removes"].(float64) != 1 ||
		models["points_inserted"].(float64) != 15 || models["points_removed"].(float64) != 3 {
		t.Errorf("update counters wrong: %v", models)
	}
}

// TestInsertSwitchesListedMethod: the first insert into a dbscan++ model
// switches it to its exact counterpart, and the model info says so.
func TestInsertSwitchesListedMethod(t *testing.T) {
	base, vectors, cleanup := modelServer(t, Options{Workers: 2, QueueDepth: 8})
	defer cleanup()

	code, body := postJSON(t, base+"/v1/models", map[string]any{
		"dataset": "mdl", "method": "dbscan++",
		"params": map[string]any{"eps": 0.5, "tau": 4, "sample_fraction": 0.5, "seed": 7},
	})
	if code != http.StatusCreated {
		t.Fatalf("fit: %d %v", code, body)
	}
	info := body["model"].(map[string]any)
	if info["method"] != "dbscan++" {
		t.Fatalf("fitted method = %v, want dbscan++", info["method"])
	}
	id := info["id"].(string)
	code, body = postJSON(t, base+"/v1/models/"+id+"/insert", map[string]any{"vectors": vectors[:5]})
	if code != http.StatusAccepted {
		t.Fatalf("insert: %d %v", code, body)
	}
	if state, b := pollJob(t, base, body["id"].(string)); state != "done" {
		t.Fatalf("insert job ended %q: %v", state, b["error"])
	}
	code, body = getJSON(t, base+"/v1/models/"+id)
	if code != http.StatusOK {
		t.Fatalf("info: %d %v", code, body)
	}
	if body["method"] != "dbscan" {
		t.Fatalf("method after insert = %v, want dbscan", body["method"])
	}
}

// TestModelUpdateValidation pins the endpoints' error surface without
// running any maintenance: unknown models 404, malformed requests 400.
// /insert and /stream share one submit path but keep their own request
// shapes: /insert has no chunk field, and /stream's chunk must be
// non-negative.
func TestModelUpdateValidation(t *testing.T) {
	base, _, cleanup := modelServer(t, Options{Workers: 1, QueueDepth: 4})
	defer cleanup()

	if code, _ := postJSON(t, base+"/v1/models/m-999999/insert", map[string]any{
		"vectors": [][]float32{{1, 0}},
	}); code != http.StatusNotFound {
		t.Errorf("unknown model insert: %d, want 404", code)
	}
	if code, _ := postJSON(t, base+"/v1/models/m-999999/stream", map[string]any{
		"vectors": [][]float32{{1, 0}},
	}); code != http.StatusNotFound {
		t.Errorf("unknown model stream: %d, want 404", code)
	}
	if code, _ := postJSON(t, base+"/v1/models/m-999999/delete", map[string]any{
		"ids": []int{0},
	}); code != http.StatusNotFound {
		t.Errorf("unknown model remove: %d, want 404", code)
	}

	code, body := postJSON(t, base+"/v1/models", map[string]any{
		"dataset": "mdl", "method": "dbscan",
		"params": map[string]any{"eps": 0.5, "tau": 4},
	})
	if code != http.StatusCreated {
		t.Fatalf("fit: %d %v", code, body)
	}
	id := body["model"].(map[string]any)["id"].(string)

	if code, _ := postJSON(t, base+"/v1/models/"+id+"/insert", map[string]any{
		"vectors": [][]float32{{1, 0}},
	}); code != http.StatusBadRequest {
		t.Errorf("dim mismatch: %d, want 400", code)
	}
	if code, _ := postJSON(t, base+"/v1/models/"+id+"/insert", map[string]any{}); code != http.StatusBadRequest {
		t.Errorf("sourceless insert: %d, want 400", code)
	}
	if code, _ := postJSON(t, base+"/v1/models/"+id+"/insert", map[string]any{
		"vectors": [][]float32{{1, 0}}, "dataset": "mdl",
	}); code != http.StatusBadRequest {
		t.Errorf("double-source insert: %d, want 400", code)
	}
	if code, body := postJSON(t, base+"/v1/models/"+id+"/insert", map[string]any{
		"dataset": "mdl", "chunk": 4,
	}); code != http.StatusBadRequest || !strings.Contains(body["error"].(string), "unknown field") {
		t.Errorf("insert with chunk: %d %v, want 400 naming the unknown field", code, body)
	}
	if code, body := postJSON(t, base+"/v1/models/"+id+"/stream", map[string]any{
		"dataset": "mdl", "chunk": -1,
	}); code != http.StatusBadRequest || !strings.Contains(body["error"].(string), "non-negative") {
		t.Errorf("stream with chunk -1: %d %v, want 400", code, body)
	}
	if code, _ := postJSON(t, base+"/v1/models/"+id+"/delete", map[string]any{
		"ids": []int{},
	}); code != http.StatusBadRequest {
		t.Errorf("empty ids: %d, want 400", code)
	}
	if code, _ := postJSON(t, base+"/v1/models/"+id+"/delete", map[string]any{
		"ids": make([]int, 500),
	}); code != http.StatusBadRequest {
		t.Errorf("remove-everything: %d, want 400", code)
	}

	// An out-of-range id passes the cheap pre-check but fails inside the
	// job: the model stays consistent and the job reports the failure.
	code, body = postJSON(t, base+"/v1/models/"+id+"/delete", map[string]any{
		"ids": []int{1 << 20},
	})
	if code != http.StatusAccepted {
		t.Fatalf("out-of-range submit: %d %v", code, body)
	}
	state, b := pollJob(t, base, body["id"].(string))
	if state != "failed" {
		t.Fatalf("out-of-range remove ended %q, want failed: %v", state, b)
	}
	code, body = getJSON(t, base+"/v1/models/"+id)
	if code != http.StatusOK || int(body["updates"].(float64)) != 0 {
		t.Fatalf("failed remove mutated the model: %d %v", code, body)
	}
}

// TestRaggedBatchesAre400 sends the predict, insert and stream endpoints a
// batch whose vector 70 is one component short, and a registered dataset
// of the wrong dimension: every request is a 400, no job is queued, and
// the server keeps answering.
func TestRaggedBatchesAre400(t *testing.T) {
	base, vectors, cleanup := modelServer(t, Options{Workers: 2, QueueDepth: 4})
	defer cleanup()
	code, body := postJSON(t, base+"/v1/models", map[string]any{
		"dataset": "mdl", "method": "dbscan",
		"params": map[string]any{"eps": 0.5, "tau": 4, "workers": 2},
	})
	if code != http.StatusCreated {
		t.Fatalf("fit: %d %v", code, body)
	}
	id := body["model"].(map[string]any)["id"].(string)
	if code, body := postJSON(t, base+"/v1/datasets", map[string]any{
		"name": "narrow", "vectors": [][]float32{{1, 0}, {0, 1}},
	}); code != http.StatusCreated {
		t.Fatalf("register narrow: %d %v", code, body)
	}
	ragged := slices.Clone(vectors[:100])
	ragged[70] = ragged[70][:len(ragged[70])-1]
	for _, op := range []string{"predict", "insert", "stream"} {
		url := base + "/v1/models/" + id + "/" + op
		if code, body := postJSON(t, url, map[string]any{"vectors": ragged}); code != http.StatusBadRequest {
			t.Errorf("%s with ragged vector 70: %d %v, want 400", op, code, body)
		}
		code, body := postJSON(t, url, map[string]any{"dataset": "narrow"})
		if code != http.StatusBadRequest || !strings.Contains(body["error"].(string), lafdbscan.ErrDimensionMismatch.Error()) {
			t.Errorf("%s with a 2-d dataset: %d %v, want 400 naming the mismatch", op, code, body)
		}
	}
	// The fit above is the only job: the rejected requests queued none.
	if code, body := getJSON(t, base+"/v1/jobs"); code != http.StatusOK || len(body["jobs"].([]any)) != 1 ||
		body["jobs"].([]any)[0].(map[string]any)["kind"] != "model-fit" {
		t.Errorf("rejected requests queued jobs: %d %v", code, body)
	}
	if code, body := postJSON(t, base+"/v1/models/"+id+"/predict", map[string]any{"vectors": vectors[:100]}); code != http.StatusOK {
		t.Fatalf("predict after rejections: %d %v", code, body)
	}
}
