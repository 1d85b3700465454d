package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"lafdbscan"
	"lafdbscan/internal/dataset"
)

// smokeBase returns the base URL to run the end-to-end walkthrough against:
// a live lafserve process when LAFSERVE_SMOKE_URL is set (the CI smoke job
// starts one and points the test at it), an in-process httptest server
// otherwise. The walkthrough itself is identical either way.
func smokeBase(t *testing.T) (base string, cleanup func()) {
	t.Helper()
	if url := os.Getenv("LAFSERVE_SMOKE_URL"); url != "" {
		return url, func() {}
	}
	s := NewServer(Options{Workers: 2, QueueDepth: 16})
	ts := httptest.NewServer(s.Handler())
	return ts.URL, func() { ts.Close(); s.Close() }
}

func postJSON(t *testing.T, url string, body any) (int, map[string]any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return decodeResp(t, resp)
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return decodeResp(t, resp)
}

func decodeResp(t *testing.T, resp *http.Response) (int, map[string]any) {
	t.Helper()
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

// TestServerSmoke is the end-to-end walkthrough the CI smoke job runs
// against a real lafserve process (and every test run exercises in
// process): register a synthetic dataset, train the estimator through the
// cache, submit a LAF-DBSCAN job, poll it to completion, fetch the labels,
// and assert ARI == 1.0 against a direct library run with identical
// parameters. It finishes with a /stats sanity check.
func TestServerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains an estimator end to end")
	}
	base, cleanup := smokeBase(t)
	defer cleanup()

	const n, dsSeed = 400, 7
	// Unique per run so re-running against a long-lived live server does
	// not collide with a previous registration.
	name := fmt.Sprintf("smoke-%d", time.Now().UnixNano())

	// 1. Register a synthetic MS MARCO-like dataset.
	code, body := postJSON(t, base+"/v1/datasets", map[string]any{
		"name":      name,
		"synthetic": map[string]any{"kind": "ms", "n": n, "seed": dsSeed},
	})
	if code != http.StatusCreated {
		t.Fatalf("register: %d %v", code, body)
	}
	if body["points"].(float64) != n {
		t.Fatalf("registered %v points, want %d", body["points"], n)
	}

	// 2. Train the estimator (explicitly, so the job below is a cache hit).
	estimator := map[string]any{
		"max_queries": 120, "hidden": []int{24, 12}, "epochs": 8, "seed": 1,
	}
	code, body = postJSON(t, base+"/v1/estimators", map[string]any{
		"dataset": name, "estimator": estimator,
	})
	if code != http.StatusOK {
		t.Fatalf("train estimator: %d %v", code, body)
	}
	if body["cached"].(bool) {
		t.Fatal("fresh estimator reported as cached")
	}

	// 3. Submit a LAF-DBSCAN job.
	params := map[string]any{"eps": 0.55, "tau": 5, "alpha": 1.2, "seed": 3, "workers": 2}
	code, body = postJSON(t, base+"/v1/jobs", map[string]any{
		"dataset": name, "method": "laf-dbscan", "params": params, "estimator": estimator,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	id := body["id"].(string)

	// 4. Poll to completion.
	deadline := time.Now().Add(60 * time.Second)
	var state string
	for {
		code, body = getJSON(t, base+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("status: %d %v", code, body)
		}
		state = body["state"].(string)
		if state == "done" || state == "failed" || state == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", state)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if state != "done" {
		t.Fatalf("job ended %q: %v", state, body["error"])
	}
	if !body["estimator_cached"].(bool) {
		t.Error("job did not hit the estimator cache")
	}

	// 5. Fetch the labels.
	code, body = getJSON(t, base+"/v1/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: %d %v", code, body)
	}
	raw := body["labels"].([]any)
	labels := make([]int, len(raw))
	for i, v := range raw {
		labels[i] = int(v.(float64))
	}

	// 6. The library result with identical parameters: same synthetic
	// dataset, same estimator config (training is deterministic), same
	// clustering params. ARI must be exactly 1.0.
	ds := dataset.MSLike(n, dsSeed)
	est, err := lafdbscan.TrainRMIEstimator(ds.Vectors, lafdbscan.EstimatorConfig{
		MaxQueries: 120, Hidden: []int{24, 12}, Epochs: 8, Seed: 1, TargetSize: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := lafdbscan.Cluster(ds.Vectors, lafdbscan.MethodLAFDBSCAN, lafdbscan.Params{
		Eps: 0.55, Tau: 5, Alpha: 1.2, Seed: 3, Workers: 2, Estimator: est,
	})
	if err != nil {
		t.Fatal(err)
	}
	ari, err := lafdbscan.ARI(want.Labels, labels)
	if err != nil {
		t.Fatal(err)
	}
	if ari != 1.0 {
		t.Fatalf("ARI vs library result = %v, want exactly 1.0", ari)
	}

	// 7. Fit the same spec as a reusable model: the fit endpoint shares the
	// job path's estimator cache and shared index, so its labels must match
	// the job's bit for bit — and predicting the training dataset through
	// the model must reproduce them under DBSCAN semantics up to LAF's
	// estimator approximation (pinned exactly in the library tests; here the
	// walkthrough asserts the serving plumbing round-trips).
	code, body = postJSON(t, base+"/v1/models", map[string]any{
		"dataset": name, "method": "laf-dbscan", "params": params, "estimator": estimator,
	})
	if code != http.StatusCreated {
		t.Fatalf("fit model: %d %v", code, body)
	}
	if !body["estimator_cached"].(bool) {
		t.Error("model fit did not hit the estimator cache")
	}
	modelID := body["model"].(map[string]any)["id"].(string)

	// 8. Predict the training dataset through the model.
	code, body = postJSON(t, base+"/v1/models/"+modelID+"/predict", map[string]any{"dataset": name})
	if code != http.StatusOK {
		t.Fatalf("predict: %d %v", code, body)
	}
	rawPred := body["labels"].([]any)
	pred := make([]int, len(rawPred))
	for i, v := range rawPred {
		pred[i] = int(v.(float64))
	}

	// 9. Save/load round trip through the HTTP surface: the reloaded model
	// must predict identically to the stored one.
	resp, err := http.Get(base + "/v1/models/" + modelID + "/save")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("save model: %d %v", resp.StatusCode, err)
	}
	resp, err = http.Post(base+"/v1/models/load", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	code, body = decodeResp(t, resp)
	if code != http.StatusCreated {
		t.Fatalf("load model: %d %v", code, body)
	}
	loadedID := body["model"].(map[string]any)["id"].(string)
	code, body = postJSON(t, base+"/v1/models/"+loadedID+"/predict", map[string]any{"dataset": name})
	if code != http.StatusOK {
		t.Fatalf("loaded predict: %d %v", code, body)
	}
	rawLoaded := body["labels"].([]any)
	if len(rawLoaded) != len(pred) {
		t.Fatalf("loaded model predicted %d labels, want %d", len(rawLoaded), len(pred))
	}
	for i, v := range rawLoaded {
		if int(v.(float64)) != pred[i] {
			t.Fatalf("loaded model predicts %v for point %d, stored model %d", v, i, pred[i])
		}
	}

	// 10. Online maintenance: insert new vectors into the stored model
	// through the async endpoint and pin the evolved labeling against a
	// fresh library fit on the grown point set — the incremental engine's
	// equality contract, exercised over the full serving stack.
	const grow = 20
	inserted := ds.Vectors[:grow] // duplicates are valid points
	code, body = postJSON(t, base+"/v1/models/"+modelID+"/insert", map[string]any{
		"vectors": inserted,
	})
	if code != http.StatusAccepted {
		t.Fatalf("insert: %d %v", code, body)
	}
	insertJob := body["id"].(string)
	if body["kind"].(string) != "model-insert" {
		t.Errorf("insert job kind = %v, want model-insert", body["kind"])
	}
	for {
		code, body = getJSON(t, base+"/v1/jobs/"+insertJob)
		if code != http.StatusOK {
			t.Fatalf("insert status: %d %v", code, body)
		}
		state = body["state"].(string)
		if state == "done" || state == "failed" || state == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("insert job stuck in %q", state)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if state != "done" {
		t.Fatalf("insert job ended %q: %v", state, body["error"])
	}
	code, body = getJSON(t, base+"/v1/models/"+modelID)
	if code != http.StatusOK {
		t.Fatalf("model info: %d %v", code, body)
	}
	if got := body["points"].(float64); got != float64(n+grow) {
		t.Errorf("model points after insert = %v, want %d", got, n+grow)
	}
	if got := body["updates"].(float64); got != grow {
		t.Errorf("model updates = %v, want %d", got, grow)
	}
	code, body = getJSON(t, base+"/v1/jobs/"+insertJob+"/result")
	if code != http.StatusOK {
		t.Fatalf("insert result: %d %v", code, body)
	}
	rawGrown := body["labels"].([]any)
	grown := make([]int, len(rawGrown))
	for i, v := range rawGrown {
		grown[i] = int(v.(float64))
	}
	grownPts := append(append([][]float32{}, ds.Vectors...), inserted...)
	wantGrown, err := lafdbscan.Cluster(grownPts, lafdbscan.MethodLAFDBSCAN, lafdbscan.Params{
		Eps: 0.55, Tau: 5, Alpha: 1.2, Seed: 3, Workers: 2, Estimator: est,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantGrown.Labels {
		if grown[i] != wantGrown.Labels[i] {
			t.Fatalf("post-insert label[%d] = %d, fresh library fit %d", i, grown[i], wantGrown.Labels[i])
		}
	}

	// 11. Durable streaming: fold more vectors in through the micro-batched
	// stream endpoint (journaled chunk by chunk when the server runs with
	// -wal-dir) and pin the evolved labeling against a fresh library fit,
	// exactly like the all-or-nothing insert above.
	const streamN, streamChunk = 24, 8
	streamed := ds.Vectors[grow : grow+streamN]
	code, body = postJSON(t, base+"/v1/models/"+modelID+"/stream", map[string]any{
		"vectors": streamed, "chunk": streamChunk,
	})
	if code != http.StatusAccepted {
		t.Fatalf("stream: %d %v", code, body)
	}
	if body["kind"].(string) != "model-stream" {
		t.Errorf("stream job kind = %v, want model-stream", body["kind"])
	}
	streamJob := body["id"].(string)
	for {
		code, body = getJSON(t, base+"/v1/jobs/"+streamJob)
		if code != http.StatusOK {
			t.Fatalf("stream status: %d %v", code, body)
		}
		state = body["state"].(string)
		if state == "done" || state == "failed" || state == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream job stuck in %q", state)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if state != "done" {
		t.Fatalf("stream job ended %q: %v", state, body["error"])
	}
	code, body = getJSON(t, base+"/v1/models/"+modelID)
	if code != http.StatusOK || body["points"].(float64) != float64(n+grow+streamN) {
		t.Fatalf("model after stream: %d %v, want %d points", code, body, n+grow+streamN)
	}
	code, body = getJSON(t, base+"/v1/jobs/"+streamJob+"/result")
	if code != http.StatusOK {
		t.Fatalf("stream result: %d %v", code, body)
	}
	rawStreamed := body["labels"].([]any)
	wantStreamed, err := lafdbscan.Cluster(append(append([][]float32{}, grownPts...), streamed...),
		lafdbscan.MethodLAFDBSCAN, lafdbscan.Params{
			Eps: 0.55, Tau: 5, Alpha: 1.2, Seed: 3, Workers: 2, Estimator: est,
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantStreamed.Labels {
		if int(rawStreamed[i].(float64)) != wantStreamed.Labels[i] {
			t.Fatalf("post-stream label[%d] = %v, fresh library fit %d", i, rawStreamed[i], wantStreamed.Labels[i])
		}
	}

	// 12. /stats reflects the cache amortization, the model activity and
	// the maintenance counters; when the server runs with a journal
	// (-wal-dir, as the CI smoke job does) the stream above was journaled,
	// so a snapshot rolls the model's generation on demand.
	code, body = getJSON(t, base+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %v", code, body)
	}
	if walSec, ok := body["wal"].(map[string]any); ok && walSec["enabled"].(bool) {
		if walSec["appends"].(float64) < 1 {
			t.Errorf("journaled server reports %v WAL appends after streaming", walSec["appends"])
		}
		code, snap := postJSON(t, base+"/v1/models/"+modelID+"/snapshot", nil)
		if code != http.StatusOK {
			t.Fatalf("snapshot: %d %v", code, snap)
		}
		if snap["lsn"].(float64) < 1 {
			t.Errorf("snapshot lsn = %v, want >= 1", snap["lsn"])
		}
	}
	cache := body["estimator_cache"].(map[string]any)
	if cache["hits"].(float64) < 1 {
		t.Errorf("estimator cache hits = %v, want >= 1", cache["hits"])
	}
	models := body["models"].(map[string]any)
	if models["predictions"].(float64) < 2 {
		t.Errorf("model predictions = %v, want >= 2", models["predictions"])
	}
	if models["inserts"].(float64) < 1 || models["points_inserted"].(float64) < grow {
		t.Errorf("update counters not reflected in stats: %v", models)
	}
	if qd, ok := body["jobs"].(map[string]any)["queries_done"].(float64); !ok || qd < float64(n) {
		t.Errorf("stats jobs queries_done = %v, want >= %d", body["jobs"].(map[string]any)["queries_done"], n)
	}

	// 13. /metrics parses as Prometheus text format and carries the request
	// histogram the walkthrough just fed — the serve-smoke CI job's
	// observability assertion, run against the live binary.
	samples, families := scrapeMetrics(t, base)
	if len(families) < 10 {
		t.Errorf("/metrics exports %d families, want >= 10", len(families))
	}
	if families["laf_http_request_duration_seconds"] != "histogram" {
		t.Errorf("request duration family = %q, want histogram", families["laf_http_request_duration_seconds"])
	}
	if got := samples[`laf_http_request_duration_seconds_bucket{endpoint="POST /v1/jobs",le="+Inf"}`]; got < 1 {
		t.Errorf("POST /v1/jobs histogram count = %v, want >= 1", got)
	}
	if got := samples[`laf_http_requests_total{code="202",endpoint="POST /v1/jobs"}`]; got < 1 {
		t.Errorf("POST /v1/jobs 202 counter = %v, want >= 1", got)
	}
	if got := samples["laf_wave_queries_total"]; got < float64(n) {
		t.Errorf("laf_wave_queries_total = %v, want >= %d", got, n)
	}

	t.Logf("smoke OK: ARI=1.0 (job + post-insert), estimator cache %v, jobs %v, models %v, %d metric families",
		cache, body["jobs"], models, len(families))
}

// TestServerHTTPStatusMapping pins the error contract of the HTTP layer:
// 404 for unknown names, 409 for duplicates and not-ready results, 400 for
// domain errors, 429 with Retry-After for a full queue.
func TestServerHTTPStatusMapping(t *testing.T) {
	s := NewServer(Options{Workers: 1, QueueDepth: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := getJSON(t, ts.URL+"/v1/datasets/none"); code != http.StatusNotFound {
		t.Errorf("unknown dataset: %d, want 404", code)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/jobs/j-999999"); code != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", code)
	}

	reg := map[string]any{"name": "d", "synthetic": map[string]any{"kind": "ms", "n": 60, "seed": 1}}
	if code, body := postJSON(t, ts.URL+"/v1/datasets", reg); code != http.StatusCreated {
		t.Fatalf("register: %d %v", code, body)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/datasets", reg); code != http.StatusConflict {
		t.Errorf("duplicate dataset: %d, want 409", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/datasets", map[string]any{"name": "x"}); code != http.StatusBadRequest {
		t.Errorf("sourceless dataset: %d, want 400", code)
	}

	badJob := map[string]any{"dataset": "d", "method": "dbscan",
		"params": map[string]any{"eps": 5.0, "tau": 5}}
	if code, _ := postJSON(t, ts.URL+"/v1/jobs", badJob); code != http.StatusBadRequest {
		t.Errorf("bad eps: %d, want 400", code)
	}

	// A fast job on the idle engine: result is 409 until done, then 200.
	job := map[string]any{"dataset": "d", "method": "dbscan",
		"params": map[string]any{"eps": 0.55, "tau": 5}}
	code, body := postJSON(t, ts.URL+"/v1/jobs", job)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	id := body["id"].(string)
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body = getJSON(t, ts.URL+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("status: %d %v", code, body)
		}
		if state := body["state"].(string); state == "done" {
			break
		} else if state == "failed" || state == "canceled" {
			t.Fatalf("fast job ended %q: %v", state, body["error"])
		}
		if c, _ := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result"); c != http.StatusConflict && c != http.StatusOK {
			// 409 while pending; 200 only if the job finished between the
			// two requests.
			t.Fatalf("not-ready result: %d, want 409", c)
		}
		if time.Now().After(deadline) {
			t.Fatal("fast job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, _ = getJSON(t, ts.URL+"/v1/jobs/"+id+"/result"); code != http.StatusOK {
		t.Errorf("done result: %d, want 200", code)
	}

	// Backpressure: jobs on a dataset big enough to pin the single worker
	// for seconds. Slot 1 runs, slot 2 queues, slot 3 must bounce with 429.
	slow := map[string]any{"name": "slow", "synthetic": map[string]any{"kind": "ms", "n": 1500, "seed": 2}}
	if code, body := postJSON(t, ts.URL+"/v1/datasets", slow); code != http.StatusCreated {
		t.Fatalf("register slow: %d %v", code, body)
	}
	slowJob := map[string]any{"dataset": "slow", "method": "dbscan",
		"params": map[string]any{"eps": 0.55, "tau": 5, "workers": 1, "wave_size": 16}}
	var slowIDs []string
	got429 := false
	for i := 0; i < 3; i++ {
		code, body = postJSON(t, ts.URL+"/v1/jobs", slowJob)
		switch code {
		case http.StatusAccepted:
			slowIDs = append(slowIDs, body["id"].(string))
		case http.StatusTooManyRequests:
			got429 = true
		default:
			t.Fatalf("slow submit %d: unexpected %d %v", i, code, body)
		}
	}
	if !got429 {
		t.Error("never saw 429 from a full queue")
	}
	// Cancel the slow jobs so engine shutdown is prompt.
	for _, sid := range slowIDs {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sid, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if c, _ := decodeResp(t, resp); c != http.StatusOK {
			t.Errorf("cancel %s: %d", sid, c)
		}
	}

	if code, _ = getJSON(t, ts.URL+"/v1/healthz"); code != http.StatusOK {
		t.Errorf("healthz: %d", code)
	}
}

// TestEstimatorConfigRejected posts estimator configs that used to crash
// the server (a negative hidden width panicked inside the estimator cache's
// training goroutine) or train a network no loader accepts (a zero width),
// and a non-positive radius: each is a 400 naming the field, from
// /v1/estimators and from /v1/jobs, and the server keeps serving.
func TestEstimatorConfigRejected(t *testing.T) {
	s := NewServer(Options{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	code, body := postJSON(t, ts.URL+"/v1/datasets", map[string]any{
		"name": "d", "synthetic": map[string]any{"kind": "ms", "n": 40, "seed": 1},
	})
	if code != http.StatusCreated {
		t.Fatalf("register: %d %v", code, body)
	}
	for _, c := range []struct {
		estimator map[string]any
		field     string
	}{
		{map[string]any{"hidden": []int{-1}}, "Hidden[0] = -1"},
		{map[string]any{"hidden": []int{16, 0}}, "Hidden[1] = 0"},
		{map[string]any{"radii": []float64{0.5, -0.1}}, "Radii[1] = -0.1"},
	} {
		code, body := postJSON(t, ts.URL+"/v1/estimators", map[string]any{"dataset": "d", "estimator": c.estimator})
		msg, _ := body["error"].(string)
		if code != http.StatusBadRequest || !strings.Contains(msg, lafdbscan.ErrInvalidEstimatorConfig.Error()) || !strings.Contains(msg, c.field) {
			t.Errorf("POST /v1/estimators %v: %d %v, want 400 naming %q", c.estimator, code, body, c.field)
		}
		code, body = postJSON(t, ts.URL+"/v1/jobs", map[string]any{
			"dataset": "d", "method": "laf-dbscan", "params": map[string]any{"eps": 0.5, "tau": 3},
			"estimator": c.estimator,
		})
		if msg, _ := body["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, c.field) {
			t.Errorf("POST /v1/jobs with estimator %v: %d %v, want 400 naming %q", c.estimator, code, body, c.field)
		}
	}
	if code, body := getJSON(t, ts.URL+"/v1/stats"); code != http.StatusOK {
		t.Fatalf("stats after the rejected configs: %d %v", code, body)
	}
}
