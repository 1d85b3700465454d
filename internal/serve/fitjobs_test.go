package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lafdbscan"
	"lafdbscan/internal/dataset"
)

// A model fit is a job of the engine: these tests pin that it queues
// behind busy workers, that a client who leaves cancels it without storing
// a model, and that a full queue refuses it like any job.

const fitBody = `{"dataset":"mdl","method":"dbscan","params":{"eps":0.55,"tau":5}}`

// fitServer returns a server over opts with a small MS-like dataset "mdl".
func fitServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s := NewServer(opts)
	if err := s.reg.Register("mdl", dataset.MSLike(200, 7), "synthetic:ms"); err != nil {
		t.Fatal(err)
	}
	return s
}

// heldRun is an Options.Run fake that closes started on its first call and
// holds every call until release closes or its context ends.
func heldRun(started, release chan struct{}) runFunc {
	var once sync.Once
	return func(ctx context.Context, _ [][]float32, _ lafdbscan.Method, _ lafdbscan.Params) (*lafdbscan.Result, error) {
		once.Do(func() { close(started) })
		select {
		case <-release:
			return &lafdbscan.Result{Algorithm: "fake"}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// postFit serves one POST /v1/models under ctx on a goroutine; the
// recorder arrives on the returned channel once the handler returns.
func postFit(ctx context.Context, s *Server, body string) <-chan *httptest.ResponseRecorder {
	out := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/models", strings.NewReader(body)).WithContext(ctx)
		s.Handler().ServeHTTP(rec, req)
		out <- rec
	}()
	return out
}

// fitJob returns the status of the engine's only model-fit job.
func fitJob(t *testing.T, s *Server) JobStatus {
	t.Helper()
	var fits []JobStatus
	for _, st := range s.eng.List() {
		if st.Kind == "model-fit" {
			fits = append(fits, st)
		}
	}
	if len(fits) != 1 {
		t.Fatalf("engine lists %d model-fit jobs, want 1: %+v", len(fits), fits)
	}
	return fits[0]
}

// awaitFitState polls until the fit's job reaches want, failing if the
// handler answers first.
func awaitFitState(t *testing.T, s *Server, fitted <-chan *httptest.ResponseRecorder, want JobState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, st := range s.eng.List() {
			if st.Kind == "model-fit" && st.State == want {
				return
			}
		}
		select {
		case rec := <-fitted:
			t.Fatalf("fit answered %d %s before its job was %s", rec.Code, rec.Body, want)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("fit job never reached %s: %+v", want, s.eng.List())
		}
	}
}

// TestFitQueuesBehindBusyWorker posts a fit while the only worker holds a
// clustering job: the fit waits in the queue and answers 201 only after
// the job lets go of the worker.
func TestFitQueuesBehindBusyWorker(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	s := fitServer(t, Options{Workers: 1, QueueDepth: 4, Run: heldRun(started, release)})
	defer s.Close()
	if _, err := s.eng.Submit(context.Background(), dbscanSpec("mdl")); err != nil {
		t.Fatal(err)
	}
	<-started

	fitted := postFit(context.Background(), s, fitBody)
	awaitFitState(t, s, fitted, JobQueued)
	if st := s.eng.Stats(); st.Queued != 1 || st.BusyWorkers != 1 {
		t.Fatalf("engine stats = %+v, want the fit queued behind one busy worker", st)
	}
	close(release)
	rec := <-fitted
	if rec.Code != http.StatusCreated || !strings.Contains(rec.Body.String(), `"model"`) {
		t.Fatalf("fit after release: %d %s, want 201 with the model", rec.Code, rec.Body)
	}
	st := fitJob(t, s)
	if st.State != JobDone {
		t.Fatalf("fit job ended %s, want done", st.State)
	}
	if res, err := s.eng.Result(st.ID); err != nil || res.NumClusters == 0 || res.Labels != nil {
		t.Errorf("fit job result = %+v, %v; want the fit's counts without its labels", res, err)
	}
	if n := len(s.models.List()); n != 1 {
		t.Errorf("store holds %d models, want 1", n)
	}
}

// TestFitCanceledByClient cancels a fit's request context once while its
// job is queued and once while it runs: the job ends canceled, no model is
// stored, and the slot it held takes new work. A fit canceled through the
// jobs API instead answers its waiting client 409, as the job's result
// fetch does.
func TestFitCanceledByClient(t *testing.T) {
	t.Run("queued", func(t *testing.T) {
		started, release := make(chan struct{}), make(chan struct{})
		s := fitServer(t, Options{Workers: 1, QueueDepth: 1, Run: heldRun(started, release)})
		defer s.Close()
		defer close(release)
		if _, err := s.eng.Submit(context.Background(), dbscanSpec("mdl")); err != nil {
			t.Fatal(err)
		}
		<-started
		ctx, cancel := context.WithCancel(context.Background())
		fitted := postFit(ctx, s, fitBody)
		awaitFitState(t, s, fitted, JobQueued)
		cancel()
		<-fitted
		if st := fitJob(t, s); st.State != JobCanceled {
			t.Errorf("fit job ended %s, want canceled", st.State)
		}
		if n := len(s.models.List()); n != 0 {
			t.Errorf("store holds %d models after a canceled fit, want 0", n)
		}
		// The queue is one deep: a new job is accepted only if the
		// canceled fit gave its place back.
		if _, err := s.eng.Submit(context.Background(), dbscanSpec("mdl")); err != nil {
			t.Errorf("submit after the canceled fit: %v", err)
		}
	})
	t.Run("jobs API", func(t *testing.T) {
		started, release := make(chan struct{}), make(chan struct{})
		s := fitServer(t, Options{Workers: 1, QueueDepth: 1, Run: heldRun(started, release)})
		defer s.Close()
		defer close(release)
		if _, err := s.eng.Submit(context.Background(), dbscanSpec("mdl")); err != nil {
			t.Fatal(err)
		}
		<-started
		fitted := postFit(context.Background(), s, fitBody)
		awaitFitState(t, s, fitted, JobQueued)
		if _, err := s.eng.Cancel(fitJob(t, s).ID); err != nil {
			t.Fatal(err)
		}
		if rec := <-fitted; rec.Code != http.StatusConflict {
			t.Errorf("fit canceled through the jobs API: %d %s, want 409", rec.Code, rec.Body)
		}
		if n := len(s.models.List()); n != 0 {
			t.Errorf("store holds %d models after a canceled fit, want 0", n)
		}
	})
	t.Run("running", func(t *testing.T) {
		s := fitServer(t, Options{Workers: 1, QueueDepth: 1})
		defer s.Close()
		// A training that never finishes holds the fit in its estimator
		// resolution, on the worker, until its context ends.
		cfg := lafdbscan.EstimatorConfig{MaxQueries: 40, Hidden: []int{8}, Epochs: 1, Seed: 1}
		key := cfg
		key.TargetSize = 200
		s.est.mu.Lock()
		s.est.entries[EstimatorKey("mdl", key)] = &estEntry{ready: make(chan struct{})}
		s.est.mu.Unlock()

		ctx, cancel := context.WithCancel(context.Background())
		fitted := postFit(ctx, s, `{"dataset":"mdl","method":"laf-dbscan","params":{"eps":0.55,"tau":5},`+
			`"estimator":{"max_queries":40,"hidden":[8],"epochs":1,"seed":1}}`)
		awaitFitState(t, s, fitted, JobRunning)
		cancel()
		<-fitted
		if st := fitJob(t, s); st.State != JobCanceled {
			t.Errorf("fit job ended %s (%s), want canceled", st.State, st.Error)
		}
		if n := len(s.models.List()); n != 0 {
			t.Errorf("store holds %d models after a canceled fit, want 0", n)
		}
		if st := s.eng.Stats(); st.BusyWorkers != 0 || st.Canceled != 1 {
			t.Errorf("engine stats = %+v, want no busy worker and one canceled job", st)
		}
		if rec := <-postFit(context.Background(), s, fitBody); rec.Code != http.StatusCreated {
			t.Errorf("fit after the canceled one: %d %s, want 201", rec.Code, rec.Body)
		}
	})
}

// TestFitQueueFull429 posts a fit while a job holds the only worker and
// another fills the one-deep queue: the fit is refused like a job, 429
// with Retry-After, and nothing is stored.
func TestFitQueueFull429(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	s := fitServer(t, Options{Workers: 1, QueueDepth: 1, Run: heldRun(started, release)})
	defer s.Close()
	defer close(release)
	for i := 0; i < 2; i++ {
		if _, err := s.eng.Submit(context.Background(), dbscanSpec("mdl")); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-started
		}
	}
	rec := <-postFit(context.Background(), s, fitBody)
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("fit against a full queue: %d (Retry-After %q) %s, want 429 with Retry-After",
			rec.Code, rec.Header().Get("Retry-After"), rec.Body)
	}
	if n := len(s.models.List()); n != 0 {
		t.Errorf("store holds %d models after a refused fit, want 0", n)
	}
}
