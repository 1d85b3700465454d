package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"lafdbscan"
	"lafdbscan/internal/index"
	"lafdbscan/internal/trace"
	"lafdbscan/internal/wal"
)

// ErrQueueFull is returned by Submit when the job queue is at capacity. It
// is a backpressure signal, not a failure: the submission was not accepted
// and can be retried once a worker frees up (the HTTP layer maps it to
// 429 Too Many Requests with a Retry-After hint).
var ErrQueueFull = errors.New("serve: job queue full, retry later")

// ErrUnknownJob reports a reference to a job id the engine is not
// retaining (never submitted, or evicted past the retention cap); the
// HTTP layer maps it to 404.
var ErrUnknownJob = errors.New("unknown job")

// JobState is a job's lifecycle position. Transitions: queued → running →
// done | failed | canceled, or queued → canceled directly when the cancel
// arrives before a worker picks the job up.
type JobState string

// The job states.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// EstimatorSpec names the estimator a LAF job should use: an
// EstimatorConfig, trained on the job's dataset (or TrainDataset when set).
// The engine resolves it through the EstimatorCache, so every job sharing a
// spec shares one trained model.
type EstimatorSpec struct {
	// TrainDataset optionally names a different registered dataset to
	// train on (the paper's train/test split, server-side). Empty means
	// "train on the job's own dataset".
	TrainDataset string
	Config       lafdbscan.EstimatorConfig
}

// JobSpec is a clustering job submission: a registered dataset, any method
// of lafdbscan.Methods() (plus rho-approx), its parameters, and, for the
// LAF methods, the estimator to gate with. Params.Estimator and
// Params.Index are engine-owned — the engine fills them from the estimator
// cache and the dataset registry; values supplied by the caller are
// ignored.
type JobSpec struct {
	Dataset   string
	Method    lafdbscan.Method
	Params    lafdbscan.Params
	Estimator *EstimatorSpec
}

// Job is one submitted job — a clustering run, or a model-maintenance
// update (insert/remove) when exec is set. All fields are engine-managed;
// callers observe jobs through Status and Result snapshots.
type Job struct {
	id   string
	spec JobSpec
	// kind tags the job for status displays: "" (clustering) or a
	// maintenance kind like "model-insert"/"model-remove".
	kind string
	// exec, when non-nil, replaces the engine's clustering call: the job
	// runs this closure under the engine's context (wave progress wired),
	// inheriting the whole lifecycle — queueing, 429 backpressure,
	// cancel-within-one-wave, result retention.
	exec func(ctx context.Context) (*lafdbscan.Result, error)

	// link ties the job back to the submitting request's trace: spans the
	// job emits later (queued, run, per-wave events) parent under the HTTP
	// root span even though the request context is long gone by then. The
	// zero link (unsampled or untraced submission) makes every span op a
	// no-op.
	link trace.Link
	// queueSpan measures submit → worker pickup. Created at enqueue and
	// finished by the worker that pops the job; the engine mutex hand-off
	// between those two points orders the accesses.
	queueSpan *trace.Span

	// queriesDone counts completed range queries, fed by the wave engines'
	// progress hook; it is the poll-able progress signal.
	queriesDone atomic.Int64

	mu              sync.Mutex
	state           JobState
	err             error
	result          *lafdbscan.Result
	cancel          context.CancelFunc // non-nil while running
	cancelRequested bool
	estimatorCached bool
	created         time.Time
	started         time.Time
	finished        time.Time
}

// JobStatus is a point-in-time snapshot of a job, shaped for JSON.
type JobStatus struct {
	ID      string           `json:"id"`
	Dataset string           `json:"dataset"`
	Method  lafdbscan.Method `json:"method"`
	// Kind distinguishes model-maintenance jobs ("model-insert",
	// "model-remove") from plain clustering jobs (omitted).
	Kind  string   `json:"kind,omitempty"`
	State JobState `json:"state"`
	// QueriesDone is the number of range queries completed so far (and
	// after completion, in total) — the engine's progress measure.
	QueriesDone int64  `json:"queries_done"`
	Error       string `json:"error,omitempty"`
	// EstimatorCached reports whether the job's estimator came from the
	// cache (false when this job paid for training; meaningless for
	// non-LAF methods).
	EstimatorCached bool       `json:"estimator_cached,omitempty"`
	Created         time.Time  `json:"created"`
	Started         *time.Time `json:"started,omitempty"`
	Finished        *time.Time `json:"finished,omitempty"`
}

func (j *Job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := JobStatus{
		ID:              j.id,
		Dataset:         j.spec.Dataset,
		Method:          j.spec.Method,
		Kind:            j.kind,
		State:           j.state,
		QueriesDone:     j.queriesDone.Load(),
		EstimatorCached: j.estimatorCached,
		Created:         j.created,
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		s.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.Finished = &t
	}
	return s
}

// Options sizes an Engine.
type Options struct {
	// Workers is the number of jobs allowed to run concurrently; <= 0
	// selects GOMAXPROCS. This is the oversubscription guard: each job may
	// itself fan out over Params.Workers cores, so the product
	// Workers × Params.Workers is the operator's concurrency budget.
	Workers int
	// QueueDepth bounds the number of accepted-but-not-running jobs;
	// <= 0 selects 64. Beyond it Submit returns ErrQueueFull.
	QueueDepth int
	// MaxJobs bounds how many jobs (including finished ones, kept for
	// result fetches) are retained; <= 0 selects 4096. When exceeded, the
	// oldest finished jobs are evicted.
	MaxJobs int
	// MaxModels bounds the model store (each stored model retains its
	// training vectors); <= 0 selects 256. At capacity, fits and loads are
	// rejected until a model is deleted.
	MaxModels int
	// Run substitutes the clustering call (default
	// lafdbscan.ClusterContext). Tests use controllable fakes to pin the
	// job lifecycle without clustering work.
	Run runFunc

	// TraceCapacity sizes the server's span ring buffer (rounded up to a
	// power of two); <= 0 selects trace.DefaultCapacity.
	TraceCapacity int
	// TraceSampleEvery keeps every Nth request's trace: 0 selects the
	// default of 1 (trace everything), N > 1 samples 1-in-N, and any
	// negative value disables tracing entirely.
	TraceSampleEvery int
	// SlowRequestThreshold makes the middleware log a structured warning
	// (with the trace ID, when sampled) for any request at or over the
	// threshold; 0 disables the slow-request log.
	SlowRequestThreshold time.Duration
	// Logger receives the server's structured log lines (slow requests);
	// nil selects slog.Default().
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ — off by
	// default because profile endpoints on a serving port are an
	// operational decision (see docs/OPERATIONS.md).
	EnablePprof bool
	// IndexBackend is the server-wide default range-index backend for
	// requests that name none: "" keeps the exact default (brute force),
	// lafdbscan.IndexBackendAuto selects the HNSW graph.
	// Validate with lafdbscan.ResolveIndexBackend before constructing the
	// server — an invalid value is a programming error and NewServer
	// panics on it.
	IndexBackend string

	// WALDir enables durable models: every fitted, loaded or streamed model
	// gets a write-ahead-logged journal under this directory, and boot
	// recovers whatever journals it finds there (see docs/DURABILITY.md).
	// Empty keeps the server memory-only.
	WALDir string
	// WALSync is the journal fsync policy: "always" (default; every
	// committed mutation survives a crash), "interval" (bounded loss,
	// fewer fsyncs) or "off". Validate with wal.ParseSyncPolicy before
	// constructing the server — an invalid value is a programming error
	// and NewServer panics on it.
	WALSync string
	// WALSnapshotEvery rolls a model's journal generation (snapshot +
	// compaction) once its active segment holds this many records; <= 0
	// selects 1024.
	WALSnapshotEvery int
	// WALFS overrides the journal filesystem — tests inject crash faults
	// through it; nil selects the real disk.
	WALFS wal.FS
}

// runFunc executes one clustering call. The engine's default is
// lafdbscan.ClusterContext; tests substitute controllable fakes to pin the
// lifecycle without real clustering work.
type runFunc func(ctx context.Context, points [][]float32, m lafdbscan.Method, p lafdbscan.Params) (*lafdbscan.Result, error)

// Engine is the asynchronous job engine: Submit hands a clustering job to
// a bounded worker pool and returns immediately; Status/Result poll it;
// Cancel aborts it (within one neighbor-discovery wave for the parallel
// engines, a few dozen queries for the sequential ones) and frees its
// worker slot.
type Engine struct {
	reg *Registry
	est *EstimatorCache
	run runFunc

	workers int
	qdepth  int

	mu      sync.Mutex
	qcond   *sync.Cond // signaled when pending grows or the engine closes
	pending []*Job     // FIFO of accepted-but-not-running jobs
	jobs    map[string]*Job
	order   []string // submission order, for listing and eviction
	seq     int64
	closed  bool

	busy      atomic.Int32
	submitted atomic.Int64
	done      atomic.Int64
	failed    atomic.Int64
	canceled  atomic.Int64
	// queries totals completed range queries across every job, fed by the
	// same wave-progress hook as the per-job counters — the engine-wide
	// throughput signal /metrics and /v1/stats report.
	queries atomic.Int64

	maxJobs int
	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
}

// EngineStats is the engine's /stats view.
type EngineStats struct {
	Workers     int   `json:"workers"`
	BusyWorkers int   `json:"busy_workers"`
	QueueDepth  int   `json:"queue_depth"`
	Queued      int   `json:"queued"`
	Submitted   int64 `json:"submitted"`
	Done        int64 `json:"done"`
	Failed      int64 `json:"failed"`
	Canceled    int64 `json:"canceled"`
	// QueriesDone totals completed range queries across all jobs — the
	// engine-wide sum of every job's queries_done progress counter.
	QueriesDone int64 `json:"queries_done"`
}

// NewEngine builds an engine over a registry and estimator cache and starts
// its worker pool. Call Close to stop it.
func NewEngine(reg *Registry, est *EstimatorCache, opts Options) *Engine {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = 64
	}
	maxJobs := opts.MaxJobs
	if maxJobs <= 0 {
		maxJobs = 4096
	}
	run := opts.Run
	if run == nil {
		run = lafdbscan.ClusterContext
	}
	//lafvet:allow ctxflow the engine deliberately detaches jobs from request contexts; Close cancels this root
	ctx, stop := context.WithCancel(context.Background())
	e := &Engine{
		reg: reg, est: est, run: run,
		workers: workers, qdepth: depth,
		jobs: make(map[string]*Job), maxJobs: maxJobs,
		baseCtx: ctx, stop: stop,
	}
	e.qcond = sync.NewCond(&e.mu)
	for i := 0; i < workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Close stops the engine: new submissions are rejected, still-queued jobs
// are marked canceled without ever executing, running jobs are canceled
// through their contexts, and Close returns when every worker has exited.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	pending := e.pending
	e.pending = nil
	e.qcond.Broadcast()
	e.mu.Unlock()
	for _, job := range pending {
		e.markCanceled(job)
	}
	e.stop()
	e.wg.Wait()
}

// markCanceled finalizes a never-run job as canceled (no-op once the job
// left the queued state).
func (e *Engine) markCanceled(job *Job) {
	job.mu.Lock()
	if job.state == JobQueued {
		job.state = JobCanceled
		job.finished = time.Now()
		e.canceled.Add(1)
	}
	job.mu.Unlock()
}

// Submit validates and enqueues a clustering job, returning its id
// immediately. A full queue returns ErrQueueFull (retryable); validation
// failures return descriptive errors the HTTP layer maps to 400s.
//
// ctx is the submitting request's context, used only to capture its trace
// link — the job itself runs detached, under the engine's context, exactly
// as before. A context without an active span submits an untraced job.
func (e *Engine) Submit(ctx context.Context, spec JobSpec) (JobStatus, error) {
	if err := e.validate(&spec); err != nil {
		return JobStatus{}, err
	}
	return e.enqueue(ctx, &Job{spec: spec})
}

// SubmitFunc enqueues a custom job — the model insert/delete endpoints'
// path — under the same backpressure, cancellation and retention contract
// as clustering jobs. dataset and method label the job for listings; kind
// tags it (e.g. "model-insert"). exec runs on a worker slot with a context
// that cancels on DELETE /v1/jobs/{id} and carries the wave-progress hook,
// so queries_done progress works for maintenance exactly as for fits. ctx
// carries the submitting request's trace link, as in Submit.
func (e *Engine) SubmitFunc(ctx context.Context, dataset string, method lafdbscan.Method, kind string, exec func(ctx context.Context) (*lafdbscan.Result, error)) (JobStatus, error) {
	return e.enqueue(ctx, &Job{
		spec: JobSpec{Dataset: dataset, Method: method},
		kind: kind,
		exec: exec,
	})
}

// enqueue stamps and queues a prepared job under the engine lock.
func (e *Engine) enqueue(ctx context.Context, job *Job) (JobStatus, error) {
	job.link = trace.LinkFromContext(ctx)
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return JobStatus{}, errors.New("serve: engine closed")
	}
	if len(e.pending) >= e.qdepth {
		e.mu.Unlock()
		return JobStatus{}, ErrQueueFull
	}
	e.seq++
	job.id = fmt.Sprintf("j-%06d", e.seq)
	job.state = JobQueued
	job.created = time.Now()
	// The queued span starts here and is finished by the worker that pops
	// the job; created under the engine lock (after the id exists) so the
	// pop's lock acquisition orders the hand-off. A job canceled while
	// still queued never finishes the span — it never reaches the ring,
	// matching "the queue phase never completed".
	if qs := job.link.NewSpan("job.queued"); qs != nil {
		qs.Annotate(trace.Str("job", job.id),
			trace.Str("dataset", job.spec.Dataset),
			trace.Str("method", string(job.spec.Method)))
		job.queueSpan = qs
	}
	e.pending = append(e.pending, job)
	e.jobs[job.id] = job
	e.order = append(e.order, job.id)
	e.evictLocked()
	e.qcond.Signal()
	e.mu.Unlock()
	e.submitted.Add(1)
	return job.status(), nil
}

// validate rejects a spec the engine could not run; the model-fit endpoint
// shares the same rules through validateJobSpec, so a configuration is
// accepted as an async job exactly when it is accepted as a model fit.
func (e *Engine) validate(spec *JobSpec) error {
	return validateJobSpec(e.reg, spec)
}

// validateJobSpec rejects a spec the server could not run: unknown method,
// unregistered dataset, out-of-domain parameters, or a LAF method without
// an estimator spec. Sampling methods additionally need a positive sample
// fraction — checked here so the mistake costs a 400, not a failed job.
func validateJobSpec(reg *Registry, spec *JobSpec) error {
	known := false
	for _, m := range lafdbscan.AllMethods() {
		if spec.Method == m {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("serve: unknown method %q", spec.Method)
	}
	if _, err := reg.Get(spec.Dataset); err != nil {
		return err
	}
	// Estimator and Index are resolved by the engine at run time; clear
	// caller-supplied values so validation and execution see engine state.
	spec.Params.Estimator = nil
	spec.Params.Index = nil
	if err := spec.Params.Validate(); err != nil {
		return err
	}
	isLAF := spec.Method == lafdbscan.MethodLAFDBSCAN || spec.Method == lafdbscan.MethodLAFDBSCANPP
	if isLAF && spec.Estimator == nil {
		return fmt.Errorf("serve: method %q requires an estimator spec", spec.Method)
	}
	// Checked here, not only in the training goroutine of the estimator
	// cache, so a bad config is a 400 before the job is queued.
	if spec.Estimator != nil {
		if err := spec.Estimator.Config.Validate(); err != nil {
			return err
		}
	}
	if spec.Estimator != nil && spec.Estimator.TrainDataset != "" {
		if _, err := reg.Get(spec.Estimator.TrainDataset); err != nil {
			return err
		}
	}
	sampled := spec.Method == lafdbscan.MethodDBSCANPP || spec.Method == lafdbscan.MethodLAFDBSCANPP
	if sampled && spec.Params.SampleFraction <= 0 {
		return fmt.Errorf("serve: method %q requires a sample fraction in (0, 1]", spec.Method)
	}
	// Only DBSCAN and LAF-DBSCAN honor Params.Metric; every other method
	// is hardwired to cosine distance (converting internally where its
	// structure needs Euclidean). Accepting a non-cosine metric for them
	// would silently run a different clustering than requested — worse,
	// with an injected index it would mix metrics within one run.
	metricful := spec.Method == lafdbscan.MethodDBSCAN || spec.Method == lafdbscan.MethodLAFDBSCAN
	if !metricful && spec.Params.Metric != lafdbscan.MetricCosine {
		return fmt.Errorf("serve: method %q supports only the cosine metric", spec.Method)
	}
	return nil
}

// Status returns a snapshot of the named job.
func (e *Engine) Status(id string) (JobStatus, error) {
	job, err := e.job(id)
	if err != nil {
		return JobStatus{}, err
	}
	return job.status(), nil
}

// Result returns the clustering result of a finished job. Jobs in any
// other state return an error naming the state, so callers can distinguish
// "not yet" (queued/running) from "never" (failed/canceled).
func (e *Engine) Result(id string) (*lafdbscan.Result, error) {
	job, err := e.job(id)
	if err != nil {
		return nil, err
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	if job.state != JobDone {
		return nil, fmt.Errorf("serve: job %s is %s, no result", id, job.state)
	}
	return job.result, nil
}

// Cancel aborts a job: a queued job is marked canceled and skipped when a
// worker pops it; a running job has its context canceled, which the
// clustering engines honor within one wave, freeing the worker slot.
// Cancelling an already-finished job is a no-op reporting the final state.
func (e *Engine) Cancel(id string) (JobStatus, error) {
	job, err := e.job(id)
	if err != nil {
		return JobStatus{}, err
	}
	job.mu.Lock()
	switch job.state {
	case JobQueued:
		job.cancelRequested = true
		job.state = JobCanceled
		job.finished = time.Now()
		e.canceled.Add(1)
		job.mu.Unlock()
		// Free the queue slot so backpressure reflects runnable work. If a
		// worker popped the job between the unlock and here, removePending
		// finds nothing and the worker's own queued-state check skips it.
		e.removePending(job)
		return job.status(), nil
	case JobRunning:
		job.cancelRequested = true
		job.cancel()
	}
	job.mu.Unlock()
	return job.status(), nil
}

// removePending deletes a job from the FIFO, preserving order.
func (e *Engine) removePending(job *Job) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, j := range e.pending {
		if j == job {
			e.pending = append(e.pending[:i], e.pending[i+1:]...)
			return
		}
	}
}

// List returns a snapshot of every retained job in submission order.
func (e *Engine) List() []JobStatus {
	e.mu.Lock()
	ids := append([]string(nil), e.order...)
	e.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if job, err := e.job(id); err == nil {
			out = append(out, job.status())
		}
	}
	return out
}

// Stats returns the engine counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	queued := len(e.pending)
	e.mu.Unlock()
	return EngineStats{
		Workers:     e.workers,
		BusyWorkers: int(e.busy.Load()),
		QueueDepth:  e.qdepth,
		Queued:      queued,
		Submitted:   e.submitted.Load(),
		Done:        e.done.Load(),
		Failed:      e.failed.Load(),
		Canceled:    e.canceled.Load(),
		QueriesDone: e.queries.Load(),
	}
}

func (e *Engine) job(id string) (*Job, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	job, ok := e.jobs[id]
	if !ok {
		return nil, fmt.Errorf("serve: job %s: %w", id, ErrUnknownJob)
	}
	return job, nil
}

// evictLocked drops the oldest finished jobs once the retention cap is
// exceeded. Queued and running jobs are never evicted, so the cap can be
// transiently exceeded while that many jobs are genuinely in flight.
func (e *Engine) evictLocked() {
	if len(e.jobs) <= e.maxJobs {
		return
	}
	kept := e.order[:0]
	excess := len(e.jobs) - e.maxJobs
	for _, id := range e.order {
		job := e.jobs[id]
		if excess > 0 {
			job.mu.Lock()
			finished := job.state == JobDone || job.state == JobFailed || job.state == JobCanceled
			job.mu.Unlock()
			if finished {
				delete(e.jobs, id)
				excess--
				continue
			}
		}
		kept = append(kept, id)
	}
	e.order = kept
}

// worker is one slot of the pool: it pops pending jobs until the engine
// closes, skipping those canceled while queued.
func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		e.mu.Lock()
		for len(e.pending) == 0 && !e.closed {
			e.qcond.Wait()
		}
		if len(e.pending) == 0 {
			e.mu.Unlock()
			return
		}
		job := e.pending[0]
		e.pending = e.pending[1:]
		e.mu.Unlock()
		e.runJob(job)
	}
}

// runJob drives one job through its lifecycle.
func (e *Engine) runJob(job *Job) {
	job.mu.Lock()
	if job.state != JobQueued { // canceled while queued
		job.mu.Unlock()
		return
	}
	if e.baseCtx.Err() != nil { // engine shutting down: never start work
		job.state = JobCanceled
		job.finished = time.Now()
		job.mu.Unlock()
		e.canceled.Add(1)
		return
	}
	ctx, cancel := context.WithCancel(e.baseCtx)
	job.cancel = cancel
	job.state = JobRunning
	job.started = time.Now()
	job.mu.Unlock()
	defer cancel()

	// Trace hand-off: the queued span ends where the run span begins. Both
	// parent under the submitting request's root span through job.link, so
	// /v1/traces shows submit → queue → run → per-wave events as one tree.
	// This worker goroutine owns both spans from here on (the queued-state
	// check above proves no Cancel can be touching the job concurrently).
	if qs := job.queueSpan; qs != nil {
		qs.Finish()
		job.queueSpan = nil
	}
	runSpan := job.link.NewSpan("job.run")
	if runSpan != nil {
		runSpan.Annotate(trace.Str("job", job.id),
			trace.Str("dataset", job.spec.Dataset),
			trace.Str("method", string(job.spec.Method)))
		if job.kind != "" {
			runSpan.Annotate(trace.Str("kind", job.kind))
		}
		ctx = trace.ContextWithSpan(ctx, runSpan)
	}

	e.busy.Add(1)
	var res *lafdbscan.Result
	var err error
	if runSpan != nil {
		// CPU profile samples taken during this job carry its kind and
		// trace ID, so a hot profile attributes flat time to the job (and
		// via the trace ID, to the exact request) that caused it. Labels
		// ride the sampling decision: unsampled jobs skip the label set.
		kind := job.kind
		if kind == "" {
			kind = "cluster"
		}
		pprof.Do(ctx, pprof.Labels("laf_job", kind, "laf_trace", runSpan.TraceID.String()),
			func(ctx context.Context) { res, err = e.execute(ctx, job) })
	} else {
		res, err = e.execute(ctx, job)
	}
	e.busy.Add(-1)

	job.mu.Lock()
	job.finished = time.Now()
	job.cancel = nil
	switch {
	case err == nil:
		job.state = JobDone
		job.result = res
		e.done.Add(1)
	case errors.Is(err, context.Canceled):
		job.state = JobCanceled
		job.err = err
		e.canceled.Add(1)
	default:
		job.state = JobFailed
		job.err = err
		e.failed.Add(1)
	}
	state := job.state
	job.mu.Unlock()
	if runSpan != nil {
		runSpan.Annotate(trace.Str("state", string(state)),
			trace.Int("queries_done", job.queriesDone.Load()))
		runSpan.Finish()
	}
}

// execute resolves the job's shared resources — dataset vectors, the
// per-(dataset, metric) index, the cached estimator — wires the progress
// hook, and runs the clustering call. Custom jobs (SubmitFunc) skip
// resolution and run their closure under the hooked context directly.
func (e *Engine) execute(ctx context.Context, job *Job) (*lafdbscan.Result, error) {
	// One progress closure feeds three consumers at every wave barrier: the
	// job's poll-able counter, the engine-wide throughput counter, and (for
	// sampled jobs) a per-wave event on the run span — the trace's latency
	// breakdown. The wave engines call it from the goroutine driving the
	// waves, never concurrently within a batch call, which satisfies the
	// span ownership contract; a nil span makes the event a no-op.
	span := trace.FromContext(ctx)
	progress := func(q int) {
		job.queriesDone.Add(int64(q))
		e.queries.Add(int64(q))
		span.Event("wave", trace.Int("queries", int64(q)))
	}
	if job.exec != nil {
		return job.exec(index.WithWaveProgress(ctx, progress))
	}
	spec := job.spec
	ds, err := e.reg.Get(spec.Dataset)
	if err != nil {
		return nil, err
	}
	p := spec.Params
	idx, backend, ierr := e.reg.Index(spec.Dataset, p.Metric, p.IndexBackend)
	if ierr != nil {
		return nil, ierr
	}
	p.Index = idx
	span.Annotate(trace.Str("laf_index_backend", backend))
	est, cached, err := resolveEstimator(ctx, e.reg, e.est, spec)
	if err != nil {
		return nil, err
	}
	if est != nil {
		job.mu.Lock()
		job.estimatorCached = cached
		job.mu.Unlock()
		p.Estimator = est
	}
	return e.run(index.WithWaveProgress(ctx, progress), ds.Vectors, spec.Method, p)
}

// resolveEstimator resolves a spec's estimator through the shared cache:
// trained on the job's dataset (or the spec's TrainDataset), targeting the
// job dataset's size unless overridden. The job engine and the model-fit
// endpoint share it, so both pay for each (dataset, config) training at
// most once between them. cached reports whether a previous or concurrent
// request already paid. A nil spec.Estimator resolves to (nil, false, nil).
func resolveEstimator(ctx context.Context, reg *Registry, cache *EstimatorCache, spec JobSpec) (est lafdbscan.Estimator, cached bool, err error) {
	if spec.Estimator == nil {
		return nil, false, nil
	}
	ds, err := reg.Get(spec.Dataset)
	if err != nil {
		return nil, false, err
	}
	trainName := spec.Estimator.TrainDataset
	trainVecs := ds.Vectors
	if trainName == "" {
		trainName = spec.Dataset
	} else {
		tds, terr := reg.Get(trainName)
		if terr != nil {
			return nil, false, terr
		}
		trainVecs = tds.Vectors
	}
	cfg := spec.Estimator.Config
	if cfg.TargetSize == 0 {
		cfg.TargetSize = ds.Len()
	}
	est, cached, _, err = cache.Get(ctx, trainName, trainVecs, cfg)
	return est, cached, err
}
