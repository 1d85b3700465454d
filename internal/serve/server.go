package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	netpprof "net/http/pprof"
	"time"

	"lafdbscan"
	"lafdbscan/internal/telemetry"
	"lafdbscan/internal/trace"
)

// Server is the HTTP JSON facade over the registry, the estimator cache
// and the job engine. Routes (all under /v1, plus the scrape endpoint):
//
//	POST   /v1/datasets          register a dataset (file, synthetic or inline vectors)
//	GET    /v1/datasets          list registered datasets
//	GET    /v1/datasets/{name}   one dataset's info
//	POST   /v1/estimators        train (or fetch cached) an estimator synchronously
//	POST   /v1/jobs              submit an async clustering job (202, or 429 when full)
//	GET    /v1/jobs              list jobs
//	GET    /v1/jobs/{id}         poll status/progress
//	GET    /v1/jobs/{id}/result  fetch a finished job's labels and metrics
//	DELETE /v1/jobs/{id}         cancel (queued: immediate; running: within one wave)
//	POST   /v1/models            fit a model synchronously (201; canceled by disconnect)
//	GET    /v1/models            list stored models
//	GET    /v1/models/{id}       one model's info
//	DELETE /v1/models/{id}       delete a model
//	GET    /v1/models/{id}/save  download the model's binary serialization
//	POST   /v1/models/load       upload a serialized model (binary body)
//	POST   /v1/models/{id}/predict  assign vectors to the model's clusters
//	POST   /v1/models/{id}/insert   async: fold new vectors into the clustering (202, job id)
//	POST   /v1/models/{id}/delete   async: drop point ids from the clustering (202, job id)
//	POST   /v1/models/{id}/stream   async: journaled micro-batched insert stream (202, job id)
//	POST   /v1/models/{id}/snapshot commit a journaled model's snapshot generation (200)
//	GET    /v1/stats             registry / cache / engine / model counters
//	GET    /v1/traces            recent request traces (?trace=, ?min_ms=, ?limit=)
//	GET    /v1/healthz           liveness
//	GET    /metrics              Prometheus text-format scrape endpoint
//	GET    /debug/pprof/...      Go profiling endpoints (only with Options.EnablePprof)
//
// Every route is instrumented through internal/telemetry: request counts
// and latency histograms per route pattern, in-flight and rejection
// counters, plus scrape-time bridges into the engine, cache and store
// counters (the catalog lives in docs/OPERATIONS.md).
type Server struct {
	reg     *Registry
	est     *EstimatorCache
	eng     *Engine
	models  *ModelStore
	metrics *serverMetrics
	tracer  *trace.Tracer
	// fitSlots caps concurrent synchronous model fits at the job engine's
	// worker count, so a burst of POST /v1/models cannot oversubscribe the
	// machine past the concurrency budget the bounded engine enforces for
	// jobs; excess fits get 429, the same backpressure contract as Submit.
	fitSlots chan struct{}
	mux      *http.ServeMux
	start    time.Time
	logger   *slog.Logger
	// wal, when non-nil, journals every stored model's mutations (see
	// docs/DURABILITY.md); nil means memory-only operation.
	wal *walManager
}

// NewServer wires a fresh registry, estimator cache, job engine and model
// store into an HTTP handler. Close the server (not just the listener) to
// stop the engine's workers.
func NewServer(opts Options) *Server {
	reg := NewRegistry()
	if err := reg.SetDefaultIndexBackend(opts.IndexBackend); err != nil {
		// Options.IndexBackend documents the contract: callers validate
		// with lafdbscan.ResolveIndexBackend first.
		panic(err)
	}
	est := NewEstimatorCache()
	eng := NewEngine(reg, est, opts)
	mreg := telemetry.NewRegistry()
	// Sampling default is trace-everything: the ring is a bounded flight
	// recorder, so "on" costs one span tree per request and nothing when
	// the ring wraps. Negative disables (trace.New treats 0 as off).
	sampleEvery := opts.TraceSampleEvery
	if sampleEvery == 0 {
		sampleEvery = 1
	} else if sampleEvery < 0 {
		sampleEvery = 0
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	tracer := trace.New(opts.TraceCapacity, sampleEvery)
	s := &Server{
		reg:      reg,
		est:      est,
		eng:      eng,
		models:   NewModelStore(opts.MaxModels),
		metrics:  newServerMetrics(mreg, tracer, logger, opts.SlowRequestThreshold),
		tracer:   tracer,
		fitSlots: make(chan struct{}, eng.workers),
		mux:      http.NewServeMux(),
		start:    time.Now(),
		logger:   logger,
	}
	wm, err := newWALManager(opts, mreg, s.models)
	if err != nil {
		// Options.WALDir/WALSync document the contract: callers validate the
		// sync policy with wal.ParseSyncPolicy and pick a creatable
		// directory before constructing the server.
		panic(err)
	}
	s.wal = wm
	reg.registerMetrics(mreg)
	est.registerMetrics(mreg)
	eng.registerMetrics(mreg)
	s.models.registerMetrics(mreg)
	registerRuntimeMetrics(mreg)
	registerTraceMetrics(mreg, tracer)
	mreg.GaugeFunc("laf_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	s.routes(opts.EnablePprof)
	// Recovery runs after the mux and metrics exist so recovered models are
	// fully observable, but before NewServer returns so the first request
	// already sees them.
	s.recoverJournaledModels()
	return s
}

// Tracer exposes the server's span ring (tests assert against it; cmd
// tooling reads it over /v1/traces instead).
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// Metrics exposes the server's telemetry registry (cmd/lafserve logs a
// startup summary through it; tests scrape it directly).
func (s *Server) Metrics() *telemetry.Registry { return s.metrics.reg }

// Registry exposes the server's dataset registry (cmd/lafserve preloads
// datasets from flags through it).
func (s *Server) Registry() *Registry { return s.reg }

// Close stops the job engine and flushes every model journal (the clean
// shutdown path; a hard kill instead relies on WAL replay at the next
// boot).
func (s *Server) Close() {
	s.eng.Close()
	if err := s.models.CloseDurables(); err != nil {
		s.logger.Error("wal: closing model journals", "err", err)
	}
}

// Handler returns the root HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// handle registers one instrumented route: the pattern becomes the
// endpoint label of the route's request counter and latency histogram
// (bounded cardinality — raw paths never reach a label).
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, s.metrics.instrument(pattern, h))
}

func (s *Server) routes(enablePprof bool) {
	s.handle("POST /v1/datasets", s.handleRegisterDataset)
	s.handle("GET /v1/datasets", s.handleListDatasets)
	s.handle("GET /v1/datasets/{name}", s.handleGetDataset)
	s.handle("POST /v1/estimators", s.handleTrainEstimator)
	s.handle("POST /v1/jobs", s.handleSubmitJob)
	s.handle("GET /v1/jobs", s.handleListJobs)
	s.handle("GET /v1/jobs/{id}", s.handleJobStatus)
	s.handle("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.handle("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.handle("POST /v1/models", s.handleFitModel)
	s.handle("GET /v1/models", s.handleListModels)
	// "load" is a reserved id: the literal route wins over the {id} pattern
	// under the Go 1.22 mux's most-specific rule.
	s.handle("POST /v1/models/load", s.handleLoadModel)
	s.handle("GET /v1/models/{id}", s.handleGetModel)
	s.handle("DELETE /v1/models/{id}", s.handleDeleteModel)
	s.handle("GET /v1/models/{id}/save", s.handleSaveModel)
	s.handle("POST /v1/models/{id}/predict", s.handlePredict)
	s.handle("POST /v1/models/{id}/insert", s.handleInsertModel)
	s.handle("POST /v1/models/{id}/delete", s.handleRemovePoints)
	s.handle("POST /v1/models/{id}/stream", s.handleStreamModel)
	s.handle("POST /v1/models/{id}/snapshot", s.handleSnapshotModel)
	s.handle("GET /v1/stats", s.handleStats)
	s.handle("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	// The scrape endpoint itself is not instrumented: scrapes measuring
	// themselves would be noise in every latency panel. Same for the trace
	// endpoint — reading the flight recorder must not write to it, or a
	// tight poll would evict the very spans it came to fetch.
	s.mux.Handle("GET /metrics", s.metrics.reg.Handler())
	s.mux.HandleFunc("GET /v1/traces", s.handleTraces)
	if enablePprof {
		// Mounted explicitly rather than importing net/http/pprof for its
		// DefaultServeMux side effect: the server owns its mux, and the
		// flag gate would be meaningless if a blank import registered the
		// handlers anyway.
		s.mux.HandleFunc("GET /debug/pprof/", netpprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", netpprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", netpprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", netpprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", netpprof.Trace)
	}
	// Catch-all: requests matching no route still get counted (under the
	// fixed "other" endpoint label, never the raw path) before their JSON
	// 404. Go 1.22's mux has no post-match pattern hook, so an explicit
	// least-specific route is how unmatched traffic becomes observable.
	s.mux.HandleFunc("/", s.metrics.instrument(endpointUnknown,
		func(w http.ResponseWriter, r *http.Request) {
			writeError(w, http.StatusNotFound,
				fmt.Errorf("serve: no route for %s %s", r.Method, r.URL.Path))
		}))
}

// --- wire formats ---

// paramsJSON is the over-the-wire shape of lafdbscan.Params (the Estimator
// and Index fields are engine-owned and have no wire form). Metric travels
// as a string for readability.
type paramsJSON struct {
	Eps                   float64 `json:"eps"`
	Tau                   int     `json:"tau"`
	Alpha                 float64 `json:"alpha,omitempty"`
	SampleFraction        float64 `json:"sample_fraction,omitempty"`
	Branching             int     `json:"branching,omitempty"`
	LeavesRatio           float64 `json:"leaves_ratio,omitempty"`
	Base                  float64 `json:"base,omitempty"`
	RNT                   int     `json:"rnt,omitempty"`
	Rho                   float64 `json:"rho,omitempty"`
	Metric                string  `json:"metric,omitempty"` // "cosine" (default) or "euclidean"
	Seed                  int64   `json:"seed,omitempty"`
	Workers               int     `json:"workers,omitempty"`
	BatchSize             int     `json:"batch_size,omitempty"`
	WaveSize              int     `json:"wave_size,omitempty"`
	DisablePostProcessing bool    `json:"disable_post_processing,omitempty"`
	// IndexBackend names the range-index implementation ("brute", "hnsw",
	// ..., or "auto" for HNSW); empty keeps the server default. There is no
	// ef_search: jobs run on the registry's shared graph, built once per
	// dataset with the default beam.
	IndexBackend string `json:"index_backend,omitempty"`
}

func (p paramsJSON) toParams() (lafdbscan.Params, error) {
	out := lafdbscan.Params{
		Eps: p.Eps, Tau: p.Tau, Alpha: p.Alpha,
		SampleFraction: p.SampleFraction,
		Branching:      p.Branching, LeavesRatio: p.LeavesRatio,
		Base: p.Base, RNT: p.RNT, Rho: p.Rho,
		Seed: p.Seed, Workers: p.Workers, BatchSize: p.BatchSize,
		WaveSize:              p.WaveSize,
		DisablePostProcessing: p.DisablePostProcessing,
		IndexBackend:          p.IndexBackend,
	}
	switch p.Metric {
	case "", "cosine":
		out.Metric = lafdbscan.MetricCosine
	case "euclidean":
		out.Metric = lafdbscan.MetricEuclidean
	default:
		return out, fmt.Errorf("serve: unknown metric %q (want cosine or euclidean)", p.Metric)
	}
	return out, nil
}

// estimatorJSON is the wire shape of an EstimatorSpec.
type estimatorJSON struct {
	TrainDataset string    `json:"train_dataset,omitempty"`
	Radii        []float64 `json:"radii,omitempty"`
	MaxQueries   int       `json:"max_queries,omitempty"`
	TargetSize   int       `json:"target_size,omitempty"`
	Paper        bool      `json:"paper,omitempty"`
	Hidden       []int     `json:"hidden,omitempty"`
	Epochs       int       `json:"epochs,omitempty"`
	BatchSize    int       `json:"batch_size,omitempty"`
	LR           float64   `json:"lr,omitempty"`
	Metric       string    `json:"metric,omitempty"`
	Seed         int64     `json:"seed,omitempty"`
}

func (e estimatorJSON) toSpec() (EstimatorSpec, error) {
	cfg := lafdbscan.EstimatorConfig{
		Radii: e.Radii, MaxQueries: e.MaxQueries, TargetSize: e.TargetSize,
		Paper: e.Paper, Hidden: e.Hidden, Epochs: e.Epochs,
		BatchSize: e.BatchSize, LR: e.LR, Seed: e.Seed,
	}
	switch e.Metric {
	case "", "cosine":
		cfg.Metric = lafdbscan.MetricCosine
	case "euclidean":
		cfg.Metric = lafdbscan.MetricEuclidean
	default:
		return EstimatorSpec{}, fmt.Errorf("serve: unknown estimator metric %q", e.Metric)
	}
	return EstimatorSpec{TrainDataset: e.TrainDataset, Config: cfg}, nil
}

// --- handlers ---

func (s *Server) handleRegisterDataset(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name      string `json:"name"`
		Path      string `json:"path,omitempty"`
		Synthetic *struct {
			Kind string `json:"kind"`
			N    int    `json:"n"`
			Seed int64  `json:"seed"`
		} `json:"synthetic,omitempty"`
		Vectors [][]float32 `json:"vectors,omitempty"`
	}
	if !decodeJSON(w, r, &req) {
		return
	}
	sources := 0
	if req.Path != "" {
		sources++
	}
	if req.Synthetic != nil {
		sources++
	}
	if len(req.Vectors) > 0 {
		sources++
	}
	if sources != 1 {
		writeError(w, http.StatusBadRequest,
			errors.New("serve: exactly one of path, synthetic or vectors is required"))
		return
	}
	var (
		info DatasetInfo
		err  error
	)
	switch {
	case req.Path != "":
		info, err = s.reg.RegisterFile(req.Name, req.Path)
	case req.Synthetic != nil:
		info, err = s.reg.RegisterSynthetic(req.Name, req.Synthetic.Kind, req.Synthetic.N, req.Synthetic.Seed)
	default:
		info, err = s.reg.RegisterVectors(req.Name, req.Vectors)
	}
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"datasets": s.reg.List()})
}

func (s *Server) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	info, err := s.reg.Info(r.PathValue("name"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleTrainEstimator(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Dataset   string        `json:"dataset"`
		Estimator estimatorJSON `json:"estimator"`
	}
	if !decodeJSON(w, r, &req) {
		return
	}
	spec, err := req.Estimator.toSpec()
	if err == nil {
		err = spec.Config.Validate()
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ds, err := s.reg.Get(req.Dataset)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	trainName := req.Dataset
	trainVecs := ds.Vectors
	if spec.TrainDataset != "" {
		tds, terr := s.reg.Get(spec.TrainDataset)
		if terr != nil {
			writeError(w, statusFor(terr), terr)
			return
		}
		trainName, trainVecs = spec.TrainDataset, tds.Vectors
	}
	cfg := spec.Config
	if cfg.TargetSize == 0 {
		cfg.TargetSize = ds.Len()
	}
	_, cached, trainTime, err := s.est.Get(r.Context(), trainName, trainVecs, cfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"key":      EstimatorKey(trainName, cfg),
		"cached":   cached,
		"train_ms": trainTime.Milliseconds(),
	})
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Dataset   string         `json:"dataset"`
		Method    string         `json:"method"`
		Params    paramsJSON     `json:"params"`
		Estimator *estimatorJSON `json:"estimator,omitempty"`
	}
	if !decodeJSON(w, r, &req) {
		return
	}
	params, err := req.Params.toParams()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	spec := JobSpec{
		Dataset: req.Dataset,
		Method:  lafdbscan.Method(req.Method),
		Params:  params,
	}
	if req.Estimator != nil {
		es, eerr := req.Estimator.toSpec()
		if eerr != nil {
			writeError(w, http.StatusBadRequest, eerr)
			return
		}
		spec.Estimator = &es
	}
	status, err := s.eng.Submit(r.Context(), spec)
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, err)
			return
		}
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, status)
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.eng.List()})
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	status, err := s.eng.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, status)
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res, err := s.eng.Result(id)
	if err != nil {
		if errors.Is(err, ErrUnknownJob) {
			writeError(w, http.StatusNotFound, err)
			return
		}
		// Known job, wrong state: 409 tells the poller to keep waiting (or
		// give up, for failed/canceled jobs — the message names the state).
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":              id,
		"algorithm":       res.Algorithm,
		"labels":          res.Labels,
		"num_clusters":    res.NumClusters,
		"elapsed_ms":      res.Elapsed.Milliseconds(),
		"range_queries":   res.RangeQueries,
		"skipped_queries": res.SkippedQueries,
		"post_merges":     res.PostMerges,
	})
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	status, err := s.eng.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, status)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_s":        int64(time.Since(s.start).Seconds()),
		"datasets":        s.reg.Len(),
		"estimator_cache": s.est.Stats(),
		"jobs":            s.eng.Stats(),
		"models":          s.models.Stats(),
		"wal":             s.wal.stats(s.models),
		"index": map[string]any{
			"default_backend": s.reg.DefaultIndexBackend(),
			"backends":        lafdbscan.IndexBackends(),
			"datasets":        s.reg.IndexInfo(),
		},
	})
}

// --- helpers ---

// maxBodyBytes caps every request body. Inline-vector registrations are
// the only big payloads (64 MiB ≈ a 4M-float dataset); everything else is
// tiny. Oversized bodies fail decoding with a 400 instead of exhausting
// memory, since registered datasets are retained for the server's life.
const maxBodyBytes = 64 << 20

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: decoding request: %w", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// statusFor maps the package's sentinel errors onto HTTP statuses;
// everything else is a 400 (the request referenced or contained something
// the server rejects).
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrNotFound), errors.Is(err, ErrUnknownJob), errors.Is(err, ErrUnknownModel):
		return http.StatusNotFound
	case errors.Is(err, ErrExists), errors.Is(err, ErrModelStoreFull):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}
