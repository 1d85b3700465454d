package serve

import (
	"context"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"lafdbscan/internal/telemetry"
	"lafdbscan/internal/trace"
)

// This file is the server's observability wiring: every exported series,
// the HTTP middleware that feeds the per-endpoint instruments, and the
// scrape-time bridges into the counters the engine, caches and stores
// already maintain. docs/OPERATIONS.md is the operator-facing catalog of
// everything registered here — keep the two in sync.

// serverMetrics holds the HTTP-layer instruments. Per-endpoint histograms
// are resolved once at route registration; per-(endpoint, code) counters
// are resolved on first occurrence of the code (a mutex-guarded lookup,
// off the request path's critical section only by a handful of ns — the
// request itself just did real work). It also owns the request-scoped
// observability the middleware adds around every handler: the root span
// per sampled request, the X-Laf-Trace response header, pprof endpoint
// labels, and the slow-request log.
type serverMetrics struct {
	reg      *telemetry.Registry
	inflight *telemetry.Gauge
	tracer   *trace.Tracer
	logger   *slog.Logger
	// slow is the slow-request log threshold; 0 disables the log.
	slow time.Duration
}

// Series names and help strings of the HTTP layer.
const (
	metricRequests  = "laf_http_requests_total"
	metricDuration  = "laf_http_request_duration_seconds"
	metricInflight  = "laf_http_inflight_requests"
	metricRejects   = "laf_http_rejections_total"
	helpRequests    = "HTTP requests served, by route pattern and status code."
	helpDuration    = "HTTP request latency in seconds, by route pattern."
	helpInflight    = "HTTP requests currently being served."
	helpRejects     = "Requests refused with backpressure or capacity statuses (429 job queue, 409 model store)."
	endpointUnknown = "other"
)

func newServerMetrics(reg *telemetry.Registry, tracer *trace.Tracer, logger *slog.Logger, slow time.Duration) *serverMetrics {
	if logger == nil {
		logger = slog.Default()
	}
	return &serverMetrics{
		reg:      reg,
		inflight: reg.Gauge(metricInflight, helpInflight),
		tracer:   tracer,
		logger:   logger,
		slow:     slow,
	}
}

// TraceHeader is the response header carrying the request's trace ID when
// the request was sampled; resolve it at GET /v1/traces?trace=<id>.
const TraceHeader = "X-Laf-Trace"

// statusRecorder captures the status code a handler commits, defaulting to
// 200 for handlers that write the body directly.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps one route's handler with the endpoint's request
// counter, latency histogram and in-flight gauge, and — for sampled
// requests — a root span named by the route, echoed to the client in the
// X-Laf-Trace header and carried on the request context so every layer
// below (jobs, estimator cache, wave barriers) parents under it. endpoint
// is the route pattern (bounded cardinality by construction — raw request
// paths never become label values).
func (m *serverMetrics) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	hist := m.reg.Histogram(metricDuration, helpDuration, nil,
		telemetry.Label{Name: "endpoint", Value: endpoint})
	return func(w http.ResponseWriter, r *http.Request) {
		m.inflight.Inc()
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		ctx, span := m.tracer.Root(r.Context(), endpoint)
		if span != nil {
			// The header must be set before the handler writes anything —
			// headers are frozen at the first body byte.
			w.Header().Set(TraceHeader, span.TraceID.String())
			span.Annotate(trace.Str("method", r.Method), trace.Str("path", r.URL.Path))
			r = r.WithContext(ctx)
		}
		// Recording runs deferred so a panicking handler (net/http recovers
		// it per-connection) still balances the inflight gauge, is counted —
		// as a 500, the status the client effectively saw — and still closes
		// the root span: a trace of a crashed request is exactly the trace
		// worth keeping. The panic is re-raised to preserve net/http's
		// handling.
		defer func() {
			if p := recover(); p != nil {
				rec.code = http.StatusInternalServerError
				defer panic(p)
			}
			dur := time.Since(start)
			span.Annotate(trace.Int("status", int64(rec.code)))
			span.Finish()
			if m.slow > 0 && dur >= m.slow {
				// span is nil for unsampled slow requests; the line still
				// fires (the threshold, not the sampler, decides what is
				// slow) with an empty trace field.
				m.logger.Warn("slow request",
					"endpoint", endpoint,
					"method", r.Method,
					"path", r.URL.Path,
					"status", rec.code,
					"duration_ms", float64(dur)/float64(time.Millisecond),
					"trace", span.Trace().String())
			}
			hist.Observe(dur.Seconds())
			m.inflight.Dec()
			code := strconv.Itoa(rec.code)
			m.reg.Counter(metricRequests, helpRequests,
				telemetry.Label{Name: "endpoint", Value: endpoint},
				telemetry.Label{Name: "code", Value: code}).Inc()
			if rec.code == http.StatusTooManyRequests || rec.code == http.StatusConflict {
				m.reg.Counter(metricRejects, helpRejects,
					telemetry.Label{Name: "code", Value: code}).Inc()
			}
		}()
		if span != nil {
			// CPU profile samples taken while the handler runs carry the
			// endpoint and trace ID (`go tool pprof -tags`). Labels ride
			// the sampling decision, so the unsampled path stays free.
			pprof.Do(r.Context(), pprof.Labels("laf_endpoint", endpoint, "laf_trace", span.TraceID.String()),
				func(ctx context.Context) { h(rec, r.WithContext(ctx)) })
			return
		}
		h(rec, r)
	}
}

// registerMetrics bridges the engine's own atomic counters into the
// registry: queue depth and worker occupancy as gauges, the lifecycle
// totals and the engine-wide wave progress as counters. All are read at
// scrape time, so the job path pays nothing beyond what it already did.
func (e *Engine) registerMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("laf_jobs_workers", "Size of the job engine's worker pool.",
		func() float64 { return float64(e.workers) })
	reg.GaugeFunc("laf_jobs_busy_workers", "Workers currently executing a job.",
		func() float64 { return float64(e.busy.Load()) })
	reg.GaugeFunc("laf_jobs_queued", "Jobs accepted but not yet running (current queue depth).",
		func() float64 {
			e.mu.Lock()
			n := len(e.pending)
			e.mu.Unlock()
			return float64(n)
		})
	reg.GaugeFunc("laf_jobs_queue_capacity", "Queued-job capacity; beyond it submissions get 429.",
		func() float64 { return float64(e.qdepth) })
	reg.CounterFunc("laf_jobs_submitted_total", "Jobs accepted by Submit/SubmitFunc.",
		e.submitted.Load)
	reg.CounterFunc("laf_jobs_done_total", "Jobs finished successfully.", e.done.Load)
	reg.CounterFunc("laf_jobs_failed_total", "Jobs finished with an error.", e.failed.Load)
	reg.CounterFunc("laf_jobs_canceled_total", "Jobs canceled (queued or mid-run).", e.canceled.Load)
	reg.CounterFunc("laf_wave_queries_total",
		"Range queries completed across all jobs, reported at every wave barrier (the queries_done rate).",
		e.queries.Load)
}

// registerMetrics exports the estimator cache's amortization counters.
func (c *EstimatorCache) registerMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("laf_estimator_cache_entries", "Trained estimators resident in the cache.",
		func() float64 { return float64(c.Stats().Entries) })
	reg.CounterFunc("laf_estimator_cache_hits_total",
		"Estimator requests answered by a previous (or concurrent) training.", c.hits.Load)
	reg.CounterFunc("laf_estimator_cache_misses_total",
		"Estimator requests that paid for a training.", c.misses.Load)
}

// registerMetrics exports the model store's occupancy and activity.
func (s *ModelStore) registerMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("laf_models_stored", "Models resident in the store.",
		func() float64 {
			s.mu.Lock()
			n := len(s.entries)
			s.mu.Unlock()
			return float64(n)
		})
	reg.GaugeFunc("laf_models_capacity", "Model store capacity; at it, fits and loads get 409.",
		func() float64 { return float64(s.cap) })
	reg.CounterFunc("laf_model_fits_total", "Models fitted through POST /v1/models.", s.fitted.Load)
	reg.CounterFunc("laf_model_loads_total", "Models uploaded through /v1/models/load.", s.loaded.Load)
	reg.CounterFunc("laf_model_deletes_total", "Models deleted from the store.", s.deleted.Load)
	reg.CounterFunc("laf_model_predictions_total", "Successful predict requests.", s.predictions.Load)
	const updatesHelp = "Completed maintenance operations, by kind (insert/remove)."
	reg.CounterFunc("laf_model_updates_total", updatesHelp,
		s.inserts.Load, telemetry.Label{Name: "kind", Value: "insert"})
	reg.CounterFunc("laf_model_updates_total", updatesHelp,
		s.removes.Load, telemetry.Label{Name: "kind", Value: "remove"})
	const pointsHelp = "Points moved by maintenance operations, by kind (insert/remove)."
	reg.CounterFunc("laf_model_points_updated_total", pointsHelp,
		s.pointsInserted.Load, telemetry.Label{Name: "kind", Value: "insert"})
	reg.CounterFunc("laf_model_points_updated_total", pointsHelp,
		s.pointsRemoved.Load, telemetry.Label{Name: "kind", Value: "remove"})
}

// registerMetrics exports the dataset registry's population and attaches
// the telemetry registry for the per-backend index-build counter
// (laf_index_builds_total{laf_index_backend=...}, bumped as shared
// indexes are constructed).
func (r *Registry) registerMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("laf_datasets_registered", "Datasets resident in the registry.",
		func() float64 { return float64(r.Len()) })
	r.mu.Lock()
	r.telemetry = reg
	r.mu.Unlock()
}

// registerRuntimeMetrics bridges the Go runtime into the scrape: the four
// numbers that turn a mystery regression into a diagnosis (goroutine leak?
// heap growth? GC pressure? wrong CPU budget?). ReadMemStats costs a
// stop-the-world, so its result is cached for a second — far finer than
// any scrape interval, invisible to the serving path.
func registerRuntimeMetrics(reg *telemetry.Registry) {
	var mu sync.Mutex
	var last time.Time
	var ms runtime.MemStats
	memstats := func() runtime.MemStats {
		mu.Lock()
		defer mu.Unlock()
		if last.IsZero() || time.Since(last) >= time.Second {
			runtime.ReadMemStats(&ms)
			last = time.Now()
		}
		return ms
	}
	reg.GaugeFunc("laf_go_goroutines", "Goroutines currently live.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("laf_go_gomaxprocs", "GOMAXPROCS — the scheduler's CPU budget.",
		func() float64 { return float64(runtime.GOMAXPROCS(0)) })
	reg.GaugeFunc("laf_go_heap_inuse_bytes", "Bytes in in-use heap spans (runtime.MemStats.HeapInuse, cached ~1s).",
		func() float64 { return float64(memstats().HeapInuse) })
	reg.CounterFunc("laf_go_gc_pause_ns_total", "Cumulative GC stop-the-world pause time in nanoseconds (cached ~1s).",
		func() int64 { return int64(memstats().PauseTotalNs) })
}

// registerTraceMetrics exports the span ring's own health: recording rate
// (is tracing on and seeing traffic?) and configuration, so a dashboard
// can tell "no slow spans" from "tracing disabled".
func registerTraceMetrics(reg *telemetry.Registry, tracer *trace.Tracer) {
	reg.CounterFunc("laf_trace_spans_recorded_total", "Spans recorded into the trace ring (wraps overwrite, not decrement).",
		tracer.Recorded)
	reg.GaugeFunc("laf_trace_ring_capacity", "Span ring capacity; older spans are overwritten beyond it.",
		func() float64 { return float64(tracer.Capacity()) })
	reg.GaugeFunc("laf_trace_sample_every", "Root-span sampling rate (1 = every request, N = 1-in-N, 0 = tracing disabled).",
		func() float64 { return float64(tracer.SampleEvery()) })
}
