// Command lafserve runs the clustering-as-a-service HTTP server: a dataset
// registry, an estimator cache, an asynchronous, cancellable job engine
// over every clustering method of the library, and a model store serving
// fitted clusterings for out-of-sample prediction.
//
// Usage:
//
//	lafserve [-addr :8080] [-job-workers N] [-queue 64] [-models 256] [-preload name=path ...]
//	         [-log-format text|json] [-slow-request 1s] [-trace-buffer 4096] [-trace-sample 1] [-pprof]
//	         [-index-backend auto] [-wal-dir /var/lib/laf/wal] [-wal-sync always] [-wal-snapshot-every 1024]
//
// The README's "Serving" and "Models & Prediction" sections walk through
// the full API with curl; in short: POST /v1/datasets registers data once,
// POST /v1/estimators trains (and caches) an RMI estimator, POST /v1/jobs
// submits a clustering job whose status, progress and labels are polled
// under /v1/jobs/{id} (DELETE cancels it mid-run), and /v1/models fits,
// stores, persists and serves predictions from reusable clustering models.
// GET /metrics exposes Prometheus-format telemetry, GET /v1/traces the
// recent request traces (every response carries its trace ID in
// X-Laf-Trace), and -pprof adds Go's profiling endpoints under
// /debug/pprof/; docs/OPERATIONS.md is the operator handbook.
//
// With -wal-dir every model mutation is journaled to a write-ahead log
// before it commits: POST /v1/models/{id}/stream ingests vectors in
// durable micro-batches, POST /v1/models/{id}/snapshot rolls a model's
// journal generation, and a restart recovers every journaled model —
// losing at most the record a crash tore. docs/DURABILITY.md covers the
// record format, fsync policies and recovery semantics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lafdbscan"
	"lafdbscan/internal/serve"
	"lafdbscan/internal/wal"
)

// preloads collects repeatable -preload name=path flags.
type preloads []struct{ name, path string }

func (p *preloads) String() string { return fmt.Sprint(*p) }

func (p *preloads) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*p = append(*p, struct{ name, path string }{name, path})
	return nil
}

// newLogger builds the process logger: text for terminals, json for log
// pipelines. Every line carries the component, and serve-layer lines add
// the request's trace ID (see the slow-request log in docs/OPERATIONS.md).
func newLogger(format string) (*slog.Logger, error) {
	var h slog.Handler
	switch format {
	case "text":
		h = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, nil)
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
	return slog.New(h).With("component", "lafserve"), nil
}

func main() {
	var pre preloads
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("job-workers", 0, "concurrent jobs: clusterings, model fits and model updates (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 64, "queued-job capacity before submissions get 429")
		maxJobs   = flag.Int("max-jobs", 0, "retained jobs incl. finished (0 = default 4096)")
		maxModels = flag.Int("models", 0, "stored-model capacity; fits/loads get 409 beyond it (0 = default 256)")
		logFormat = flag.String("log-format", "text", "log output format: text or json")
		slowReq   = flag.Duration("slow-request", time.Second, "log requests at/over this duration with their trace ID (0 disables)")
		traceBuf  = flag.Int("trace-buffer", 0, "span ring capacity, rounded to a power of two (0 = default 4096)")
		traceSmpl = flag.Int("trace-sample", 1, "trace every Nth request (1 = all, -1 = disable tracing)")
		pprofOn   = flag.Bool("pprof", false, "mount Go profiling endpoints under /debug/pprof/")
		idxBack   = flag.String("index-backend", "", `default range-index backend for requests that name none: "" or "brute" (exact scan), "auto" or "hnsw" (HNSW graph)`)
		walDir    = flag.String("wal-dir", "", "journal root for durable models; empty runs memory-only (see docs/DURABILITY.md)")
		walSync   = flag.String("wal-sync", "always", "WAL fsync policy: always (every record), interval (batched), or off")
		walSnap   = flag.Int("wal-snapshot-every", 0, "auto-snapshot a model after this many journaled records (0 = default 1024)")
	)
	flag.Var(&pre, "preload", "dataset to register at startup as name=path (repeatable)")
	flag.Parse()
	if *workers < 0 || *queue < 1 || *maxJobs < 0 || *maxModels < 0 || *traceBuf < 0 || *slowReq < 0 || *walSnap < 0 {
		flag.Usage()
		os.Exit(2)
	}
	// NewServer treats an invalid sync policy as a programming error, so
	// validate the flag here where a typo gets a usage message instead.
	if _, err := wal.ParseSyncPolicy(*walSync); err != nil {
		fmt.Fprintln(os.Stderr, "lafserve: -wal-sync:", err)
		flag.Usage()
		os.Exit(2)
	}
	if _, err := lafdbscan.ResolveIndexBackend(*idxBack); err != nil {
		fmt.Fprintln(os.Stderr, "lafserve: -index-backend:", err)
		flag.Usage()
		os.Exit(2)
	}
	logger, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lafserve:", err)
		flag.Usage()
		os.Exit(2)
	}
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	srv := serve.NewServer(serve.Options{
		Workers: *workers, QueueDepth: *queue, MaxJobs: *maxJobs, MaxModels: *maxModels,
		TraceCapacity:        *traceBuf,
		TraceSampleEvery:     *traceSmpl,
		SlowRequestThreshold: *slowReq,
		Logger:               logger,
		EnablePprof:          *pprofOn,
		IndexBackend:         *idxBack,
		WALDir:               *walDir,
		WALSync:              *walSync,
		WALSnapshotEvery:     *walSnap,
	})
	defer srv.Close()
	for _, d := range pre {
		info, err := srv.Registry().RegisterFile(d.name, d.path)
		if err != nil {
			fatal("preloading dataset failed", "path", d.path, "error", err)
		}
		logger.Info("preloaded dataset", "name", info.Name, "points", info.Points, "dims", info.Dims)
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	// Graceful shutdown: stop accepting, let in-flight requests finish,
	// then Close cancels any still-running jobs through their contexts.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		logger.Info("shutting down", "grace", "10s")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(shutdownCtx)
	}()

	logger.Info("listening",
		"addr", *addr, "job_workers", *workers, "queue", *queue,
		"trace_sample", *traceSmpl, "slow_request", slowReq.String(), "pprof", *pprofOn,
		"index_backend", *idxBack, "wal_dir", *walDir, "wal_sync", *walSync)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("server exited", "error", err)
	}
}
