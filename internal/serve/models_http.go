package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"lafdbscan"
	"lafdbscan/internal/index"
	"lafdbscan/internal/trace"
)

// This file is the HTTP face of the model store: fit, inspect, delete,
// persist and predict — the serving-layer expression of the Fit/Predict
// split. Fitting reuses everything the job path amortizes (the registry's
// shared vectors and indexes, the estimator cache) but runs synchronously
// under the request context, so a dropped connection cancels the clustering
// within one wave; prediction is cheap by construction (one range query per
// vector) and is what the fitted artifacts exist to serve.

// withWaveEvents makes the wave engines stamp one event per completed
// wave barrier on span — the per-wave latency breakdown of a synchronous
// fit or predict. The hook is installed only for traced requests: an
// untraced request's context is returned unchanged, so the wave path pays
// nothing. (Async jobs get the same events through the engine's progress
// hook instead, which also feeds the queries_done counters.)
func withWaveEvents(ctx context.Context, span *trace.Span) context.Context {
	if span == nil {
		return ctx
	}
	return index.WithWaveProgress(ctx, func(q int) {
		span.Event("wave", trace.Int("queries", int64(q)))
	})
}

func (s *Server) handleFitModel(w http.ResponseWriter, r *http.Request) {
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
	// Same acceptance rules as the async job path: a spec fits as a model
	// exactly when it would run as a job.
	if err := validateJobSpec(s.reg, &spec); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	// Refuse cheaply before paying for the clustering: a full store is a
	// 409 now, not after the fit; Add re-checks authoritatively below.
	if s.models.Full() {
		err := fmt.Errorf("serve: %w", ErrModelStoreFull)
		writeError(w, statusFor(err), err)
		return
	}
	// Bounded concurrency: fits run synchronously, so they claim a slot
	// sized to the job engine's worker count; a saturated pool answers 429
	// immediately (backpressure, like a full job queue).
	select {
	case s.fitSlots <- struct{}{}:
		defer func() { <-s.fitSlots }()
	default:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			errors.New("serve: all fit slots busy, retry later"))
		return
	}
	// The fit span covers estimator resolution and the clustering itself;
	// wave barriers stamp events on it, so a slow fit's trace shows where
	// the waves slowed down. Deferred Finish keeps every error return
	// covered (status lands on the middleware's root span).
	ctx, span := trace.Start(r.Context(), "model.fit")
	span.Annotate(trace.Str("dataset", spec.Dataset), trace.Str("method", string(spec.Method)))
	defer span.Finish()
	ctx = withWaveEvents(ctx, span)
	est, cached, err := resolveEstimator(ctx, s.reg, s.est, spec)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	ds, err := s.reg.Get(spec.Dataset)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	p := spec.Params
	p.Estimator = est
	idx, backend, ierr := s.reg.Index(spec.Dataset, p.Metric, p.IndexBackend)
	if ierr != nil {
		writeError(w, statusFor(ierr), ierr)
		return
	}
	p.Index = idx
	span.Annotate(trace.Str("laf_index_backend", backend))
	start := time.Now()
	model, err := lafdbscan.FitParams(ctx, ds.Vectors, spec.Method, p)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	info, err := s.models.Add(model, spec.Dataset, "fit", backend)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	if err := s.attachJournal(info.ID, model); err != nil {
		// A model the journal cannot protect must not exist: callers asked
		// for durability (-wal-dir) and would otherwise silently lose it.
		_ = s.models.Delete(info.ID)
		writeError(w, http.StatusInternalServerError,
			fmt.Errorf("serve: journaling model %s: %w", info.ID, err))
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"model":            info,
		"estimator_cached": cached,
		"fit_ms":           time.Since(start).Milliseconds(),
	})
}

func (s *Server) handleListModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"models": s.models.List()})
}

func (s *Server) handleGetModel(w http.ResponseWriter, r *http.Request) {
	_, info, err := s.models.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDeleteModel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.models.Delete(id); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"id": id, "status": "deleted"})
}

// handleSaveModel streams the model's versioned binary serialization — the
// same bytes Model.Save writes to disk, so a curl > model.lafm round-trips
// through /v1/models/load or lafcluster -load.
func (s *Server) handleSaveModel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	model, _, err := s.models.Get(id)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+".lafm"))
	// Headers are already committed; a mid-stream write error can only
	// abort the connection.
	_ = model.Save(w)
}

// handleLoadModel ingests a serialized model (the body is the binary
// Model.Save stream) and stores it for prediction. Loaded models are
// self-contained — they carry their training vectors — so they reference no
// registered dataset.
func (s *Server) handleLoadModel(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: reading model body: %w", err))
		return
	}
	model, err := lafdbscan.LoadModel(bytes.NewReader(data))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	info, err := s.models.Add(model, "", "loaded", "")
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	if err := s.attachJournal(info.ID, model); err != nil {
		_ = s.models.Delete(info.ID)
		writeError(w, http.StatusInternalServerError,
			fmt.Errorf("serve: journaling model %s: %w", info.ID, err))
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"model": info})
}

// handlePredict assigns vectors to the model's clusters. Vectors come
// inline (normalized server-side, like dataset ingestion) or by referencing
// a registered dataset; exactly one source is required.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	model, _, err := s.models.Get(id)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	var req struct {
		Vectors       [][]float32 `json:"vectors,omitempty"`
		Dataset       string      `json:"dataset,omitempty"`
		Gate          bool        `json:"gate,omitempty"`
		GateThreshold float64     `json:"gate_threshold,omitempty"`
	}
	if !decodeJSON(w, r, &req) {
		return
	}
	vectors, err := s.resolveVectors(req.Vectors, req.Dataset)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	if err := model.CheckDims(vectors); err != nil {
		writeError(w, statusFor(err), fmt.Errorf("serve: predict vectors for model %s: %w", id, err))
		return
	}
	// The predict span is the acceptance path of the tracing layer: a
	// worst-latency lafload sample's trace ID resolves to this span's root,
	// with wave events showing which barrier the time went to.
	ctx, span := trace.Start(r.Context(), "model.predict")
	span.Annotate(trace.Str("model", id), trace.Int("vectors", int64(len(vectors))))
	defer span.Finish()
	ctx = withWaveEvents(ctx, span)
	start := time.Now()
	labels, skipped, err := model.PredictWithOptions(ctx, vectors, lafdbscan.PredictOptions{
		Gate:          req.Gate,
		GateThreshold: req.GateThreshold,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.models.CountPrediction()
	assigned := 0
	for _, l := range labels {
		if l != lafdbscan.Noise {
			assigned++
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":              id,
		"labels":          labels,
		"assigned":        assigned,
		"skipped_queries": skipped,
		"elapsed_ms":      time.Since(start).Milliseconds(),
	})
}
