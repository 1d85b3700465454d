package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"lafdbscan"
	"lafdbscan/internal/dataset"
)

// This file is the HTTP face of online model maintenance: the insert and
// delete endpoints evolve a stored model with the data instead of
// re-fitting it. Updates are asynchronous through the job engine — the
// same bounded worker pool, 429 backpressure, queries_done progress and
// cancel-within-one-wave contract as clustering jobs — because an update's
// cost scales with the changed neighborhoods, which on a large model is
// still real work. The job's result is the model's post-update labeling,
// fetchable from /v1/jobs/{id}/result like any clustering result; the
// model is resolved from the store again inside the job, so deleting it
// while an update is queued fails the job instead of mutating an orphan.

// resolveVectors extracts the vectors of a request that supplies either
// inline vectors (normalized server-side, like dataset ingestion) or the
// name of a registered dataset — exactly one of the two.
func (s *Server) resolveVectors(inline [][]float32, dsName string) ([][]float32, error) {
	switch {
	case len(inline) > 0 && dsName == "":
		ds := &dataset.Dataset{Name: "inline", Vectors: inline}
		if err := ds.Validate(); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		ds.Normalize()
		return ds.Vectors, nil
	case dsName != "" && len(inline) == 0:
		ds, err := s.reg.Get(dsName)
		if err != nil {
			return nil, err
		}
		return ds.Vectors, nil
	default:
		return nil, errors.New("serve: exactly one of vectors or dataset is required")
	}
}

// submitModelUpdate enqueues a maintenance closure for a stored model
// under the job engine's contract, answering 202 with the job status or
// 429 with Retry-After on a full queue: the one submit path of /insert,
// /stream and /delete. ctx is the submitting request's context — the
// engine captures its trace link so the async job's spans parent under
// the originating POST. update reports each batch it commits through
// committed.
func (s *Server) submitModelUpdate(ctx context.Context, w http.ResponseWriter, info ModelInfo, kind string,
	update func(ctx context.Context, m ModelMutator) error) {
	status, err := s.eng.SubmitFunc(ctx, info.Dataset, lafdbscan.Method(info.Method), kind,
		func(ctx context.Context) (*lafdbscan.Result, error) {
			// Mutator routes through the model's journal when one is
			// attached, so the update survives a restart.
			model, mut, _, err := s.models.Mutator(info.ID)
			if err != nil {
				return nil, err
			}
			if err := update(ctx, mut); err != nil {
				return nil, err
			}
			return model.Result(), nil
		})
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

// committed records one committed update batch: /v1/stats counts it under
// countKind ("model-insert" or "model-remove") and the model's listed
// totals refresh, so a multi-batch job shows progress between batches.
func (s *Server) committed(id, countKind string, report lafdbscan.UpdateReport) {
	s.models.CountUpdate(countKind, report.Inserted+report.Removed)
	s.models.RefreshInfo(id)
}

// insertRequest is the body of /insert: inline vectors (normalized
// server-side) or a registered dataset. /stream extends it with chunk.
type insertRequest struct {
	Vectors [][]float32 `json:"vectors,omitempty"`
	Dataset string      `json:"dataset,omitempty"`
}

// submitInsert is what /insert and /stream share after decoding: resolve
// the request's vectors, check them against the model's dimensionality,
// and enqueue a job of the given kind that inserts them chunk vectors at
// a time (0 = all of them as one batch). Each chunk commits on its own
// (journaled and applied); a failure after the first chunk reports how
// many vectors already committed, and those stay applied — exactly the
// prefix a crash would recover.
func (s *Server) submitInsert(w http.ResponseWriter, r *http.Request, kind string, req insertRequest, chunk int) {
	id := r.PathValue("id")
	op := strings.TrimPrefix(kind, "model-")
	model, info, err := s.models.Get(id)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	vectors, err := s.resolveVectors(req.Vectors, req.Dataset)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	if err := model.CheckDims(vectors); err != nil {
		writeError(w, statusFor(err), fmt.Errorf("serve: %s vectors for model %s: %w", op, id, err))
		return
	}
	if chunk == 0 {
		chunk = len(vectors)
	}
	s.submitModelUpdate(r.Context(), w, info, kind, func(ctx context.Context, m ModelMutator) error {
		for off := 0; off < len(vectors); off += chunk {
			report, err := m.Insert(ctx, vectors[off:min(off+chunk, len(vectors))])
			if err != nil {
				if off > 0 {
					err = fmt.Errorf("serve: %s chunk at %d failed after %d vectors committed: %w", op, off, off, err)
				}
				return err
			}
			s.committed(id, "model-insert", report)
		}
		return nil
	})
}

// handleInsertModel is POST /v1/models/{id}/insert: asynchronously fold
// new vectors (inline, normalized server-side, or a registered dataset)
// into the model's clustering as one batch. The model is untouched until
// the job commits; cancellation aborts within one wave and leaves it
// untouched too.
func (s *Server) handleInsertModel(w http.ResponseWriter, r *http.Request) {
	var req insertRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	s.submitInsert(w, r, "model-insert", req, 0)
}

// handleRemovePoints is POST /v1/models/{id}/delete: asynchronously drop
// the given point ids from the model's clustering (ids compact, matching
// the model's documented convention). Distinct from DELETE /v1/models/{id},
// which discards the whole model.
func (s *Server) handleRemovePoints(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	model, info, err := s.models.Get(id)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	var req struct {
		IDs []int `json:"ids"`
	}
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.IDs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("serve: ids is required and must be non-empty"))
		return
	}
	// Cheap pre-check against the current size; the model re-validates
	// authoritatively (with range and duplicate checks) inside the job.
	if n := model.Len(); len(req.IDs) >= n {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("serve: cannot remove %d of the model's %d points", len(req.IDs), n))
		return
	}
	s.submitModelUpdate(r.Context(), w, info, "model-remove", func(ctx context.Context, m ModelMutator) error {
		report, err := m.Remove(ctx, req.IDs)
		if err == nil {
			s.committed(id, "model-remove", report)
		}
		return err
	})
}
