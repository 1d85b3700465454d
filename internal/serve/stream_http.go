package serve

import (
	"cmp"
	"fmt"
	"net/http"

	"lafdbscan/internal/trace"
)

// This file is the HTTP face of durable streaming ingestion: the stream
// endpoint folds vectors into a model in journaled micro-batches, and the
// snapshot endpoint rolls the model's journal generation on demand. Both
// compose with the WAL layer: when the server runs with a journal
// directory every chunk is a WAL record first and a model mutation second,
// so a crash mid-stream loses at most the chunk the journal had not
// committed — never a fraction of one.

// defaultStreamChunk is the micro-batch size when the request names none:
// large enough to amortize the per-record journal append and fsync, small
// enough that one chunk is the crash-loss granularity.
const defaultStreamChunk = 256

// handleStreamModel is POST /v1/models/{id}/stream: asynchronously fold a
// vector stream (inline or a registered dataset) into the model's
// clustering in journaled micro-batches through the job engine. Unlike the
// all-or-nothing insert endpoint, a stream commits chunk by chunk: each
// chunk is durable once applied, progress is visible in the model's info
// between chunks, and a failure reports how many chunks already committed
// (they stay applied — exactly what the journal replays after a crash).
func (s *Server) handleStreamModel(w http.ResponseWriter, r *http.Request) {
	var req struct {
		insertRequest
		// Chunk is the micro-batch size; 0 selects the default (256).
		Chunk int `json:"chunk,omitempty"`
	}
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Chunk < 0 {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("serve: chunk must be non-negative (0 selects the default %d), got %d", defaultStreamChunk, req.Chunk))
		return
	}
	s.submitInsert(w, r, "model-stream", req.insertRequest, cmp.Or(req.Chunk, defaultStreamChunk))
}

// handleSnapshotModel is POST /v1/models/{id}/snapshot: synchronously
// commit the model's current state as a new journal generation and compact
// the old one. Only meaningful for journaled models; memory-only models
// get a 400 pointing at the save endpoint.
func (s *Server) handleSnapshotModel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	d, err := s.models.Durable(id)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	if d == nil {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("serve: model %s has no journal (server runs without -wal-dir); use GET /v1/models/%s/save instead", id, id))
		return
	}
	_, span := trace.Start(r.Context(), "wal.snapshot")
	span.Annotate(trace.Str("model", id))
	defer span.Finish()
	info, err := d.Snapshot()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	span.Annotate(trace.Int("lsn", info.LSN), trace.Int("bytes", info.Bytes))
	writeJSON(w, http.StatusOK, map[string]any{
		"model":     id,
		"lsn":       info.LSN,
		"bytes":     info.Bytes,
		"compacted": info.Compacted,
	})
}
