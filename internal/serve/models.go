package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lafdbscan"
)

// ErrUnknownModel reports a reference to a model id the store does not hold
// (never fitted, loaded, or already deleted); the HTTP layer maps it to 404.
var ErrUnknownModel = errors.New("unknown model")

// ErrModelStoreFull reports that the store is at capacity. Unlike the job
// queue's ErrQueueFull this is not retryable backpressure — models are
// explicitly managed resources, and the remedy is DELETE, not waiting — so
// the HTTP layer maps it to 409.
var ErrModelStoreFull = errors.New("model store full, delete models to make room")

// ModelInfo describes a stored model, shaped for JSON.
type ModelInfo struct {
	ID string `json:"id"`
	// Dataset names the registered dataset the model was fitted on; empty
	// for models uploaded through /v1/models/load (they are self-contained).
	Dataset      string `json:"dataset,omitempty"`
	Method       string `json:"method"`
	Points       int    `json:"points"`
	Dims         int    `json:"dims"`
	Clusters     int    `json:"clusters"`
	Cores        int    `json:"cores"`
	HasEstimator bool   `json:"has_estimator"`
	// Updates counts the point mutations (inserts plus removals) applied
	// to the model; Staleness counts them since its estimator was last
	// (re)trained — the drift signal behind retraining decisions.
	Updates   int64 `json:"updates"`
	Staleness int   `json:"staleness"`
	// Source records how the model entered the store ("fit" or "loaded").
	Source  string    `json:"source"`
	Created time.Time `json:"created"`
	// IndexBackend names the resolved range-index backend behind the model
	// ("brute", "hnsw", ...); empty when unknown.
	IndexBackend string `json:"index_backend,omitempty"`
}

// fillTotals sets info's method and the totals it lists from the model:
// points, dims, clusters, cores, estimator and update counters.
func (info *ModelInfo) fillTotals(m *lafdbscan.Model) {
	info.Method = string(m.Method())
	info.Points = m.Len()
	info.Dims = m.Dim()
	info.Clusters = m.NumClusters()
	info.Cores = m.NumCores()
	info.HasEstimator = m.HasEstimator()
	info.Updates = m.Updates()
	info.Staleness = m.Staleness()
}

// ModelStoreStats is the store's /stats view. The update counters
// aggregate across models: Inserts/Removes count maintenance operations,
// PointsInserted/PointsRemoved the points they moved.
type ModelStoreStats struct {
	Models         int   `json:"models"`
	Capacity       int   `json:"capacity"`
	Fitted         int64 `json:"fitted"`
	Loaded         int64 `json:"loaded"`
	Recovered      int64 `json:"recovered"`
	Deleted        int64 `json:"deleted"`
	Predictions    int64 `json:"predictions"`
	Inserts        int64 `json:"inserts"`
	Removes        int64 `json:"removes"`
	PointsInserted int64 `json:"points_inserted"`
	PointsRemoved  int64 `json:"points_removed"`
}

// ModelStore holds fitted and uploaded clustering models by id. Models
// guard their own state (predictions share a read lock, maintenance
// updates serialize behind a write lock), so entries are shared without
// copying and the store only guards the id map and the listed info
// snapshots. A fixed capacity bounds the memory held in training vectors
// (each model retains its points).
type ModelStore struct {
	mu      sync.Mutex
	entries map[string]*modelEntry
	order   []string
	seq     int64
	cap     int

	fitted      atomic.Int64
	loaded      atomic.Int64
	recovered   atomic.Int64
	deleted     atomic.Int64
	predictions atomic.Int64

	inserts        atomic.Int64
	removes        atomic.Int64
	pointsInserted atomic.Int64
	pointsRemoved  atomic.Int64
}

type modelEntry struct {
	model *lafdbscan.Model
	info  ModelInfo
	// durable, when non-nil, journals the model's mutations; maintenance
	// must route through it (see Mutator) or updates would not survive a
	// restart.
	durable *lafdbscan.DurableModel
}

// ModelMutator is the mutation surface maintenance jobs run against:
// *lafdbscan.Model satisfies it directly, *lafdbscan.DurableModel runs
// the same calls with a journal between plan and commit.
type ModelMutator interface {
	Insert(ctx context.Context, vectors [][]float32) (lafdbscan.UpdateReport, error)
	Remove(ctx context.Context, ids []int) (lafdbscan.UpdateReport, error)
}

// defaultModelCap bounds the store when Options does not size it.
const defaultModelCap = 256

// NewModelStore returns an empty store holding at most capacity models
// (<= 0 selects the default).
func NewModelStore(capacity int) *ModelStore {
	if capacity <= 0 {
		capacity = defaultModelCap
	}
	return &ModelStore{entries: make(map[string]*modelEntry), cap: capacity}
}

// Add stores a model and returns its assigned info. source is "fit" or
// "loaded"; dataset may be empty for loaded models. indexBackend records the
// resolved range-index backend behind the model; empty falls back to what the
// model itself reports.
func (s *ModelStore) Add(model *lafdbscan.Model, dataset, source, indexBackend string) (ModelInfo, error) {
	if indexBackend == "" {
		indexBackend = model.IndexBackend()
	}
	info := ModelInfo{Dataset: dataset, Source: source, Created: time.Now(), IndexBackend: indexBackend}
	info.fillTotals(model)
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.entries) >= s.cap {
		return ModelInfo{}, fmt.Errorf("serve: %w (capacity %d)", ErrModelStoreFull, s.cap)
	}
	s.seq++
	info.ID = fmt.Sprintf("m-%06d", s.seq)
	s.entries[info.ID] = &modelEntry{model: model, info: info}
	s.order = append(s.order, info.ID)
	switch source {
	case "loaded":
		s.loaded.Add(1)
	default:
		s.fitted.Add(1)
	}
	return info, nil
}

// AddRecovered stores a model recovered from its journal at boot under its
// original id (Source "recovered"), keeping the id sequence ahead of every
// recovered id so freshly fitted models never collide with journals on
// disk.
func (s *ModelStore) AddRecovered(id string, d *lafdbscan.DurableModel) (ModelInfo, error) {
	model := d.Model()
	info := ModelInfo{ID: id, Source: "recovered", Created: time.Now(), IndexBackend: model.IndexBackend()}
	info.fillTotals(model)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[id]; ok {
		return ModelInfo{}, fmt.Errorf("serve: model %s: %w", id, ErrExists)
	}
	if len(s.entries) >= s.cap {
		return ModelInfo{}, fmt.Errorf("serve: %w (capacity %d)", ErrModelStoreFull, s.cap)
	}
	var n int64
	if _, err := fmt.Sscanf(id, "m-%d", &n); err == nil && n > s.seq {
		s.seq = n
	}
	s.entries[id] = &modelEntry{model: model, info: info, durable: d}
	s.order = append(s.order, id)
	s.recovered.Add(1)
	return info, nil
}

// SetDurable attaches a journal to a stored model (fit and load do this
// right after Add when the server runs with a WAL directory).
func (s *ModelStore) SetDurable(id string, d *lafdbscan.DurableModel) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok {
		return fmt.Errorf("serve: model %s: %w", id, ErrUnknownModel)
	}
	e.durable = d
	return nil
}

// Durable returns the journal attached to id, or nil when the model is
// memory-only (the id itself must exist).
func (s *ModelStore) Durable(id string) (*lafdbscan.DurableModel, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok {
		return nil, fmt.Errorf("serve: model %s: %w", id, ErrUnknownModel)
	}
	return e.durable, nil
}

// Mutator resolves the mutation surface for id: the journal when one is
// attached (so updates survive a restart), the bare model otherwise. The
// model pointer serves reads either way.
func (s *ModelStore) Mutator(id string) (*lafdbscan.Model, ModelMutator, ModelInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok {
		return nil, nil, ModelInfo{}, fmt.Errorf("serve: model %s: %w", id, ErrUnknownModel)
	}
	if e.durable != nil {
		return e.model, e.durable, e.info, nil
	}
	return e.model, e.model, e.info, nil
}

// walStats sums journal telemetry across stored models: how many carry a
// journal and the records/bytes in their active segments.
func (s *ModelStore) walStats() (models int, records, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.order {
		e := s.entries[id]
		if e.durable == nil {
			continue
		}
		models++
		st := e.durable.Stats()
		records += st.SegmentRecords
		bytes += st.SegmentBytes
	}
	return models, records, bytes
}

// CloseDurables flushes and closes every attached journal — the clean
// shutdown path. Models stay readable; only journaled mutation stops.
func (s *ModelStore) CloseDurables() error {
	s.mu.Lock()
	durables := make([]*lafdbscan.DurableModel, 0, len(s.order))
	for _, id := range s.order {
		if d := s.entries[id].durable; d != nil {
			durables = append(durables, d)
		}
	}
	s.mu.Unlock()
	var errs []error
	for _, d := range durables {
		if err := d.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Get returns the model and info stored under id.
func (s *ModelStore) Get(id string) (*lafdbscan.Model, ModelInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok {
		return nil, ModelInfo{}, fmt.Errorf("serve: model %s: %w", id, ErrUnknownModel)
	}
	return e.model, e.info, nil
}

// Delete removes the model stored under id. An attached journal is
// destroyed with it (outside the store lock — journal teardown does I/O):
// deleting the model is the explicit statement that its state should not
// come back at the next boot.
func (s *ModelStore) Delete(id string) error {
	s.mu.Lock()
	e, ok := s.entries[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("serve: model %s: %w", id, ErrUnknownModel)
	}
	delete(s.entries, id)
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.deleted.Add(1)
	s.mu.Unlock()
	if e.durable != nil {
		if err := e.durable.Destroy(); err != nil {
			return fmt.Errorf("serve: model %s deleted but journal cleanup failed: %w", id, err)
		}
	}
	return nil
}

// List returns every stored model's info in creation order.
func (s *ModelStore) List() []ModelInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ModelInfo, 0, len(s.entries))
	for _, id := range s.order {
		out = append(out, s.entries[id].info)
	}
	return out
}

// Full reports whether the store is at capacity — the cheap pre-check the
// fit endpoint runs before paying for a clustering, so a full store costs a
// 409, not a wasted fit. Add remains authoritative under the same lock.
func (s *ModelStore) Full() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries) >= s.cap
}

// CountPrediction bumps the prediction counter (the HTTP layer calls it per
// successful predict request).
func (s *ModelStore) CountPrediction() { s.predictions.Add(1) }

// CountUpdate records a completed maintenance operation: one insert or
// remove moving the given number of points.
func (s *ModelStore) CountUpdate(kind string, points int) {
	if kind == "model-insert" {
		s.inserts.Add(1)
		s.pointsInserted.Add(int64(points))
	} else {
		s.removes.Add(1)
		s.pointsRemoved.Add(int64(points))
	}
}

// RefreshInfo re-snapshots a model's listed method and totals (points,
// clusters, cores, update counters) after a maintenance operation: the
// first one switches a sampled or block model to its exact counterpart
// (lafdbscan.Model.Method). A missing id is a no-op: the model may have
// been deleted while its update job ran.
func (s *ModelStore) RefreshInfo(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok {
		return
	}
	e.info.fillTotals(e.model)
	// Maintenance swaps the model onto an owned exact index; keep the
	// listed backend honest.
	if ib := e.model.IndexBackend(); ib != "" {
		e.info.IndexBackend = ib
	}
}

// Stats returns the store counters.
func (s *ModelStore) Stats() ModelStoreStats {
	s.mu.Lock()
	models := len(s.entries)
	s.mu.Unlock()
	return ModelStoreStats{
		Models:         models,
		Capacity:       s.cap,
		Fitted:         s.fitted.Load(),
		Loaded:         s.loaded.Load(),
		Recovered:      s.recovered.Load(),
		Deleted:        s.deleted.Load(),
		Predictions:    s.predictions.Load(),
		Inserts:        s.inserts.Load(),
		Removes:        s.removes.Load(),
		PointsInserted: s.pointsInserted.Load(),
		PointsRemoved:  s.pointsRemoved.Load(),
	}
}
