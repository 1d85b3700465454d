package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"lafdbscan"
	"lafdbscan/internal/dataset"
	"lafdbscan/internal/telemetry"
)

// Sentinel errors the HTTP layer maps onto status codes with errors.Is.
var (
	// ErrNotFound reports a reference to a dataset that was never
	// registered (HTTP 404).
	ErrNotFound = errors.New("dataset not registered")
	// ErrExists reports a Register under a name already taken (HTTP 409).
	ErrExists = errors.New("dataset already registered")
)

// DatasetInfo describes a registered dataset.
type DatasetInfo struct {
	Name   string `json:"name"`
	Points int    `json:"points"`
	Dims   int    `json:"dims"`
	// Source records how the dataset entered the registry ("file:<path>",
	// "synthetic:<kind>", "inline").
	Source string `json:"source"`
	// IndexBackends lists the shared range-index backends built for this
	// dataset so far (registry order), across all metrics.
	IndexBackends []string `json:"index_backends,omitempty"`
}

// Registry holds named datasets, loaded or ingested once and shared by
// every request that references them. Vectors are unit-normalized on
// ingestion (the contract of every clustering method in the library) and
// never mutated afterwards, so concurrent jobs can share the backing
// slices. Per-(dataset, metric, backend) range indexes are resolved
// through the library's backend registry, built lazily on first use and
// shared the same way.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*registryEntry
	// defaultBackend is the index backend requests resolve through when
	// they name none: "" keeps the exact default (brute force),
	// lafdbscan.IndexBackendAuto puts the whole server on the HNSW graph.
	// Set once at startup (SetDefaultIndexBackend) before serving.
	defaultBackend string
	// telemetry, when set (registerMetrics), receives the per-backend
	// index-build counter.
	telemetry *telemetry.Registry
}

// indexKey addresses one shared index: the metric it answers under and the
// resolved backend name it was built with.
type indexKey struct {
	metric  lafdbscan.DistanceMetric
	backend string
}

type registryEntry struct {
	ds     *dataset.Dataset
	source string

	// indexes maps (metric, resolved backend) onto the shared range-query
	// engine over ds.Vectors, built lazily under idxMu so concurrent first
	// users construct it exactly once.
	idxMu   sync.Mutex
	indexes map[indexKey]lafdbscan.RangeIndex
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*registryEntry)}
}

// SetDefaultIndexBackend configures the index backend requests resolve
// through when they name none: "" (exact default), IndexBackendAuto, or a
// registered name; anything else fails with an error wrapping
// lafdbscan.ErrUnknownIndexBackend. Call before serving.
func (r *Registry) SetDefaultIndexBackend(backend string) error {
	if _, err := lafdbscan.ResolveIndexBackend(backend); err != nil {
		return fmt.Errorf("serve: default index backend: %w", err)
	}
	r.mu.Lock()
	r.defaultBackend = backend
	r.mu.Unlock()
	return nil
}

// DefaultIndexBackend returns the configured default index backend knob
// ("" = exact default).
func (r *Registry) DefaultIndexBackend() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.defaultBackend
}

// Register adds a dataset under name, normalizing its vectors in place
// (idempotent for already-normalized data). It rejects empty names, empty
// datasets, structurally invalid datasets and duplicate names — a
// registered dataset is immutable for the life of the server, which is
// what makes sharing it across concurrent jobs safe.
func (r *Registry) Register(name string, ds *dataset.Dataset, source string) error {
	if name == "" {
		return fmt.Errorf("serve: empty dataset name")
	}
	if ds == nil || ds.Len() == 0 {
		return fmt.Errorf("serve: dataset %q is empty", name)
	}
	if err := ds.Validate(); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	ds.Normalize()
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; ok {
		return fmt.Errorf("serve: dataset %q: %w", name, ErrExists)
	}
	r.entries[name] = &registryEntry{
		ds: ds, source: source,
		indexes: make(map[indexKey]lafdbscan.RangeIndex),
	}
	return nil
}

// RegisterFile loads a dataset file written by Dataset.Save / cmd/datagen
// and registers it under name (or its stored name when name is empty).
func (r *Registry) RegisterFile(name, path string) (DatasetInfo, error) {
	ds, err := dataset.Load(path)
	if err != nil {
		return DatasetInfo{}, fmt.Errorf("serve: loading %s: %w", path, err)
	}
	if name == "" {
		name = ds.Name
	}
	if err := r.Register(name, ds, "file:"+path); err != nil {
		return DatasetInfo{}, err
	}
	return r.info(name), nil
}

// RegisterSynthetic generates one of the library's synthetic corpus
// stand-ins (kind "ms", "glove" or "nyt") and registers it.
func (r *Registry) RegisterSynthetic(name, kind string, n int, seed int64) (DatasetInfo, error) {
	if n <= 0 {
		return DatasetInfo{}, fmt.Errorf("serve: synthetic dataset size %d must be positive", n)
	}
	var ds *dataset.Dataset
	switch kind {
	case "ms":
		ds = dataset.MSLike(n, seed)
	case "glove":
		ds = dataset.GloVeLike(n, seed)
	case "nyt":
		ds = dataset.NYTLike(dataset.NYTLikeConfig{N: n, Seed: seed, NoiseFrac: 0.15})
	default:
		return DatasetInfo{}, fmt.Errorf("serve: unknown synthetic kind %q (want ms, glove or nyt)", kind)
	}
	if err := r.Register(name, ds, "synthetic:"+kind); err != nil {
		return DatasetInfo{}, err
	}
	return r.info(name), nil
}

// RegisterVectors ingests raw vectors (e.g. from a JSON request body) as a
// named dataset.
func (r *Registry) RegisterVectors(name string, vectors [][]float32) (DatasetInfo, error) {
	ds := &dataset.Dataset{Name: name, Vectors: vectors}
	if err := r.Register(name, ds, "inline"); err != nil {
		return DatasetInfo{}, err
	}
	return r.info(name), nil
}

// Get returns the shared dataset registered under name.
func (r *Registry) Get(name string) (*dataset.Dataset, error) {
	e, err := r.get(name)
	if err != nil {
		return nil, err
	}
	return e.ds, nil
}

// Index returns the shared range-query engine over the named dataset
// under the given metric, building it on first use through the library's
// backend registry. backend is the request's IndexBackend knob; "" falls
// back to the server default (SetDefaultIndexBackend), which itself
// defaults to the exact brute-force scan. The cache is keyed by the
// resolved name, so "" and an explicit "brute" share one index, and the
// returned name reports what actually backs the queries. Sharing the
// index (rather than letting every clustering run construct its own) is
// the registry's second amortization after the vectors themselves; under
// the exact default the labels are identical either way because the
// engine is the same construction the library defaults to.
func (r *Registry) Index(name string, metric lafdbscan.DistanceMetric, backend string) (lafdbscan.RangeIndex, string, error) {
	e, err := r.get(name)
	if err != nil {
		return nil, "", err
	}
	if backend == "" {
		backend = r.DefaultIndexBackend()
	}
	resolved, err := lafdbscan.ResolveIndexBackend(backend)
	if err != nil {
		return nil, "", err
	}
	e.idxMu.Lock()
	key := indexKey{metric: metric, backend: resolved}
	idx, ok := e.indexes[key]
	var built bool
	if !ok {
		b, _, berr := lafdbscan.Params{IndexBackend: resolved}.NewIndex(e.ds.Vectors, metric)
		if berr != nil {
			e.idxMu.Unlock()
			return nil, "", berr
		}
		idx = b
		e.indexes[key] = idx
		built = true
	}
	// Count after releasing idxMu: countIndexBuild takes r.mu, and other
	// paths (List/Info) take r.mu before idxMu — holding both here in the
	// opposite order would invert the lock hierarchy.
	e.idxMu.Unlock()
	if built {
		r.countIndexBuild(resolved)
	}
	return idx, resolved, nil
}

// countIndexBuild bumps the per-backend index-build counter when a
// telemetry registry is attached.
func (r *Registry) countIndexBuild(backend string) {
	r.mu.RLock()
	reg := r.telemetry
	r.mu.RUnlock()
	if reg != nil {
		reg.Counter("laf_index_builds_total",
			"Shared range indexes built by the dataset registry, by backend.",
			telemetry.Label{Name: "laf_index_backend", Value: backend}).Inc()
	}
}

// DatasetIndexInfo reports which shared index backends have been built for
// one dataset — the /v1/stats view of the registry's index cache.
type DatasetIndexInfo struct {
	Dataset  string   `json:"dataset"`
	Backends []string `json:"backends"`
}

// IndexInfo lists, per dataset (sorted by name), the backends with built
// shared indexes. Datasets with no index yet report an empty list.
func (r *Registry) IndexInfo() []DatasetIndexInfo {
	r.mu.RLock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	entries := make([]*registryEntry, 0, len(names))
	for _, name := range names {
		entries = append(entries, r.entries[name])
	}
	r.mu.RUnlock()
	out := make([]DatasetIndexInfo, len(names))
	for i, name := range names {
		out[i] = DatasetIndexInfo{Dataset: name, Backends: entries[i].builtBackends()}
	}
	return out
}

// builtBackends lists the backends with built indexes for this entry, in
// backend-registry order (deterministic — the key set is probed, never
// iterated).
func (e *registryEntry) builtBackends() []string {
	e.idxMu.Lock()
	defer e.idxMu.Unlock()
	metrics := []lafdbscan.DistanceMetric{lafdbscan.MetricCosine, lafdbscan.MetricEuclidean}
	out := []string{}
	for _, b := range lafdbscan.IndexBackends() {
		for _, m := range metrics {
			if _, ok := e.indexes[indexKey{metric: m, backend: b}]; ok {
				out = append(out, b)
				break
			}
		}
	}
	return out
}

// Info returns the description of one registered dataset.
func (r *Registry) Info(name string) (DatasetInfo, error) {
	if _, err := r.get(name); err != nil {
		return DatasetInfo{}, err
	}
	return r.info(name), nil
}

// List returns every registered dataset, sorted by name.
func (r *Registry) List() []DatasetInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]DatasetInfo, 0, len(names))
	for _, name := range names {
		out = append(out, r.infoLocked(name))
	}
	return out
}

// Len returns the number of registered datasets.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

func (r *Registry) get(name string) (*registryEntry, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	if !ok {
		return nil, fmt.Errorf("serve: dataset %q: %w", name, ErrNotFound)
	}
	return e, nil
}

func (r *Registry) info(name string) DatasetInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.infoLocked(name)
}

func (r *Registry) infoLocked(name string) DatasetInfo {
	e := r.entries[name]
	return DatasetInfo{
		Name: name, Points: e.ds.Len(), Dims: e.ds.Dim(), Source: e.source,
		IndexBackends: e.builtBackends(),
	}
}
