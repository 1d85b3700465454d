package index

import (
	"fmt"

	"lafdbscan/internal/index/hnsw"
	"lafdbscan/internal/vecmath"
)

// This file is the backend registry: the range-query structures a model,
// the lafserve dataset registry and both CLIs can build by name. Both
// answer under either metric and both mutate in place (DynamicIndex), so
// a name is all a caller chooses. Which name a knob selects is decided in
// one place, the root package's ResolveIndexBackend. The cover tree, the
// k-means tree and the grid are not registered: BLOCK-DBSCAN, KNN-BLOCK
// and ρ-approximate DBSCAN build them directly.

// The registered backend names.
const (
	// BackendBrute is the exact scan — the reference answer and the
	// default index.
	BackendBrute = "brute"
	// BackendHNSW is the layered proximity graph (approximate, sub-linear
	// queries; see internal/index/hnsw).
	BackendHNSW = "hnsw"
)

// BackendOptions carries the construction knobs of the registered
// backends. Zero values select the defaults the constructors document.
type BackendOptions struct {
	// Metric selects the distance (see vecmath.Metric.Func).
	Metric vecmath.Metric
	// EfSearch is the HNSW graph's search beam width.
	EfSearch int
	// Seed drives the HNSW graph's deterministic level draws.
	Seed int64
}

// Backends lists every registered backend name.
func Backends() []string { return []string{BackendBrute, BackendHNSW} }

// NewBackend builds the named backend over points. It fails on unknown
// names.
func NewBackend(name string, points [][]float32, o BackendOptions) (RangeSearcher, error) {
	switch name {
	case BackendBrute:
		return NewBruteForce(points, o.Metric.Func()), nil
	case BackendHNSW:
		return hnsw.New(points, o.Metric.Func(), hnsw.Config{EfSearch: o.EfSearch, Seed: o.Seed}), nil
	}
	return nil, fmt.Errorf("index: unknown backend %q (have %v)", name, Backends())
}

var (
	_ RangeSearcher = (*hnsw.Graph)(nil)
	_ DynamicIndex  = (*hnsw.Graph)(nil)
)
