package index

import (
	"fmt"

	"lafdbscan/internal/index/hnsw"
	"lafdbscan/internal/vecmath"
)

// This file is the backend registry: every range-query structure in the
// repository, addressable by name, with declared capabilities. The root
// Params/Fit API, the lafserve dataset registry and both CLIs resolve
// index construction through it instead of hardcoding one constructor,
// so adding a backend (sharded, quantized, ...) means adding one entry
// here and nothing anywhere else. Resolution is a declared fallback
// chain filtered by requirements — the production idiom of vector
// stores with an `hnsw|flat` index option and a graceful degradation
// path.

// The registered backend names.
const (
	// BackendBrute is the exact parallel scan — the reference answer and
	// the terminal fallback of every chain.
	BackendBrute = "brute"
	// BackendHNSW is the layered proximity graph (approximate, sub-linear
	// queries; see internal/index/hnsw).
	BackendHNSW = "hnsw"
	// BackendCoverTree is the exact metric tree BLOCK-DBSCAN uses.
	BackendCoverTree = "covertree"
	// BackendKMeansTree is the approximate FLANN-style tree KNN-BLOCK
	// DBSCAN uses.
	BackendKMeansTree = "kmeanstree"
	// BackendGrid is the ρ-approximate cell grid (Euclidean only, needs
	// the query radius at build time).
	BackendGrid = "grid"
)

// Capabilities declare what a backend can honestly promise; resolution
// filters chains through them.
type Capabilities struct {
	// Exact: RangeSearch returns exactly the eps-neighborhood. Approximate
	// backends may miss neighbors (they never invent them).
	Exact bool `json:"exact"`
	// Dynamic: implements DynamicIndex (Insert/Delete/DeleteMany).
	Dynamic bool `json:"dynamic"`
	// KNN: implements KNNSearcher.
	KNN bool `json:"knn"`
	// Cosine / Euclidean: the metrics the backend answers under.
	Cosine    bool `json:"cosine"`
	Euclidean bool `json:"euclidean"`
	// NeedsEps: construction requires the query radius (the grid's cell
	// side derives from it), so the backend is unavailable to callers that
	// build one index for many radii.
	NeedsEps bool `json:"needs_eps"`
}

// SupportsMetric reports whether the backend answers under m.
func (c Capabilities) SupportsMetric(m vecmath.Metric) bool {
	switch m {
	case vecmath.Cosine:
		return c.Cosine
	case vecmath.Euclidean:
		return c.Euclidean
	default:
		return false
	}
}

// BackendOptions carries every construction knob a backend might need;
// each backend reads its own fields and ignores the rest. Zero values
// select the same defaults the underlying constructors document.
type BackendOptions struct {
	// Metric selects the distance. Cosine uses the unit-vector fast path
	// (all datasets here are normalized on creation), matching the
	// historical NewBruteForceIndex behavior.
	Metric vecmath.Metric
	// Dist overrides the metric's distance function when non-nil (tests
	// use it to instrument distance evaluations).
	Dist vecmath.DistanceFunc
	// Eps is the query radius, required by NeedsEps backends.
	Eps float64
	// Rho is the grid's approximation factor.
	Rho float64
	// Base is the cover tree's expansion constant (0 = default 2.0).
	Base float64
	// Branching / LeavesRatio configure the k-means tree.
	Branching   int
	LeavesRatio float64
	// M / EfConstruction / EfSearch configure the HNSW graph.
	M              int
	EfConstruction int
	EfSearch       int
	// Seed drives the deterministic randomized builds.
	Seed int64
}

func (o BackendOptions) distFunc() vecmath.DistanceFunc {
	if o.Dist != nil {
		return o.Dist
	}
	if o.Metric == vecmath.Cosine {
		return vecmath.CosineDistanceUnit
	}
	return o.Metric.Func()
}

// backendSpec is one registry entry. The registry is an ordered slice,
// not a map, so every listing and every error message is deterministic.
type backendSpec struct {
	name  string
	caps  Capabilities
	build func(points [][]float32, o BackendOptions) (RangeSearcher, error)
}

var backendRegistry = []backendSpec{
	{BackendBrute,
		Capabilities{Exact: true, Dynamic: true, Cosine: true, Euclidean: true},
		func(points [][]float32, o BackendOptions) (RangeSearcher, error) {
			return NewBruteForce(points, o.distFunc()), nil
		}},
	{BackendHNSW,
		Capabilities{Dynamic: true, KNN: true, Cosine: true, Euclidean: true},
		func(points [][]float32, o BackendOptions) (RangeSearcher, error) {
			return hnsw.New(points, o.distFunc(), hnsw.Config{
				M: o.M, EfConstruction: o.EfConstruction, EfSearch: o.EfSearch, Seed: o.Seed,
			}), nil
		}},
	{BackendCoverTree,
		Capabilities{Exact: true, Dynamic: true, Cosine: true, Euclidean: true},
		func(points [][]float32, o BackendOptions) (RangeSearcher, error) {
			base := o.Base
			if base == 0 {
				base = 2.0
			}
			if base <= 1 {
				return nil, fmt.Errorf("index: cover tree base %v must exceed 1", base)
			}
			return NewCoverTree(points, o.distFunc(), base), nil
		}},
	{BackendKMeansTree,
		Capabilities{Dynamic: true, KNN: true, Cosine: true, Euclidean: true},
		func(points [][]float32, o BackendOptions) (RangeSearcher, error) {
			return kmeansTreeSearcher{NewKMeansTree(points, o.distFunc(), KMeansTreeConfig{
				Branching: o.Branching, LeavesRatio: o.LeavesRatio, Seed: o.Seed,
			})}, nil
		}},
	{BackendGrid,
		Capabilities{Dynamic: true, Euclidean: true, NeedsEps: true},
		func(points [][]float32, o BackendOptions) (RangeSearcher, error) {
			if o.Metric != vecmath.Euclidean {
				return nil, fmt.Errorf("index: backend %q does not support metric %v", BackendGrid, o.Metric)
			}
			if o.Eps <= 0 {
				return nil, fmt.Errorf("index: backend %q needs the query radius at build time (got eps %v)", BackendGrid, o.Eps)
			}
			return gridSearcher{NewGrid(points, o.Eps, o.Rho)}, nil
		}},
}

// Backends lists every registered backend name in registry order.
func Backends() []string {
	out := make([]string, len(backendRegistry))
	for i, s := range backendRegistry {
		out[i] = s.name
	}
	return out
}

// LookupBackend returns the capabilities of a named backend.
func LookupBackend(name string) (Capabilities, bool) {
	for _, s := range backendRegistry {
		if s.name == name {
			return s.caps, true
		}
	}
	return Capabilities{}, false
}

// NewBackend builds the named backend over points. It fails on unknown
// names, unsupported metrics and missing required options — the same
// conditions ResolveBackend filters on, so a resolved name always builds.
func NewBackend(name string, points [][]float32, o BackendOptions) (RangeSearcher, error) {
	for _, s := range backendRegistry {
		if s.name != name {
			continue
		}
		if !s.caps.SupportsMetric(o.Metric) {
			return nil, fmt.Errorf("index: backend %q does not support metric %v", name, o.Metric)
		}
		return s.build(points, o)
	}
	return nil, fmt.Errorf("index: unknown backend %q (have %v)", name, Backends())
}

// Requirements filter a fallback chain during resolution.
type Requirements struct {
	// Exact demands the exact eps-neighborhood (the default everywhere a
	// caller has not opted into approximation, preserving bit-identical
	// labels).
	Exact bool
	// Dynamic demands DynamicIndex support.
	Dynamic bool
	// KNN demands KNNSearcher support.
	KNN bool
	// Metric is the distance the index must answer under.
	Metric vecmath.Metric
	// HaveEps: the caller can supply the query radius at build time, so
	// NeedsEps backends are eligible.
	HaveEps bool
}

// Satisfies reports whether capabilities c meet req.
func (c Capabilities) Satisfies(req Requirements) bool {
	if req.Exact && !c.Exact {
		return false
	}
	if req.Dynamic && !c.Dynamic {
		return false
	}
	if req.KNN && !c.KNN {
		return false
	}
	if c.NeedsEps && !req.HaveEps {
		return false
	}
	return c.SupportsMetric(req.Metric)
}

// DefaultChain is the declared fallback preference: the sub-linear graph
// first, the exact scan as the terminal fallback. Callers that require
// exactness resolve straight through to brute force; callers that opt
// into approximation land on HNSW.
func DefaultChain() []string {
	return []string{BackendHNSW, BackendBrute}
}

// ResolveBackend walks chain and returns the first backend whose
// capabilities satisfy req, or an error naming every rejection — the
// operator-facing explanation of why a preference was skipped.
func ResolveBackend(chain []string, req Requirements) (string, error) {
	if len(chain) == 0 {
		chain = DefaultChain()
	}
	var rejected []string
	for _, name := range chain {
		caps, ok := LookupBackend(name)
		if !ok {
			return "", fmt.Errorf("index: unknown backend %q in chain %v (have %v)", name, chain, Backends())
		}
		if caps.Satisfies(req) {
			return name, nil
		}
		rejected = append(rejected, name)
	}
	return "", fmt.Errorf("index: no backend in chain %v satisfies the requirements (rejected %v for metric %v)",
		chain, rejected, req.Metric)
}

// --- adapters: every backend behind the uniform RangeSearcher face ---
//
// *BruteForce, *hnsw.Graph and *CoverTree implement the contract directly;
// the grid and the k-means tree name their approximate queries apart from
// their exact ones, so they are registered behind these adapters.

// gridSearcher adapts the grid's ρ-approximate queries to the uniform
// contract. With Rho 0 the answers are exact; with Rho > 0 they carry the
// documented one-sided relaxation.
type gridSearcher struct{ *Grid }

func (g gridSearcher) RangeSearch(q []float32, eps float64) []int {
	return g.ApproxRangeSearch(q, eps)
}

func (g gridSearcher) RangeCount(q []float32, eps float64) int {
	return g.ApproxRangeCount(q, eps)
}

// kmeansTreeSearcher adapts the k-means tree's approximate queries to the
// uniform contract.
type kmeansTreeSearcher struct{ *KMeansTree }

func (t kmeansTreeSearcher) RangeSearch(q []float32, eps float64) []int {
	return t.RangeSearchApprox(q, eps)
}

func (t kmeansTreeSearcher) RangeCount(q []float32, eps float64) int {
	return len(t.RangeSearchApprox(q, eps))
}

var (
	_ RangeSearcher = (*hnsw.Graph)(nil)
	_ KNNSearcher   = (*hnsw.Graph)(nil)
	_ DynamicIndex  = (*hnsw.Graph)(nil)
	_ RangeSearcher = (*CoverTree)(nil)
	_ DynamicIndex  = (*CoverTree)(nil)
	_ RangeSearcher = gridSearcher{}
	_ DynamicIndex  = gridSearcher{}
	_ RangeSearcher = kmeansTreeSearcher{}
	_ KNNSearcher   = kmeansTreeSearcher{}
	_ DynamicIndex  = kmeansTreeSearcher{}
)
