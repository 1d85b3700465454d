package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"lafdbscan/internal/cardest"
	"lafdbscan/internal/cluster"
	"lafdbscan/internal/vecmath"
)

// ctxCheckEvery is how many range queries (or estimator gates) a sequential
// LAF engine runs between context checks — the sequential analogue of the
// parallel engines' per-wave check, cheap enough to be invisible on the hot
// path.
const ctxCheckEvery = 64

// checkCtx returns ctx.Err() on every ctxCheckEvery-th query (and on the
// first, so a pre-cancelled context never starts work).
func checkCtx(ctx context.Context, queries int) error {
	if queries%ctxCheckEvery == 0 {
		return ctx.Err()
	}
	return nil
}

// PartialNeighbors is the map E of Algorithm 1: predicted stop point id →
// the set of its neighbors discovered by other points' range queries.
type PartialNeighbors map[int]map[int]struct{}

// Ensure adds an empty entry for p when absent (lines 8 and 27 of
// Algorithm 1: "if P not in E then E(P) := ∅").
func (e PartialNeighbors) Ensure(p int) {
	if _, ok := e[p]; !ok {
		e[p] = make(map[int]struct{})
	}
}

// Update is Algorithm 2 (UpdatePartialNeighbors): after a range query for p
// returned neighbors, every neighbor that is a predicted stop point learns
// that p is its neighbor.
func (e PartialNeighbors) Update(p int, neighbors []int) {
	for _, pn := range neighbors {
		if set, ok := e[pn]; ok {
			set[p] = struct{}{}
		}
	}
}

// PostProcess is Algorithm 3 (PostProcessing): detect false-negative stop
// points — entries of E with at least tau partial neighbors — and merge the
// clusters their neighbors were separated into. For each such point a random
// non-noise neighbor's cluster becomes the destination; the clusters of all
// its neighbors merge into it, and the point itself joins it when noise.
//
// labels is modified in place. The returned count is the number of cluster
// merges performed (distinct-cluster unions), reported by the harness.
func PostProcess(labels []int, e PartialNeighbors, tau int, rng *rand.Rand) int {
	uf := cluster.NewUnionFind()
	// Iterate E deterministically so a fixed rng seed reproduces runs.
	points := make([]int, 0, len(e))
	for p := range e {
		points = append(points, p)
	}
	sort.Ints(points)
	merges := 0
	for _, p := range points {
		set := e[p]
		if len(set) < tau {
			continue
		}
		neighbors := make([]int, 0, len(set))
		for q := range set {
			neighbors = append(neighbors, q)
		}
		sort.Ints(neighbors)
		// Randomly select a non-noise neighbor as the destination cluster.
		var nonNoise []int
		for _, q := range neighbors {
			if labels[q] != cluster.Noise {
				nonNoise = append(nonNoise, q)
			}
		}
		if len(nonNoise) == 0 {
			continue // nothing to merge into
		}
		dest := uf.Find(labels[nonNoise[rng.Intn(len(nonNoise))]])
		// Merge the clusters of E(P) into the destination cluster.
		for _, q := range nonNoise {
			if root := uf.Find(labels[q]); root != dest {
				dest = uf.Union(root, dest)
				merges++
			}
		}
		// The detected false-negative core point joins the destination.
		if labels[p] == cluster.Noise {
			labels[p] = dest
		}
	}
	for i, l := range labels {
		if l != cluster.Noise {
			labels[i] = uf.Find(l)
		}
	}
	return merges
}

// Config carries the parameters shared by the LAF-enhanced algorithms.
type Config struct {
	// Eps and Tau are the DBSCAN density parameters.
	Eps float64
	Tau int
	// Alpha is LAF's error factor: a point is predicted core when
	// CardEst(P) >= Alpha*Tau. The paper sets it per dataset (Table 1).
	Alpha float64
	// Estimator predicts range-query cardinalities. Required.
	Estimator cardest.Estimator
	// Metric selects the distance function when no index override is
	// given. The zero value is the paper's cosine distance; Euclidean is
	// the paper's future-work extension (the estimator must have been
	// trained with radii covering the Euclidean value range).
	Metric vecmath.Metric
	// Seed drives post-processing's random destination choice (and the
	// sample in LAF-DBSCAN++).
	Seed int64
	// DisablePostProcessing turns Algorithm 3 off, for ablations.
	DisablePostProcessing bool
	// Workers selects the execution engine: 0 runs the sequential
	// reference implementation (the paper's formulation), any other value
	// runs the parallel engine with that many workers (< 0 selects
	// GOMAXPROCS). The parallel engine gates, queries and merges in
	// batches; its labels match the sequential engine's exactly when
	// post-processing is disabled, and its partial-neighbor map is the
	// complete (traversal-order-free) version — a superset of the
	// sequential one — when it is enabled. The Estimator must be safe for
	// concurrent use (all implementations in internal/cardest are).
	Workers int
	// BatchSize is the number of queries a parallel worker claims at a
	// time; <= 0 selects a load-balancing default. Ignored by the
	// sequential engine.
	BatchSize int
	// WaveSize bounds the parallel engine's neighbor-discovery memory:
	// range queries run in waves of this many and each wave's lists are
	// dropped as soon as their facts are folded in. <= 0 selects
	// index.DefaultWaveSize. Ignored by the sequential engine; labels are
	// identical at every setting.
	WaveSize int
}

func (c *Config) validate(n int) error {
	if c.Estimator == nil {
		return fmt.Errorf("core: nil cardinality estimator")
	}
	if c.Alpha <= 0 {
		return fmt.Errorf("core: alpha must be positive, got %v", c.Alpha)
	}
	if c.Eps <= 0 {
		return fmt.Errorf("core: eps must be positive, got %v", c.Eps)
	}
	if c.Tau < 1 {
		return fmt.Errorf("core: tau must be at least 1, got %d", c.Tau)
	}
	if n == 0 {
		return fmt.Errorf("core: empty dataset")
	}
	return nil
}

// PredictedCoreRatio returns Rc, the fraction of points the estimator
// predicts as core at the given parameters. The paper derives DBSCAN++'s
// sample fraction from it: p = delta + Rc.
func PredictedCoreRatio(points [][]float32, est cardest.Estimator, eps float64, tau int, alpha float64) float64 {
	if len(points) == 0 {
		return 0
	}
	core := 0
	threshold := alpha * float64(tau)
	for _, p := range points {
		if est.Estimate(p, eps) >= threshold {
			core++
		}
	}
	return float64(core) / float64(len(points))
}
