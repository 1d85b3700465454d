package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"lafdbscan/internal/index"
	"lafdbscan/internal/vecmath"
)

// DBSCANPP is DBSCAN++ (Jang & Jiang 2018): a sampling-based DBSCAN variant
// that restricts the expensive core-point detection to a uniform subset of
// fraction P of the data. Core points among the subset are detected with
// range queries against the entire dataset; clusters grow over the
// ε-connectivity graph of the sampled core points; every remaining point
// joins the cluster of its closest sampled core point when within ε of it,
// and is noise otherwise.
type DBSCANPP struct {
	Points [][]float32
	Eps    float64
	Tau    int
	// P is the sample fraction in (0, 1]. The paper sets p = δ + Rc where
	// Rc is the estimator-predicted core ratio and δ is a user offset in
	// 0.1–0.3; see core.PredictedCoreRatio.
	P float64
	// Seed drives the uniform sample.
	Seed int64
	// Index optionally overrides the full-dataset range-query engine.
	Index index.RangeSearcher
}

// Run clusters the points.
func (d *DBSCANPP) Run() (*Result, error) { return d.RunContext(context.Background()) }

// RunContext clusters the points under a cancellation context, checked
// every ctxCheckEvery core-detection range queries.
func (d *DBSCANPP) RunContext(ctx context.Context) (*Result, error) {
	n := len(d.Points)
	if err := validateParams(n, d.Eps, d.Tau); err != nil {
		return nil, err
	}
	if d.P <= 0 || d.P > 1 {
		return nil, fmt.Errorf("cluster: DBSCAN++ sample fraction %v out of (0, 1]", d.P)
	}
	idx := d.Index
	if idx == nil {
		idx = index.NewBruteForce(d.Points, vecmath.CosineDistanceUnit)
	}
	start := time.Now()
	res := &Result{Algorithm: "DBSCAN++", Labels: make([]int, n)}

	rng := rand.New(rand.NewSource(d.Seed))
	m := int(float64(n) * d.P)
	if m < 1 {
		m = 1
	}
	sample := rng.Perm(n)[:m]

	// Detect core points within the sample, w.r.t. the whole dataset.
	cores := make([]int, 0, m)
	coreNeighbors := make(map[int][]int, m)
	for _, s := range sample {
		if err := checkCtx(ctx, res.RangeQueries); err != nil {
			return nil, err
		}
		neighbors := idx.RangeSearch(d.Points[s], d.Eps)
		res.RangeQueries++
		if len(neighbors) >= d.Tau {
			cores = append(cores, s)
			coreNeighbors[s] = neighbors
		}
	}

	labels := ClusterCoresAndAssign(d.Points, d.Eps, cores, coreNeighbors)
	res.Labels = labels
	res.Core = CoreMask(n, cores)
	res.Forest = DeriveForest(labels, res.Core)
	res.Elapsed = time.Since(start)
	res.finalize()
	return res, nil
}

// CoreMask expands a core id list into the dense mask Result.Core carries.
func CoreMask(n int, cores []int) []bool {
	mask := make([]bool, n)
	for _, c := range cores {
		mask[c] = true
	}
	return mask
}

// ClusterCoresAndAssign is the shared tail of DBSCAN++ and LAF-DBSCAN++:
// build clusters as connected components of the sampled core points under
// ε-connectivity (two cores connect when either contains the other in its
// neighbor list), then assign every unlabeled point to the cluster of its
// closest core point when within ε.
func ClusterCoresAndAssign(points [][]float32, eps float64, cores []int, coreNeighbors map[int][]int) []int {
	isCore := make(map[int]bool, len(cores))
	for _, c := range cores {
		isCore[c] = true
	}
	// Connected components via union-find: a core's neighbor list already
	// contains every core within ε of it, so unioning along neighbor lists
	// builds the ε-graph without extra distance work.
	uf := NewUnionFind()
	for _, c := range cores {
		uf.Find(c)
		for _, q := range coreNeighbors[c] {
			if isCore[q] {
				uf.Union(c, q)
			}
		}
	}
	return assignToCores(points, eps, cores, uf.Find, 1, 0)
}

// ClusterCoresAndAssignUnionWorkers is the wave engine's variant of
// ClusterCoresAndAssign: the ε-connectivity of the cores has already
// been folded into uf during neighbor discovery (cluster.WaveMerger), so no
// neighbor lists are needed — clusters are numbered off the forest and
// every other point is assigned to its closest core. The components are
// identical to the neighbor-list construction, so so is the labeling. The
// per-point nearest-core assignment is spread over a worker pool (each
// point's assignment is independent, so the labeling is identical at any
// worker count); workers <= 0 selects GOMAXPROCS, batch sizes the chunks.
func ClusterCoresAndAssignUnionWorkers(points [][]float32, eps float64, cores []int, uf *AtomicUnionFind, workers, batch int) []int {
	return assignToCores(points, eps, cores, uf.Find, workers, batch)
}

// assignToCores is the shared tail of the two constructions above: number
// the core components by first occurrence in cores order (find maps a core
// to its component representative), then assign every remaining point to
// the cluster of its closest core point when within eps, noise otherwise.
func assignToCores(points [][]float32, eps float64, cores []int, find func(int) int, workers, batch int) []int {
	n := len(points)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Undefined
	}
	clusterID := make(map[int]int)
	next := 0
	for _, c := range cores {
		root := find(c)
		id, ok := clusterID[root]
		if !ok {
			next++
			id = next
			clusterID[root] = id
		}
		labels[c] = id
	}
	// Assign all remaining points to the closest core point within eps.
	index.ForEach(n, workers, batch, func(i int) {
		if labels[i] != Undefined {
			return
		}
		best, bestD := -1, eps
		for _, c := range cores {
			if d := vecmath.CosineDistanceUnit(points[i], points[c]); d < bestD {
				best, bestD = c, d
			}
		}
		if best >= 0 {
			labels[i] = labels[best]
		} else {
			labels[i] = Noise
		}
	})
	return labels
}
