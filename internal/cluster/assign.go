package cluster

import (
	"lafdbscan/internal/index"
	"lafdbscan/internal/vecmath"
)

// CoreMask expands a core id list into the dense mask Result.Core carries.
func CoreMask(n int, cores []int) []bool {
	mask := make([]bool, n)
	for _, c := range cores {
		mask[c] = true
	}
	return mask
}

// ClusterCoresAndAssign is the tail of the sequential DBSCAN++ engine
// (core.LAFDBSCANPP, with the open gate or a learned one):
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
