package cluster

import (
	"lafdbscan/internal/index"
	"lafdbscan/internal/vecmath"
)

// ClusterCoresAndAssignUnionWorkers is the tail of both DBSCAN++ engines
// (core.LAFDBSCANPP, with the open gate or a learned one): the
// ε-connectivity of the sampled cores has already been folded into uf
// during core detection (cluster.WaveMerger), so clusters are numbered off
// the forest, by first occurrence in cores order, and every other point
// joins the cluster of its closest core point when within eps, or is
// noise. The per-point assignment is spread over a worker pool (each
// point's assignment is independent, so the labeling is identical at any
// worker count); workers <= 0 selects GOMAXPROCS.
func ClusterCoresAndAssignUnionWorkers(points [][]float32, eps float64, cores []int, uf *AtomicUnionFind, workers int) []int {
	n := len(points)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Undefined
	}
	clusterID := make(map[int]int)
	next := 0
	for _, c := range cores {
		root := uf.Find(c)
		id, ok := clusterID[root]
		if !ok {
			next++
			id = next
			clusterID[root] = id
		}
		labels[c] = id
	}
	// Assign all remaining points to the closest core point within eps.
	index.ForEach(n, workers, 0, func(i int) {
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
