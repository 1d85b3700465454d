package cluster

// This file holds the label-resolution primitives of incremental model
// maintenance (Model.Insert / Model.Remove in the root package). The wave
// engines rest on the fact that every traversal labeling is a pure
// function of three order-free facts — the core set, ε-connectivity among
// core points, and each non-core point's adjacent cores. The incremental
// engine maintains exactly those facts under point insertion and removal
// and re-resolves labels from them; the functions here are the resolution
// side, pure in-memory graph work that issues no range queries.

// ResolveCanonical computes the canonical labeling of a maintained
// clustering state: core reports which points are core, and adj[i] lists
// the ids of the core points within Eps of point i (excluding i itself;
// entries that are not currently core are ignored, so callers may leave
// stale ids behind a demotion until their next maintenance pass).
//
// Clusters are the ε-connected components of the core points, numbered in
// ascending order of each component's minimum core id — exactly the
// numbering sequential DBSCAN's scan produces and WaveMerger.Resolve
// reproduces, because the traversal starts every cluster at its
// lowest-indexed core point. Non-core points with at least one adjacent
// core become borders and join the lowest-numbered adjacent cluster (the
// traversal methods' contested-border rule). Everything else is Noise.
func ResolveCanonical(core []bool, adj [][]int32) []int {
	n := len(core)
	labels := make([]int, n) // 0 = unassigned, cluster ids start at 1
	// Component discovery by BFS from each unvisited core in ascending id
	// order assigns cluster ids in min-core order directly — no sort needed.
	c := 0
	var queue []int32
	for p := 0; p < n; p++ {
		if !core[p] || labels[p] != 0 {
			continue
		}
		c++
		labels[p] = c
		queue = append(queue[:0], int32(p))
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range adj[u] {
				if core[v] && labels[v] == 0 {
					labels[v] = c
					queue = append(queue, v)
				}
			}
		}
	}
	// Border assignment from the border's own adjacency.
	for i := 0; i < n; i++ {
		if core[i] {
			continue
		}
		for _, a := range adj[i] {
			if core[a] && (labels[i] == 0 || labels[a] < labels[i]) {
				labels[i] = labels[a]
			}
		}
		if labels[i] == 0 {
			labels[i] = Noise
		}
	}
	return labels
}

// RenumberAscending canonicalizes cluster ids to 1..k in ascending order of
// their original values, in place, and returns k: the one finishing step of
// every engine, of model maintenance and of a model load. It is the identity
// on a labeling that is already numbered 1..k, as the baselines number
// theirs. LAF post-processing leaves union-find roots as ids; remapping them
// in ascending order keeps the relative order the traversal assigned
// clusters in, which out-of-sample prediction relies on: a contested border
// point belongs to its lowest-numbered adjacent cluster, before and after
// renumbering. The remap is sized by the largest id, so a caller holding
// an untrusted labeling bounds its ids first.
func RenumberAscending(labels []int) int {
	maxID := 0
	for _, l := range labels {
		if l > maxID {
			maxID = l
		}
	}
	seen := make([]bool, maxID+1)
	for _, l := range labels {
		if l != Noise && l >= 0 {
			seen[l] = true
		}
	}
	remap := make([]int, maxID+1)
	k := 0
	for id, ok := range seen {
		if ok {
			k++
			remap[id] = k
		}
	}
	for i, l := range labels {
		if l != Noise && l >= 0 {
			labels[i] = remap[l]
		}
	}
	return k
}
