package cluster

import (
	"context"
	"fmt"
	"time"

	"lafdbscan/internal/index"
	"lafdbscan/internal/vecmath"
)

// KNNBlock is KNN-BLOCK DBSCAN (Chen et al. 2019): an approximate DBSCAN
// variant that replaces exact range queries with k-nearest-neighbor queries
// over a FLANN-style k-means tree. A point is core when its Tau-th nearest
// neighbor (including itself) lies within Eps; clusters grow over the
// approximate neighbor lists. Quality therefore depends on the tree's two
// recall knobs — Branching and LeavesRatio — which the paper sweeps for the
// trade-off curves of Figures 2 and 3.
type KNNBlock struct {
	Points [][]float32
	Eps    float64
	Tau    int
	// Branching is the k-means fan-out (paper default 10, swept 3–20).
	Branching int
	// LeavesRatio is the fraction of tree leaves examined per query (paper
	// default 0.6, swept 0.001–0.3).
	LeavesRatio float64
	// Seed drives tree construction.
	Seed int64
}

// Run clusters the points.
func (k *KNNBlock) Run() (*Result, error) { return k.RunContext(context.Background()) }

// RunContext clusters the points under a cancellation context, checked
// every CtxCheckEvery KNN queries of the core-detection phase (the
// dominant cost; the later phases are linear map scans).
func (k *KNNBlock) RunContext(ctx context.Context) (*Result, error) {
	n := len(k.Points)
	if err := validateParams(n, k.Eps, k.Tau); err != nil {
		return nil, err
	}
	if k.Branching != 0 && k.Branching < 2 {
		return nil, fmt.Errorf("cluster: KNN-BLOCK branching factor %d < 2", k.Branching)
	}
	start := time.Now()
	tree := index.NewKMeansTree(k.Points, vecmath.CosineDistanceUnit, index.KMeansTreeConfig{
		Branching:   k.Branching,
		LeavesRatio: k.LeavesRatio,
		Seed:        k.Seed,
	})
	res := &Result{Algorithm: "KNN-BLOCK"}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Undefined
	}

	// Phase 1: approximate core detection. The KNN list of each point
	// doubles as its (approximate) neighbor list for expansion.
	kq := k.Tau
	if kq < 16 {
		kq = 16 // fetch a few extra neighbors so expansion has material
	}
	neighborLists := make([][]int, n)
	isCore := make([]bool, n)
	for i := 0; i < n; i++ {
		if err := CheckCtx(ctx, res.RangeQueries); err != nil {
			return nil, err
		}
		ids, dists := tree.KNN(k.Points[i], kq)
		res.RangeQueries++
		cut := 0
		for cut < len(ids) && dists[cut] < k.Eps {
			cut++
		}
		neighborLists[i] = ids[:cut]
		isCore[i] = cut >= k.Tau
	}

	// Phase 2: grow clusters over mutual approximate neighborhoods. Because
	// approximate KNN lists are not symmetric, union along both directions.
	uf := NewUnionFind()
	for i := 0; i < n; i++ {
		if !isCore[i] {
			continue
		}
		uf.Find(i)
		for _, q := range neighborLists[i] {
			if isCore[q] {
				uf.Union(i, q)
			}
		}
	}
	clusterID := make(map[int]int)
	next := 0
	for i := 0; i < n; i++ {
		if !isCore[i] {
			continue
		}
		root := uf.Find(i)
		id, ok := clusterID[root]
		if !ok {
			next++
			id = next
			clusterID[root] = id
		}
		labels[i] = id
	}

	// Phase 3: border points adopt the cluster of any core point in their
	// approximate neighbor list; everything else is noise.
	for i := 0; i < n; i++ {
		if labels[i] != Undefined {
			continue
		}
		labels[i] = Noise
		for _, q := range neighborLists[i] {
			if isCore[q] {
				labels[i] = labels[q]
				break
			}
		}
	}

	res.Labels = labels
	res.Core = isCore
	res.Forest = DeriveForest(labels, isCore)
	res.Elapsed = time.Since(start)
	res.finalize()
	return res, nil
}
