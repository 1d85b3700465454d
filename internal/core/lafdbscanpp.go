package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"lafdbscan/internal/cluster"
	"lafdbscan/internal/index"
	"lafdbscan/internal/vecmath"
)

// LAFDBSCANPP is LAF-DBSCAN++: DBSCAN++ with LAF's estimator gate in front
// of the per-sample core-detection range queries and the post-processing
// repair pass at the end. It demonstrates that LAF generalizes beyond plain
// DBSCAN to its sampling-based variants; the paper fixes its error factor
// α to 1.0. With OpenGate it is DBSCAN++ (Jang & Jiang 2018): core points
// are detected within a uniform sample of fraction P against the whole
// dataset, clusters grow over the ε-graph of the sampled cores, and every
// other point joins its closest sampled core within ε, or is noise; of
// equally close cores, the lowest id wins.
//
// A point's candidate cores are the cores whose own range query found it,
// so the border rule follows the index's rows. On the exact default those
// rows hold every core within ε; on an approximate index (HNSW) a core the
// graph missed is not a candidate, as in DBSCAN's border rule there.
type LAFDBSCANPP struct {
	Points [][]float32
	Config Config
	// P is the sample fraction in (0, 1], kept identical to the DBSCAN++
	// baseline in the paper's experiments (p = delta + Rc).
	P float64
	// Index optionally overrides the range-query engine.
	Index index.RangeSearcher
}

// Run clusters the points.
func (l *LAFDBSCANPP) Run() (*cluster.Result, error) { return l.RunContext(context.Background()) }

// RunContext clusters the points under a cancellation context, checked
// every cluster.CtxCheckEvery estimates of the gate and at every wave
// barrier of the query phase (aborting within one wave).
func (l *LAFDBSCANPP) RunContext(ctx context.Context) (*cluster.Result, error) {
	n := len(l.Points)
	if err := l.Config.validate(n); err != nil {
		return nil, err
	}
	if l.P <= 0 || l.P > 1 {
		return nil, fmt.Errorf("core: LAF-DBSCAN++ sample fraction %v out of (0, 1]", l.P)
	}
	idx := l.Index
	if idx == nil {
		idx = index.NewBruteForce(l.Points, vecmath.CosineDistanceUnit)
	}
	cfg := l.Config
	start := time.Now()
	res := &cluster.Result{Algorithm: cfg.algorithm("DBSCAN++")}
	// The rng stream is consumed in a fixed order (sample permutation
	// first, post-processing second), so a fixed seed selects one sample.
	rng := rand.New(rand.NewSource(cfg.Seed))
	sample := rng.Perm(n)[:max(1, int(float64(n)*l.P))]

	// Core detection within the sample, gated by the estimator: predicted
	// stop points skip their range query and enter E, every other result
	// is folded into the merger (core flag, core-core unions) and dropped.
	// Each core's row also offers the core to every point in it: near[q]
	// is the closest core within Eps offered to q, -1 for none, at
	// distance nearD[q], the minimum of (distance, core id) whatever the
	// order of offers. A core's own slot is never read.
	merger := cluster.NewWaveMerger(n, cfg.Tau, false)
	near, nearD := make([]int32, n), make([]float64, n)
	for i := range near {
		near[i], nearD[i] = -1, cfg.Eps
	}
	var stripes stopStripes
	fold := func(p int, nb []int) {
		for _, q := range nb {
			d := vecmath.CosineDistanceUnit(l.Points[q], l.Points[p])
			mu := &stripes[q%len(stripes)]
			mu.Lock()
			if d < nearD[q] || d == nearD[q] && int32(p) < near[q] {
				near[q], nearD[q] = int32(p), d
			}
			mu.Unlock()
		}
	}
	_, e, err := discover(ctx, idx, l.Points, sample, cfg, merger, fold, res)
	if err != nil {
		return nil, err
	}
	// The sample's cores are numbered off the merger's forest by first
	// occurrence in sample order, every other point takes its slot core's
	// cluster, or is noise, and post-processing repairs the labeling from E.
	core := merger.Core()
	uf := merger.UnionFind()
	res.Labels = make([]int, n)
	clusterID := make(map[int]int)
	for _, s := range sample {
		if core[s] {
			root := uf.Find(s)
			if clusterID[root] == 0 {
				clusterID[root] = len(clusterID) + 1
			}
			res.Labels[s] = clusterID[root]
		}
	}
	for i, c := range near {
		switch {
		case core[i]:
		case c >= 0:
			res.Labels[i] = res.Labels[c]
		default:
			res.Labels[i] = cluster.Noise
		}
	}
	if !cfg.DisablePostProcessing {
		res.PostMerges = PostProcess(res.Labels, e, cfg.Tau, rng)
	}
	res.Core = core
	res.Elapsed = time.Since(start)
	res.NumClusters = cluster.RenumberAscending(res.Labels)
	return res, nil
}
