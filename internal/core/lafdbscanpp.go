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
// other point joins its closest sampled core within ε, or is noise.
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
	// The assignment below recomputes point-core distances and needs no
	// lists, so the merger keeps no border stubs either.
	merger := cluster.NewWaveMerger(n, cfg.Tau, false)
	_, e, err := discover(ctx, idx, l.Points, sample, cfg, merger, res)
	if err != nil {
		return nil, err
	}
	// The sample's cores, in sample order, are clustered off the merger's
	// forest, every other point joins its closest core within Eps, and
	// post-processing repairs the labeling from E.
	core := merger.Core()
	cores := make([]int, 0, len(sample))
	for _, s := range sample {
		if core[s] {
			cores = append(cores, s)
		}
	}
	res.Labels = cluster.ClusterCoresAndAssignUnionWorkers(l.Points, cfg.Eps, cores, merger.UnionFind(), cfg.Workers)
	if !cfg.DisablePostProcessing {
		res.PostMerges = PostProcess(res.Labels, e, cfg.Tau, rng)
	}
	res.Core = core
	res.Elapsed = time.Since(start)
	finalize(res)
	return res, nil
}
