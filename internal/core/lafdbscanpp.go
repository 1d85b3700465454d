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

// RunContext clusters the points under a cancellation context: the
// sequential engine checks it every cluster.CtxCheckEvery gate/query
// decisions, the parallel wave engine at each wave barrier (aborting
// within one wave).
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
	if l.Config.Workers != 0 {
		return l.runParallel(ctx, idx)
	}
	cfg := l.Config
	threshold := cfg.Alpha * float64(cfg.Tau)
	est := cfg.Estimator

	start := time.Now()
	res := &cluster.Result{Algorithm: cfg.algorithm("DBSCAN++")}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := int(float64(n) * l.P)
	if m < 1 {
		m = 1
	}
	sample := rng.Perm(n)[:m]

	// Core detection within the sample, gated by the estimator. Predicted
	// stop points skip their range query and enter E.
	e := make(PartialNeighbors)
	cores := make([]int, 0, m)
	coreNeighbors := make(map[int][]int, m)
	for _, s := range sample {
		if err := cluster.CheckCtx(ctx, res.RangeQueries+res.SkippedQueries); err != nil {
			return nil, err
		}
		if est.Estimate(l.Points[s], cfg.Eps) < threshold {
			e.Ensure(s)
			res.SkippedQueries++
			continue
		}
		neighbors := idx.RangeSearch(l.Points[s], cfg.Eps)
		res.RangeQueries++
		e.Update(s, neighbors)
		if len(neighbors) >= cfg.Tau {
			cores = append(cores, s)
			coreNeighbors[s] = neighbors
		}
	}

	res.Labels = cluster.ClusterCoresAndAssign(l.Points, cfg.Eps, cores, coreNeighbors)
	if !cfg.DisablePostProcessing {
		res.PostMerges = PostProcess(res.Labels, e, cfg.Tau, rng)
	}
	res.Core = cluster.CoreMask(n, cores)
	res.Elapsed = time.Since(start)
	finalize(res)
	return res, nil
}
