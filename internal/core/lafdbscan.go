package core

import (
	"context"
	"math/rand"
	"time"

	"lafdbscan/internal/cluster"
	"lafdbscan/internal/index"
	"lafdbscan/internal/vecmath"
)

// LAFDBSCAN is Algorithm 1 of the paper: DBSCAN with LAF's cardinality-
// estimation gate before every range query and the post-processing repair
// pass at the end. With OpenGate it is exact DBSCAN, Algorithm 1's black
// text, whose labeling is the ground truth every approximate method is
// scored against.
type LAFDBSCAN struct {
	Points [][]float32
	Config Config
	// Index optionally overrides the range-query engine (default: parallel
	// brute force under the unit-cosine metric).
	Index index.RangeSearcher
}

// Run clusters the points.
func (l *LAFDBSCAN) Run() (*cluster.Result, error) { return l.RunContext(context.Background()) }

// RunContext clusters the points under a cancellation context: the
// sequential engine checks it every cluster.CtxCheckEvery gate/query
// decisions, the parallel wave engine at each wave barrier (aborting
// within one wave).
func (l *LAFDBSCAN) RunContext(ctx context.Context) (*cluster.Result, error) {
	n := len(l.Points)
	if err := l.Config.validate(n); err != nil {
		return nil, err
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
	res := &cluster.Result{Algorithm: cfg.algorithm("DBSCAN"), Labels: make([]int, n)}
	labels := res.Labels
	for i := range labels {
		labels[i] = cluster.Undefined
	}
	e := cluster.NewPartialNeighbors(n)
	c := 0
	core := make([]bool, n)
	inSeed := make([]bool, n)
	for p := 0; p < n; p++ {
		if labels[p] != cluster.Undefined {
			continue
		}
		if err := cluster.CheckCtx(ctx, res.RangeQueries+res.SkippedQueries); err != nil {
			return nil, err
		}
		// LAF gate (lines 6-9): skip the range query for predicted stop
		// points, remembering them in E for post-processing.
		if est.Estimate(l.Points[p], cfg.Eps) < threshold {
			labels[p] = cluster.Noise
			e.Ensure(p)
			res.SkippedQueries++
			continue
		}
		neighbors := idx.RangeSearch(l.Points[p], cfg.Eps)
		res.RangeQueries++
		e.Update(p, neighbors)
		if len(neighbors) < cfg.Tau {
			labels[p] = cluster.Noise
			continue
		}
		core[p] = true
		c++
		labels[p] = c
		clear(inSeed)
		seeds := make([]int, 0, len(neighbors))
		for _, q := range neighbors {
			if q != p {
				seeds = append(seeds, q)
				inSeed[q] = true
			}
		}
		for k := 0; k < len(seeds); k++ {
			q := seeds[k]
			if labels[q] == cluster.Noise {
				labels[q] = c // border point
			}
			if labels[q] != cluster.Undefined {
				continue
			}
			labels[q] = c
			if err := cluster.CheckCtx(ctx, res.RangeQueries+res.SkippedQueries); err != nil {
				return nil, err
			}
			// LAF gate on the expansion query (lines 22-27).
			if est.Estimate(l.Points[q], cfg.Eps) >= threshold {
				qn := idx.RangeSearch(l.Points[q], cfg.Eps)
				res.RangeQueries++
				e.Update(q, qn)
				if len(qn) >= cfg.Tau {
					core[q] = true
					for _, r := range qn {
						if !inSeed[r] {
							seeds = append(seeds, r)
							inSeed[r] = true
						}
					}
				}
			} else {
				e.Ensure(q)
				res.SkippedQueries++
			}
		}
	}
	if !cfg.DisablePostProcessing {
		rng := rand.New(rand.NewSource(cfg.Seed))
		res.PostMerges = PostProcess(labels, e, cfg.Tau, rng)
	}
	res.Core = core
	res.Elapsed = time.Since(start)
	finalize(res)
	return res, nil
}

// finalize canonicalizes cluster ids to 1..k and recounts clusters.
// Post-processing leaves union-find roots as ids; renumbering keeps reports
// tidy and metric computation unaffected. Ids are remapped in ascending
// order of their original value — the identity when no post-processing
// merge rewrote labels — so the relative order the traversal assigned
// clusters in survives renumbering. Out-of-sample prediction relies on that
// monotonicity: a contested border point belongs to its lowest-numbered
// adjacent cluster, before and after finalize. The canonical cluster forest
// is derived here too, after the last label rewrite.
func finalize(res *cluster.Result) {
	res.NumClusters = cluster.RenumberAscending(res.Labels)
	if res.Core != nil {
		res.Forest = cluster.DeriveForest(res.Labels, res.Core)
	}
}
