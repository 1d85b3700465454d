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
	// Facts, when non-nil, receives the run's neighbor facts (see Facts).
	// The run then keeps every queried point's neighbor list, one int32
	// per ε-pair, instead of dropping the core points' lists.
	Facts *Facts
}

// Facts are what a LAFDBSCAN run saw, kept for a caller that goes on to
// maintain the clustering without querying the points again.
type Facts struct {
	// Pass[i] is the gate's decision for point i: true when i ran its
	// range query.
	Pass []bool
	// Rows[i] is queried point i's own neighbor list, i included, in
	// unspecified order; nil for a stop point.
	Rows [][]int32
	// E is the complete partial-neighbor map the run resolved and
	// post-processed with; nil when every point passed the gate.
	E *cluster.PartialNeighbors
}

// Run clusters the points.
func (l *LAFDBSCAN) Run() (*cluster.Result, error) { return l.RunContext(context.Background()) }

// RunContext clusters the points under a cancellation context, checked
// every cluster.CtxCheckEvery estimates of the gate and at every wave
// barrier of the query phase (aborting within one wave).
func (l *LAFDBSCAN) RunContext(ctx context.Context) (*cluster.Result, error) {
	if err := l.Config.validate(len(l.Points)); err != nil {
		return nil, err
	}
	idx := l.Index
	if idx == nil {
		idx = index.NewBruteForce(l.Points, vecmath.CosineDistanceUnit)
	}
	cfg := l.Config
	start := time.Now()
	res := &cluster.Result{Algorithm: cfg.algorithm("DBSCAN")}

	// Gate every point (lines 6-9 and 22-27 of Algorithm 1, hoisted out of
	// the traversal), then discover neighbors in waves. The map is read
	// even with post-processing disabled, because border assignment of
	// never-queried points needs it: their own neighbor list does not
	// exist, so the queriers that found them are the only record of their
	// adjacent cores.
	m := cluster.NewWaveMerger(len(l.Points), cfg.Tau, true)
	if l.Facts != nil {
		m.KeepRows()
	}
	pass, e, err := discover(ctx, idx, l.Points, nil, cfg, m, nil, res)
	if err != nil {
		return nil, err
	}
	res.Labels = m.Resolve(e)
	if !cfg.DisablePostProcessing {
		rng := rand.New(rand.NewSource(cfg.Seed))
		res.PostMerges = PostProcess(res.Labels, e, cfg.Tau, rng)
	}
	if l.Facts != nil {
		*l.Facts = Facts{Pass: pass, Rows: m.Rows(), E: e}
	}
	res.Core = m.Core()
	res.Elapsed = time.Since(start)
	res.NumClusters = cluster.RenumberAscending(res.Labels)
	return res, nil
}
