package core

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"time"

	"lafdbscan/internal/cluster"
	"lafdbscan/internal/index"
)

// This file holds the multi-core engines behind LAFDBSCAN.Run and
// LAFDBSCANPP.Run when Config.Workers != 0. The sequential formulations
// interleave gating, querying and labeling point-by-point, but none of the
// three depends on traversal order:
//
//   - the estimator gate is a pure per-point predicate,
//   - the range queries of the predicted-core points are independent,
//   - clusters are the ε-connected components of the actual core points,
//     with the border/noise rules cluster.WaveMerger.Resolve applies.
//
// So the parallel engines run gate → wave-streamed queries → lock-free
// merge folded into each wave → sequential label resolution, and produce
// labels identical to their sequential counterparts when post-processing is
// disabled. With post-processing enabled the engines differ in one
// deliberate way: the sequential traversal only records a partial neighbor
// into E when the stop point was discovered before the querying point ran
// (Algorithm 2 updates existing entries only), so its E depends on visit
// order; the parallel engines register every predicted stop point first and
// then apply every executed query, yielding the complete, order-free map —
// a superset of the sequential one, which can only give Algorithm 3 more
// repair evidence.
//
// Memory: the engines keep at most one wave of neighbor lists in flight
// (Config.WaveSize), folding core flags and union-find links into each
// wave via cluster.WaveMerger and dropping the lists; only non-core stubs
// (< Tau entries each) and the partial-neighbor map survive.

// stopStripes guards concurrent Algorithm-2 appends to the rows of the
// partial-neighbor map during a wave. The stop mask is fully populated
// before the waves start (concurrent reads are safe); the rows are striped
// by stop-point id so unrelated stop points do not contend.
type stopStripes [16]sync.Mutex

// update registers querier p with every predicted stop point in ids
// (PartialNeighbors.Update under the stripes).
func (s *stopStripes) update(e *cluster.PartialNeighbors, p int, ids []int) {
	for _, q := range ids {
		if e.Stop[q] {
			mu := &s[q%len(s)]
			mu.Lock()
			e.Rows[q] = append(e.Rows[q], int32(p))
			mu.Unlock()
		}
	}
}

// discover is the wave engines' neighbor-discovery pass, gate → wave →
// fold: it gates the candidates (the points at ids, or every point when
// ids is nil), gives each predicted stop point an entry in the partial-
// neighbor map, and streams the range queries of the rest through the
// wave engine, folding each result into m and the map before the list is
// dropped. The map is the complete one: every stop point has its entry
// before any query runs, so every executed query registers with every
// stop point it finds. When every candidate passes the gate the candidates
// themselves are the queries, and the returned map is nil (it would have
// no entries). It sets res's query counts.
func discover(ctx context.Context, idx index.RangeSearcher, points [][]float32, ids []int, cfg Config, m *cluster.WaveMerger, res *cluster.Result) (*cluster.PartialNeighbors, error) {
	cands := points
	if ids != nil {
		cands = make([][]float32, len(ids))
		for k, id := range ids {
			cands[k] = points[id]
		}
	}
	pass := Gate(cands, cfg)
	queries, qids := cands, ids
	var e *cluster.PartialNeighbors
	if slices.Contains(pass, false) {
		e = cluster.NewPartialNeighbors(len(points))
		queries = make([][]float32, 0, len(cands))
		qids = make([]int, 0, len(cands))
		for k, ok := range pass {
			id := k
			if ids != nil {
				id = ids[k]
			}
			if ok {
				queries = append(queries, cands[k])
				qids = append(qids, id)
			} else {
				e.Ensure(id)
			}
		}
	}
	res.RangeQueries = len(queries)
	res.SkippedQueries = len(cands) - len(queries)
	var stripes stopStripes
	err := index.BatchRangeSearchFunc(ctx, idx, queries, cfg.Eps, cfg.Workers, cfg.BatchSize, cfg.WaveSize,
		func(k int, nb []int) {
			p := k
			if qids != nil {
				p = qids[k]
			}
			m.Absorb(p, nb)
			if e != nil {
				stripes.update(e, p, nb)
			}
		})
	return e, err
}

// runParallel is LAF-DBSCAN's multi-core engine. The context is checked at
// every wave barrier of the query phase.
func (l *LAFDBSCAN) runParallel(ctx context.Context, idx index.RangeSearcher) (*cluster.Result, error) {
	cfg := l.Config
	start := time.Now()
	res := &cluster.Result{Algorithm: cfg.algorithm("DBSCAN")}

	// Gate every point (lines 6-9 and 22-27 of Algorithm 1, hoisted out of
	// the traversal), then discover neighbors in waves. The map is read
	// even with post-processing disabled, because border assignment of
	// never-queried points needs it: their own neighbor list does not
	// exist, so the queriers that found them are the only record of their
	// adjacent cores.
	m := cluster.NewWaveMerger(len(l.Points), cfg.Tau)
	e, err := discover(ctx, idx, l.Points, nil, cfg, m, res)
	if err != nil {
		return nil, err
	}
	res.Labels = m.Resolve(e)
	if !cfg.DisablePostProcessing {
		rng := rand.New(rand.NewSource(cfg.Seed))
		res.PostMerges = PostProcess(res.Labels, e, cfg.Tau, rng)
	}
	res.Core = m.Core()
	res.Elapsed = time.Since(start)
	finalize(res)
	return res, nil
}

// runParallel is LAF-DBSCAN++'s multi-core engine. The rng stream is
// consumed in the same order as the sequential engine (sample permutation
// first, post-processing second), so a fixed seed selects the same sample.
func (l *LAFDBSCANPP) runParallel(ctx context.Context, idx index.RangeSearcher) (*cluster.Result, error) {
	cfg := l.Config
	start := time.Now()
	res := &cluster.Result{Algorithm: cfg.algorithm("DBSCAN++")}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sample := l.sample(rng)

	// Core detection and core-core unions fold into the waves. Neighbor
	// lists are dropped per wave — the assignment tail recomputes
	// point-core distances directly and needs no lists, so border stubs
	// are not retained either.
	merger := cluster.NewWaveMerger(len(l.Points), cfg.Tau)
	merger.SkipStubs()
	e, err := discover(ctx, idx, l.Points, sample, cfg, merger, res)
	if err != nil {
		return nil, err
	}
	l.assign(res, sample, merger, e, cfg.Workers, rng)
	res.Elapsed = time.Since(start)
	finalize(res)
	return res, nil
}
