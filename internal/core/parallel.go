package core

import (
	"context"
	"math/rand"
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
//     with the same border/noise rules the parallel DBSCAN driver resolves.
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

// poolParams maps the Config knobs onto the index-layer worker-pool
// arguments, where <= 0 means "auto" (GOMAXPROCS / default grain).
func poolParams(cfg Config) (workers, grain int) {
	return index.AutoWorkers(cfg.Workers), cfg.BatchSize
}

// gateAll evaluates the estimator gate for the points at ids in parallel
// and returns the predicted-core mask, aligned with ids.
func gateAll(points [][]float32, ids []int, cfg Config, workers, grain int) []bool {
	threshold := cfg.Alpha * float64(cfg.Tau)
	predicted := make([]bool, len(ids))
	index.ForEach(len(ids), workers, grain, func(k int) {
		predicted[k] = cfg.Estimator.Estimate(points[ids[k]], cfg.Eps) >= threshold
	})
	return predicted
}

// stopStripes guards concurrent Algorithm-2 inserts into the
// partial-neighbor map during a wave. The outer map is fully populated
// before the waves start (concurrent reads are safe); the inner sets are
// striped by stop-point id so unrelated stop points do not contend.
type stopStripes [16]sync.Mutex

// update registers querier p with every predicted stop point in ids
// (PartialNeighbors.Update under the stripes).
func (s *stopStripes) update(e PartialNeighbors, p int, ids []int) {
	for _, q := range ids {
		if set, ok := e[q]; ok {
			mu := &s[q%len(s)]
			mu.Lock()
			set[p] = struct{}{}
			mu.Unlock()
		}
	}
}

// runParallel is LAF-DBSCAN's multi-core engine. The context is checked at
// every wave barrier of the query phase.
func (l *LAFDBSCAN) runParallel(ctx context.Context, idx index.RangeSearcher) (*cluster.Result, error) {
	cfg := l.Config
	n := len(l.Points)
	workers, grain := poolParams(cfg)

	start := time.Now()
	res := &cluster.Result{Algorithm: "LAF-DBSCAN"}

	// Phase 0: estimator gate for every point (lines 6-9 and 22-27 of
	// Algorithm 1, hoisted out of the traversal).
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	predictedCore := gateAll(l.Points, all, cfg, workers, grain)
	queried := make([]int, 0, n)
	for i, pc := range predictedCore {
		if pc {
			queried = append(queried, i)
		}
	}
	res.RangeQueries = len(queried)
	res.SkippedQueries = n - len(queried)

	// The complete partial-neighbor map: every predicted stop point gets
	// an entry up front, every executed query registers into it from the
	// wave callback. Built even with post-processing disabled, because
	// border assignment of never-queried points reads it too — their own
	// neighbor list does not exist, so the queriers that found them are
	// the only record of their adjacent cores.
	e := make(PartialNeighbors)
	for i, pc := range predictedCore {
		if !pc {
			e.Ensure(i)
		}
	}

	// Phase 1: wave-streamed range queries for the predicted-core points;
	// each result is folded into the merger and the stop map, then dropped.
	qpts := make([][]float32, len(queried))
	for k, id := range queried {
		qpts[k] = l.Points[id]
	}
	m := cluster.NewWaveMerger(n, cfg.Tau)
	var stripes stopStripes
	if err := index.BatchRangeSearchFunc(ctx, idx, qpts, cfg.Eps, workers, grain, cfg.WaveSize,
		func(k int, ids []int) {
			p := queried[k]
			m.Absorb(p, ids)
			stripes.update(e, p, ids)
		}); err != nil {
		return nil, err
	}

	// Phase 2: sequential label resolution, same rules as ParallelDBSCAN.
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
	n := len(l.Points)
	workers, grain := poolParams(cfg)

	start := time.Now()
	res := &cluster.Result{Algorithm: "LAF-DBSCAN++"}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := int(float64(n) * l.P)
	if m < 1 {
		m = 1
	}
	sample := rng.Perm(n)[:m]

	// Parallel gate over the sample, then wave-streamed queries for the
	// predicted-core sample points.
	predictedCore := gateAll(l.Points, sample, cfg, workers, grain)
	queried := make([]int, 0, m)
	e := make(PartialNeighbors)
	for k, s := range sample {
		if predictedCore[k] {
			queried = append(queried, s)
		} else {
			e.Ensure(s)
			res.SkippedQueries++
		}
	}
	qpts := make([][]float32, len(queried))
	for k, s := range queried {
		qpts[k] = l.Points[s]
	}
	res.RangeQueries = len(queried)

	// Core detection and core-core unions fold into the waves; coreMask
	// preserves sample order so cluster numbering matches the sequential
	// engine. Neighbor lists are dropped per wave — the assignment phase
	// below recomputes point-core distances directly and needs no lists,
	// so border stubs are not retained either.
	merger := cluster.NewWaveMerger(n, cfg.Tau)
	merger.SkipStubs()
	var stripes stopStripes
	coreMask := make([]bool, len(queried))
	if err := index.BatchRangeSearchFunc(ctx, idx, qpts, cfg.Eps, workers, grain, cfg.WaveSize,
		func(k int, ids []int) {
			s := queried[k]
			coreMask[k] = merger.Absorb(s, ids)
			stripes.update(e, s, ids)
		}); err != nil {
		return nil, err
	}
	cores := make([]int, 0, len(queried))
	for k, s := range queried {
		if coreMask[k] {
			cores = append(cores, s)
		}
	}

	res.Labels = cluster.ClusterCoresAndAssignUnionWorkers(l.Points, cfg.Eps, cores, merger.UnionFind(), workers, grain)
	if !cfg.DisablePostProcessing {
		res.PostMerges = PostProcess(res.Labels, e, cfg.Tau, rng)
	}
	res.Core = cluster.CoreMask(n, cores)
	res.Elapsed = time.Since(start)
	finalize(res)
	return res, nil
}
