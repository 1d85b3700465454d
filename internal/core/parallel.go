package core

import (
	"context"
	"slices"
	"sync"

	"lafdbscan/internal/cluster"
	"lafdbscan/internal/index"
)

// This file is the one neighbor-discovery pass behind LAFDBSCAN.Run and
// LAFDBSCANPP.Run. The paper's formulation interleaves gating, querying
// and labeling point by point, but none of the three depends on traversal
// order:
//
//   - the estimator gate is a pure per-point predicate,
//   - the range queries of the predicted-core points are independent,
//   - clusters are the ε-connected components of the actual core points,
//     with the border/noise rules cluster.WaveMerger.Resolve applies.
//
// So the engines run gate → wave-streamed queries → lock-free merge folded
// into each wave → label resolution, on a pool of Config.Workers workers;
// the worker count changes the speed and never the result. The one
// deliberate departure from Algorithm 2 is the partial-neighbor map: the
// paper's traversal records a finder only for stop points it has already
// discovered, so its E depends on visit order, while discover registers
// every predicted stop point first and then applies every executed query.
// That complete, order-free map is a superset of the traversal's, so it
// can only give Algorithm 3 more repair evidence, and model maintenance
// keeps the same map current.
//
// Memory: the engines keep at most one wave of neighbor lists in flight
// (Config.WaveSize), folding core flags and union-find links into each
// wave via cluster.WaveMerger and dropping the lists; only non-core stubs
// (< Tau entries each) and the partial-neighbor map survive, unless the
// caller asks LAFDBSCAN for its Facts.

// stopStripes guards concurrent Algorithm-2 appends to the rows of the
// partial-neighbor map (and LAF-DBSCAN++'s nearest-core slots) during a
// wave. The stop mask is fully populated before the waves start (so it is
// read without a lock); rows are striped by point id to spread contention.
type stopStripes [16]sync.Mutex

// update is Algorithm 2 (UpdatePartialNeighbors) under the stripes: it
// registers querier p with every point in ids that has an entry in E.
// Points without one are left alone.
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
// no entries). A unit-cosine brute-force idx over the very rows of points
// scores each ε-pair once (index.BatchSelfSearchFunc). A non-nil onCore
// also gets each core's row, concurrently for distinct cores. It returns
// the gate's decisions, pass[k] for candidate k, with the map, and sets
// res's query counts.
func discover(ctx context.Context, idx index.RangeSearcher, points [][]float32, ids []int, cfg Config, m *cluster.WaveMerger, onCore func(p int, nb []int), res *cluster.Result) (pass []bool, e *cluster.PartialNeighbors, err error) {
	cands := points
	if ids != nil {
		cands = make([][]float32, len(ids))
		for k, id := range ids {
			cands[k] = points[id]
		}
	}
	if pass, err = Gate(ctx, cands, cfg); err != nil {
		return nil, nil, err
	}
	qids := ids
	if slices.Contains(pass, false) {
		e = cluster.NewPartialNeighbors(len(points))
		qids = make([]int, 0, len(cands))
		for k, ok := range pass {
			id := k
			if ids != nil {
				id = ids[k]
			}
			if ok {
				qids = append(qids, id)
			} else {
				e.Ensure(id)
			}
		}
	}
	res.RangeQueries = len(cands)
	if qids != nil {
		res.RangeQueries = len(qids)
	}
	res.SkippedQueries = len(cands) - res.RangeQueries
	var stripes stopStripes
	err = index.BatchSelfSearchFunc(ctx, idx, points, qids, cfg.Eps, cfg.Workers, 0, cfg.WaveSize,
		func(k int, nb []int) {
			p := k
			if qids != nil {
				p = qids[k]
			}
			if m.Absorb(p, nb) && onCore != nil {
				onCore(p, nb)
			}
			if e != nil {
				stripes.update(e, p, nb)
			}
		})
	return pass, e, err
}
