package cluster

import (
	"context"
	"time"

	"lafdbscan/internal/index"
	"lafdbscan/internal/vecmath"
)

// ParallelDBSCAN is exact DBSCAN restructured for multi-core execution. The
// sequential algorithm's breadth-first expansion serializes its range
// queries — each query's result decides the next — but the clustering it
// computes depends only on two order-free facts: which points are core
// (|N(p)| >= Tau) and which core points are ε-connected. The parallel
// driver exploits that:
//
//  1. Neighbor discovery: range queries run in bounded waves on a worker
//     pool (index.BatchRangeSearchFunc). Each result is folded into a
//     WaveMerger the moment it is produced — core flag, lock-free
//     union-find links for core-core ε-edges, a short border stub for
//     non-core points — and the neighbor list itself is dropped.
//  2. Label resolution (sequential, linear): cluster ids are numbered by
//     first-core scan order and border points take the minimum cluster id
//     among the clusters of their core neighbors.
//
// Phase 2's two rules reproduce the sequential traversal exactly: DBSCAN's
// outer loop starts each cluster at its lowest-indexed core point (core
// points are never absorbed as border points of other clusters), and each
// cluster expands fully before the scan resumes, so a contested border
// point is always claimed by the earliest-numbered adjacent cluster. Run
// therefore returns labels identical — not merely equivalent — to
// DBSCAN.Run on the same inputs.
//
// Memory: only one wave of neighbor lists is in flight at a time and core
// lists are never retained, so peak extra memory is O(WaveSize·avg|N|) plus
// the non-core stubs (each shorter than Tau) — where holding every list at
// once would peak at O(Σ|N(p)|).
type ParallelDBSCAN struct {
	// Points, Eps, Tau, Metric and Index have DBSCAN's semantics.
	Points [][]float32
	Eps    float64
	Tau    int
	Metric vecmath.Metric
	Index  index.RangeSearcher
	// Workers sizes the query/merge worker pool; <= 0 selects GOMAXPROCS.
	Workers int
	// BatchSize is the number of queries a worker claims at a time; <= 0
	// selects a load-balancing default.
	BatchSize int
	// WaveSize bounds the number of neighbor lists in flight: queries run
	// in waves of this many, and each wave's lists are dropped before the
	// next begins. <= 0 selects index.DefaultWaveSize. Labels are
	// identical at every setting.
	WaveSize int
}

// Run clusters the points.
func (d *ParallelDBSCAN) Run() (*Result, error) { return d.RunContext(context.Background()) }

// RunContext clusters the points under a cancellation context, checked at
// each wave barrier (aborting within one wave at zero hot-path cost).
func (d *ParallelDBSCAN) RunContext(ctx context.Context) (*Result, error) {
	n := len(d.Points)
	if err := validateParams(n, d.Eps, d.Tau); err != nil {
		return nil, err
	}
	idx := d.Index
	if idx == nil {
		idx = index.NewBruteForce(d.Points, metricFunc(d.Metric))
	}
	start := time.Now()
	res := &Result{Algorithm: "DBSCAN", RangeQueries: n}

	// Phase 1: neighbor discovery in bounded waves, each result folded into
	// the merger (core flag, unions, stub) and dropped.
	m := NewWaveMerger(n, d.Tau)
	if err := index.BatchRangeSearchFunc(ctx, idx, d.Points, d.Eps, d.Workers, d.BatchSize, d.WaveSize,
		func(p int, ids []int) { m.Absorb(p, ids) }); err != nil {
		return nil, err
	}

	// Phase 2: sequential label resolution.
	res.Labels = m.Resolve(nil)
	res.Core = m.Core()
	res.Forest = DeriveForest(res.Labels, res.Core)
	res.Elapsed = time.Since(start)
	res.finalize()
	return res, nil
}
