package cluster

import (
	"context"
	"time"

	"lafdbscan/internal/index"
	"lafdbscan/internal/vecmath"
)

// DBSCAN is the original density-based clustering algorithm (Ester et al.
// 1996) in the formulation of the paper's Algorithm 1 (black text). Its
// output is the ground truth every approximate method is scored against.
type DBSCAN struct {
	// Points are the unit-normalized vectors to cluster.
	Points [][]float32
	// Eps is the distance threshold; a range query around P returns
	// {Q : d(P, Q) < Eps}.
	Eps float64
	// Tau is the minimum neighbor count (including the point itself, which
	// every range query returns at distance 0) for a point to be core.
	Tau int
	// Index answers the range queries, under whatever metric it was built
	// with; when nil, a parallel brute-force scan under the paper's cosine
	// distance is used — the canonical configuration of the paper's
	// experiments.
	Index index.RangeSearcher
}

// Run clusters the points.
func (d *DBSCAN) Run() (*Result, error) { return d.RunContext(context.Background()) }

// RunContext clusters the points under a cancellation context, checked
// every ctxCheckEvery range queries (the sequential engine's analogue of
// the parallel engines' wave barrier); on cancellation it returns
// ctx.Err() and no result.
func (d *DBSCAN) RunContext(ctx context.Context) (*Result, error) {
	n := len(d.Points)
	if err := validateParams(n, d.Eps, d.Tau); err != nil {
		return nil, err
	}
	idx := d.Index
	if idx == nil {
		idx = index.NewBruteForce(d.Points, vecmath.CosineDistanceUnit)
	}
	start := time.Now()
	res := &Result{Algorithm: "DBSCAN", Labels: make([]int, n)}
	labels := res.Labels
	for i := range labels {
		labels[i] = Undefined
	}
	c := 0
	core := make([]bool, n)
	inSeed := make([]bool, n)
	for p := 0; p < n; p++ {
		if labels[p] != Undefined {
			continue
		}
		if err := checkCtx(ctx, res.RangeQueries); err != nil {
			return nil, err
		}
		neighbors := idx.RangeSearch(d.Points[p], d.Eps)
		res.RangeQueries++
		if len(neighbors) < d.Tau {
			labels[p] = Noise
			continue
		}
		core[p] = true
		c++
		labels[p] = c
		// Seed set S := N \ {P}, expanded breadth-first. inSeed tracks set
		// membership so S := S ∪ N unions stay O(1) per element.
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
			if labels[q] == Noise {
				labels[q] = c // border point: noise with a core neighbor
			}
			if labels[q] != Undefined {
				continue
			}
			labels[q] = c
			if err := checkCtx(ctx, res.RangeQueries); err != nil {
				return nil, err
			}
			qn := idx.RangeSearch(d.Points[q], d.Eps)
			res.RangeQueries++
			if len(qn) >= d.Tau {
				core[q] = true
				for _, r := range qn {
					if !inSeed[r] {
						seeds = append(seeds, r)
						inSeed[r] = true
					}
				}
			}
		}
	}
	res.Core = core
	res.Forest = DeriveForest(labels, core)
	res.Elapsed = time.Since(start)
	res.finalize()
	return res, nil
}
