package cluster

import (
	"context"
	"fmt"
	"time"

	"lafdbscan/internal/index"
	"lafdbscan/internal/vecmath"
)

// RhoApprox is ρ-approximate DBSCAN (Gan & Tao 2015/2017): DBSCAN with the
// density criterion relaxed by a factor ρ, answered from a sparse grid of
// cells with side ε/√d. Any point within ε is counted as a neighbor and no
// point beyond ε(1+ρ) is; points in between may count either way, which is
// what lets low-dimensional instances run in near-linear time.
//
// In high dimensions the grid degenerates — the cell-neighborhood
// enumeration dominates — and the method becomes slower than brute-force
// DBSCAN. The paper demonstrates exactly this in Table 4 and excludes the
// method from the main comparison; this implementation reproduces the
// behaviour honestly rather than papering over it.
type RhoApprox struct {
	Points [][]float32
	// Eps is the cosine-distance threshold (converted internally to the
	// Euclidean radius the grid uses).
	Eps float64
	Tau int
	// Rho is the approximation factor (> 0; the paper's evaluation uses
	// 1.0 after finding the usual 0.001–0.1 range hopeless here).
	Rho float64
}

// Run clusters the points.
func (r *RhoApprox) Run() (*Result, error) { return r.RunContext(context.Background()) }

// RunContext clusters the points under a cancellation context, checked
// every CtxCheckEvery grid queries.
func (r *RhoApprox) RunContext(ctx context.Context) (*Result, error) {
	n := len(r.Points)
	if err := validateParams(n, r.Eps, r.Tau); err != nil {
		return nil, err
	}
	if r.Rho < 0 {
		return nil, fmt.Errorf("cluster: rho must be non-negative, got %v", r.Rho)
	}
	start := time.Now()
	epsEuc := vecmath.CosineToEuclidean(r.Eps)
	grid := index.NewGrid(r.Points, epsEuc, r.Rho)
	res := &Result{Algorithm: "rho-approx"}

	labels := make([]int, n)
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
		if err := CheckCtx(ctx, res.RangeQueries); err != nil {
			return nil, err
		}
		neighbors := grid.ApproxRangeSearch(r.Points[p], epsEuc)
		res.RangeQueries++
		if len(neighbors) < r.Tau {
			labels[p] = Noise
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
			if labels[q] == Noise {
				labels[q] = c
			}
			if labels[q] != Undefined {
				continue
			}
			labels[q] = c
			if err := CheckCtx(ctx, res.RangeQueries); err != nil {
				return nil, err
			}
			qn := grid.ApproxRangeSearch(r.Points[q], epsEuc)
			res.RangeQueries++
			if len(qn) >= r.Tau {
				core[q] = true
				for _, s := range qn {
					if !inSeed[s] {
						seeds = append(seeds, s)
						inSeed[s] = true
					}
				}
			}
		}
	}
	res.Labels = labels
	res.Core = core
	res.Elapsed = time.Since(start)
	res.NumClusters = RenumberAscending(labels)
	return res, nil
}
