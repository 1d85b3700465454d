package cluster

import (
	"context"
	"fmt"
	"time"
)

// CtxCheckEvery is how many range queries (or LAF gate decisions) a
// sequential engine — here or in internal/core — runs between context
// checks. Cheap enough to be invisible (one modulo plus, every 64th query,
// an atomic load inside ctx.Err) while keeping cancellation latency to a
// few dozen queries — the sequential analogue of the parallel engines'
// per-wave check.
const CtxCheckEvery = 64

// CheckCtx returns ctx.Err() on every CtxCheckEvery-th query (and on the
// first, so a pre-cancelled context never starts work).
func CheckCtx(ctx context.Context, queries int) error {
	if queries%CtxCheckEvery == 0 {
		return ctx.Err()
	}
	return nil
}

// Label values. Cluster ids are positive integers starting at 1, matching
// the paper's pseudocode (c starts at 0 and is pre-incremented).
const (
	// Noise marks noise points in the output labeling.
	Noise = -1
	// Undefined marks not-yet-visited points during clustering. It never
	// appears in a finished Result.
	Undefined = -2
)

// Result is the output of one clustering run.
type Result struct {
	// Algorithm names the method that produced the labeling.
	Algorithm string
	// Labels[i] is the cluster id of point i (>= 1), or Noise.
	Labels []int
	// NumClusters is the number of distinct cluster ids in Labels.
	NumClusters int
	// Elapsed is the wall-clock clustering time, including estimator
	// prediction time and excluding estimator training time, matching the
	// paper's efficiency metric.
	Elapsed time.Duration
	// RangeQueries counts full range queries executed against the dataset.
	RangeQueries int
	// SkippedQueries counts range queries LAF skipped via the estimator
	// (always 0 for non-LAF methods).
	SkippedQueries int
	// PostMerges counts cluster merges applied by LAF post-processing.
	PostMerges int
	// Core[i] reports whether the method certified point i as a core point.
	// For the exact methods this is the true density criterion
	// |N(i)| >= Tau; for the approximate and sampled methods it is the
	// method's own core notion (sampled cores, block members, truncated-KNN
	// cores, LAF's queried-and-core points). The fitted-model API builds
	// out-of-sample prediction on it.
	Core []bool
	// Forest[i] is the cluster forest in canonical form: the minimum-index
	// core point sharing i's final cluster for core i, and -1 for non-core
	// points. It is derived from (Labels, Core) after all label rewriting
	// (LAF post-processing included), so it is identical across the
	// sequential, parallel and wave engines and serializes byte-for-byte.
	Forest []int32
}

// DeriveForest computes the canonical cluster forest of a finished labeling:
// every core point maps to the minimum-index core point of its cluster,
// every non-core point to -1. Cluster ids can be arbitrary (only equality is
// used), so the forest is invariant under relabeling — the property the
// engine-equality and persistence round-trip tests pin.
func DeriveForest(labels []int, core []bool) []int32 {
	forest := make([]int32, len(labels))
	rootOf := make(map[int]int32)
	for i := range forest {
		forest[i] = -1
	}
	for i, isCore := range core {
		if !isCore || labels[i] == Noise {
			continue
		}
		root, ok := rootOf[labels[i]]
		if !ok {
			root = int32(i) // first core in index order is the minimum
			rootOf[labels[i]] = root
		}
		forest[i] = root
	}
	return forest
}

// Stats recomputes NumClusters from Labels; algorithms call it once before
// returning.
func (r *Result) finalize() {
	ids := make(map[int]struct{})
	for _, l := range r.Labels {
		if l != Noise {
			ids[l] = struct{}{}
		}
	}
	r.NumClusters = len(ids)
}

// validateParams checks the shared (eps, tau) parameter domain.
func validateParams(n int, eps float64, tau int) error {
	if eps <= 0 {
		return fmt.Errorf("cluster: eps must be positive, got %v", eps)
	}
	if tau < 1 {
		return fmt.Errorf("cluster: tau must be at least 1, got %d", tau)
	}
	if n == 0 {
		return fmt.Errorf("cluster: empty dataset")
	}
	return nil
}
