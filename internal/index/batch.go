package index

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the batch/parallel substrate of the index layer: a shared
// worker pool (ForEach) plus batch range-query entry points for every index.
// Batching moves the parallelism from inside one query (BruteForce's
// per-scan sharding) to across queries, which is the right grain for the
// parallel clustering drivers: each worker runs full serial queries, so
// there is no fork/join overhead per query and no goroutine oversubscription
// when thousands of queries are in flight.

// ResolveWorkers normalizes a worker-count knob: values <= 0 select
// GOMAXPROCS, everything else is returned unchanged.
func ResolveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// AutoWorkers maps a user-facing workers knob — where 0 means "sequential
// engine" (decided by the caller before reaching the pool) and negative
// means "all cores" — onto the pool convention where <= 0 selects
// GOMAXPROCS. The facade, the bench harness and the core engines share it
// so the auto convention lives in one place.
func AutoWorkers(workers int) int {
	if workers < 0 {
		return 0
	}
	return workers
}

// defaultGrain is the fallback chunk size ForEach hands to a worker at a
// time. Small enough to balance load when per-item cost varies (range
// queries over dense vs. sparse regions), large enough to amortize the
// atomic fetch.
const defaultGrain = 16

// ForEach invokes fn(i) for every i in [0, n), distributing contiguous
// chunks of grain indexes over a pool of workers goroutines. workers <= 0
// selects GOMAXPROCS; grain <= 0 selects a load-balancing default. fn must
// be safe for concurrent invocation on distinct i. With one worker (or
// n <= grain) the loop runs on the calling goroutine, so single-worker
// configurations are exactly the serial execution.
func ForEach(n, workers, grain int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = ResolveWorkers(workers)
	if grain <= 0 {
		grain = defaultGrain
	}
	if workers > (n+grain-1)/grain {
		workers = (n + grain - 1) / grain
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// The goroutines capture chunk, not the reassigned parameter grain,
	// which would move it to the heap on the serial path too.
	chunk := grain
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				hi := int(next.Add(int64(chunk)))
				lo := hi - chunk
				if lo >= n {
					return
				}
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}

// batchWorkerSearcher is the optional native batch fast path an index can
// provide; BruteForce uses it to run serial per-query scans instead of
// nesting its intra-query parallelism under the pool.
type batchWorkerSearcher interface {
	BatchRangeSearchWorkers(queries [][]float32, eps float64, workers, grain int) [][]int
}

// BatchRangeSearch answers queries[i] concurrently over a worker pool and
// returns out with out[i] = ids of points within eps of queries[i]. It
// prefers an index's native batch implementation when one exists and falls
// back to pooling the per-query RangeSearch otherwise. workers <= 0 selects
// GOMAXPROCS; grain <= 0 selects a default chunk size.
func BatchRangeSearch(s RangeSearcher, queries [][]float32, eps float64, workers, grain int) [][]int {
	if b, ok := s.(batchWorkerSearcher); ok {
		return b.BatchRangeSearchWorkers(queries, eps, workers, grain)
	}
	out := make([][]int, len(queries))
	ForEach(len(queries), workers, grain, func(i int) {
		out[i] = s.RangeSearch(queries[i], eps)
	})
	return out
}

// BatchRangeSearch implements RangeSearcher for BruteForce with the native
// batch path at GOMAXPROCS workers.
func (b *BruteForce) BatchRangeSearch(queries [][]float32, eps float64) [][]int {
	return b.BatchRangeSearchWorkers(queries, eps, 0, 0)
}

// BatchRangeSearchWorkers answers many queries over a fixed worker pool.
// Each query is a serial scan — across-query parallelism replaces the
// per-query sharding of RangeSearch — so the query counter advances by
// len(queries) and results are identical to serial RangeSearch calls.
func (b *BruteForce) BatchRangeSearchWorkers(queries [][]float32, eps float64, workers, grain int) [][]int {
	out := make([][]int, len(queries))
	b.queries.Add(int64(len(queries)))
	ForEach(len(queries), workers, grain, func(i int) {
		out[i] = b.scan(nil, queries[i], eps, 0, len(b.points))
	})
	return out
}

// BatchRangeSearch implements RangeSearcher for CoverTree. Tree traversal
// is read-only after construction, so queries run concurrently without
// synchronization.
func (t *CoverTree) BatchRangeSearch(queries [][]float32, eps float64) [][]int {
	return t.BatchRangeSearchWorkers(queries, eps, 0, 0)
}

// BatchRangeSearchWorkers answers many range queries over a fixed worker
// pool of the given size.
func (t *CoverTree) BatchRangeSearchWorkers(queries [][]float32, eps float64, workers, grain int) [][]int {
	out := make([][]int, len(queries))
	ForEach(len(queries), workers, grain, func(i int) {
		out[i] = t.RangeSearch(queries[i], eps)
	})
	return out
}

// BatchApproxRangeSearch answers many ρ-approximate range queries over a
// fixed worker pool. The grid is read-only after construction.
func (g *Grid) BatchApproxRangeSearch(queries [][]float32, eps float64, workers, grain int) [][]int {
	out := make([][]int, len(queries))
	ForEach(len(queries), workers, grain, func(i int) {
		out[i] = g.ApproxRangeSearch(queries[i], eps)
	})
	return out
}

// BatchRangeSearchApprox answers many approximate range queries over a
// fixed worker pool. The tree is read-only after construction.
func (t *KMeansTree) BatchRangeSearchApprox(queries [][]float32, eps float64, workers, grain int) [][]int {
	out := make([][]int, len(queries))
	ForEach(len(queries), workers, grain, func(i int) {
		out[i] = t.RangeSearchApprox(queries[i], eps)
	})
	return out
}
