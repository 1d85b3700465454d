package index

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the parallel substrate of the index layer: a shared worker
// pool (ForEach) that the wave driver (wave.go) and the clustering engines
// run on. The parallelism is across queries, never inside one: each worker
// runs full serial queries, so there is no fork/join overhead per query and
// no goroutine oversubscription when thousands of queries are in flight.

// ResolveWorkers normalizes a worker-count knob: values <= 0 select
// GOMAXPROCS, everything else is returned unchanged.
func ResolveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
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
