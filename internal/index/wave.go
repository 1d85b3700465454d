package index

import (
	"context"
	"sync"
)

// This file is the streaming counterpart of batch.go: instead of
// materializing one result slice per query — O(Σ|N(q)|) live at once —
// BatchRangeSearchFunc executes queries in bounded waves over the worker
// pool and hands each result to a callback while the wave is in flight.
// The caller folds what it needs out of each list (core flags, union-find
// links, small stubs) and the list itself is recycled or collected, so the
// live set is O(WaveSize·avg|N|) regardless of dataset size. This is the
// substrate of the memory-bounded parallel clustering engines.
//
// The wave barrier is also the engines' cancellation and progress point:
// the context is consulted once per wave — never inside the per-query hot
// loop — so cancellation costs nothing while queries run and aborts within
// one wave, and an optional WithWaveProgress hook observes each completed
// wave (the job engine in internal/serve reports poll-able progress
// through it).

// DefaultWaveSize is the number of queries per wave when the caller passes
// wave <= 0. Large enough that the per-wave pool fork/join is amortized
// over thousands of distance computations, small enough that a wave's
// in-flight neighbor lists stay far below the buffer-everything regime.
const DefaultWaveSize = 1024

// ResolveWaveSize normalizes a wave-size knob: values <= 0 select
// DefaultWaveSize, everything else is returned unchanged.
func ResolveWaveSize(wave int) int {
	if wave <= 0 {
		return DefaultWaveSize
	}
	return wave
}

// waveProgressKey carries the WithWaveProgress hook through a context.
type waveProgressKey struct{}

// WithWaveProgress returns a context that makes the wave engines report
// progress: fn is invoked after every completed wave with the number of
// queries that wave answered. fn is called from the goroutine driving the
// waves (never concurrently with itself within one batch call), but a
// clustering run may issue several batch calls, so fn should accumulate
// atomically when shared across runs.
func WithWaveProgress(ctx context.Context, fn func(queries int)) context.Context {
	return context.WithValue(ctx, waveProgressKey{}, fn)
}

// waveProgress extracts the WithWaveProgress hook, or nil.
func waveProgress(ctx context.Context) func(int) {
	fn, _ := ctx.Value(waveProgressKey{}).(func(int))
	return fn
}

// batchFuncWorkerSearcher is the optional native streaming path an index
// can provide; BruteForce uses it to recycle one result buffer per wave
// slot instead of allocating a fresh slice per query.
type batchFuncWorkerSearcher interface {
	BatchRangeSearchFuncWorkers(ctx context.Context, queries [][]float32, eps float64, workers, grain, wave int, fn func(i int, ids []int)) error
}

// BatchRangeSearchFunc answers queries[i] in waves of at most wave queries
// over a worker pool, invoking fn(i, ids) once per query with the ids of
// points within eps of queries[i]. Waves run back to back with a barrier
// between them, so at most one wave's results are in flight at a time.
//
// ctx is checked at each wave barrier only: a cancellation arriving
// mid-wave lets the in-flight wave finish (every fn of that wave still
// runs) and stops before the next one, returning ctx.Err(). The hot path
// never touches the context, so an un-cancelled run costs exactly the same
// as before the context existed. A nil fn result set is never produced; on
// a nil error every query's fn has run.
//
// fn is invoked concurrently from pool workers (on distinct i) and must be
// safe for that; ids is only valid for the duration of the call and may be
// recycled afterwards — callers that need to retain ids must copy them.
// workers <= 0 selects GOMAXPROCS, grain <= 0 a default chunk size, and
// wave <= 0 DefaultWaveSize. Results are identical to per-query RangeSearch
// calls; only the allocation profile differs from BatchRangeSearch.
func BatchRangeSearchFunc(ctx context.Context, s RangeSearcher, queries [][]float32, eps float64, workers, grain, wave int, fn func(i int, ids []int)) error {
	if b, ok := s.(batchFuncWorkerSearcher); ok {
		return b.BatchRangeSearchFuncWorkers(ctx, queries, eps, workers, grain, wave, fn)
	}
	wave = ResolveWaveSize(wave)
	progress := waveProgress(ctx)
	for base := 0; base < len(queries); base += wave {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := min(base+wave, len(queries))
		lo := base
		ForEach(hi-lo, workers, grain, func(k int) {
			fn(lo+k, s.RangeSearch(queries[lo+k], eps))
		})
		if progress != nil {
			progress(hi - lo)
		}
	}
	return nil
}

// BatchRangeSearchFuncWorkers is BruteForce's native streaming path: each
// wave slot owns one result buffer that is reset and reused wave after
// wave, and slot 0's is kept call after call in waveScratchPool, so a warm
// single-vector call allocates nothing. Within a wave a slot is touched by
// exactly one worker, and the pool barrier between waves orders the reuse.
// The context carries the same per-wave cancellation and progress
// semantics as BatchRangeSearchFunc.
func (b *BruteForce) BatchRangeSearchFuncWorkers(ctx context.Context, queries [][]float32, eps float64, workers, grain, wave int, fn func(i int, ids []int)) error {
	n := len(queries)
	if n == 0 {
		return ctx.Err()
	}
	wave = ResolveWaveSize(wave)
	progress := waveProgress(ctx)
	s := waveScratchPool.Get().(*waveScratch)
	defer func() {
		// Keep only slot 0's buffer, all a single-vector call needs: a
		// batch's other slots would pin up to wave·Len() ids in the pool.
		clear(s.bufs[1:])
		s.b, s.queries, s.fn = nil, nil, nil
		waveScratchPool.Put(s)
	}()
	s.b, s.queries, s.eps, s.fn = b, queries, eps, fn
	if slots := min(wave, n); len(s.bufs) < slots {
		s.bufs = append(s.bufs, make([][]int, slots-len(s.bufs))...)
	}
	for base := 0; base < n; base += wave {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := min(base+wave, n)
		s.lo = base
		b.queries.Add(int64(hi - base))
		ForEach(hi-base, workers, grain, s.run)
		if progress != nil {
			progress(hi - base)
		}
	}
	return nil
}

// waveScratch is the reusable state of one BatchRangeSearchFuncWorkers
// call: a result buffer per wave slot and the pool callback, bound once
// to the scratch so that passing it to ForEach allocates nothing.
type waveScratch struct {
	b       *BruteForce
	queries [][]float32
	eps     float64
	lo      int // first query of the current wave
	fn      func(i int, ids []int)
	bufs    [][]int
	run     func(k int)
}

var waveScratchPool = sync.Pool{New: func() any {
	s := new(waveScratch)
	s.run = func(k int) {
		s.bufs[k] = s.b.scan(s.bufs[k][:0], s.queries[s.lo+k], s.eps, 0, len(s.b.points))
		s.fn(s.lo+k, s.bufs[k])
	}
	return s
}}

// CoverTree needs no native streaming path: its traversal is read-only
// after construction and allocates per query either way, so the generic
// BatchRangeSearchFunc fallback is its wave engine (the live set is still
// bounded by one wave — each result is handed to fn and then dropped).

// BatchApproxRangeSearchFunc streams the grid's ρ-approximate range queries
// in waves, fn receiving each result as it is produced; ctx is checked at
// each wave barrier.
func (g *Grid) BatchApproxRangeSearchFunc(ctx context.Context, queries [][]float32, eps float64, workers, grain, wave int, fn func(i int, ids []int)) error {
	wave = ResolveWaveSize(wave)
	progress := waveProgress(ctx)
	for base := 0; base < len(queries); base += wave {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := min(base+wave, len(queries))
		lo := base
		ForEach(hi-lo, workers, grain, func(k int) {
			fn(lo+k, g.ApproxRangeSearch(queries[lo+k], eps))
		})
		if progress != nil {
			progress(hi - lo)
		}
	}
	return nil
}

// BatchRangeSearchApproxFunc streams the k-means tree's approximate range
// queries in waves, fn receiving each result as it is produced; ctx is
// checked at each wave barrier.
func (t *KMeansTree) BatchRangeSearchApproxFunc(ctx context.Context, queries [][]float32, eps float64, workers, grain, wave int, fn func(i int, ids []int)) error {
	wave = ResolveWaveSize(wave)
	progress := waveProgress(ctx)
	for base := 0; base < len(queries); base += wave {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := min(base+wave, len(queries))
		lo := base
		ForEach(hi-lo, workers, grain, func(k int) {
			fn(lo+k, t.RangeSearchApprox(queries[lo+k], eps))
		})
		if progress != nil {
			progress(hi - lo)
		}
	}
	return nil
}
