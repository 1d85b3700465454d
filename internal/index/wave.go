package index

import (
	"context"
	"sync"
)

// This file is the one batch entry point of the index layer: instead of
// materializing one result slice per query — O(Σ|N(q)|) live at once —
// BatchRangeSearchFunc executes queries in bounded waves over the worker
// pool (batch.go) and hands each result to a callback while the wave is
// in flight. The caller folds what it needs out of each list (core flags, union-find
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
// in-flight neighbor lists stay far below those of one wave holding every
// query.
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

// appendSearcher is the one native fast path the wave driver knows:
// appendRangeSearch appends the ids within eps of q to dst and returns it,
// so each wave slot can reuse one result buffer. BruteForce provides it;
// every other index is served through RangeSearch.
type appendSearcher interface {
	appendRangeSearch(dst []int, q []float32, eps float64) []int
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
// as before the context existed. On a nil error every query's fn has run.
//
// fn is invoked concurrently from pool workers (on distinct i) and must be
// safe for that; ids is only valid for the duration of the call and may be
// recycled afterwards — callers that need to retain ids must copy them.
// workers <= 0 selects GOMAXPROCS, grain <= 0 a default chunk size, and
// wave <= 0 DefaultWaveSize. Results are identical to per-query RangeSearch
// calls.
//
// An index with the appendSearcher fast path gets one result buffer per
// wave slot, reset and reused wave after wave; slot 0's is kept call after
// call in waveScratchPool, so a warm single-vector call allocates nothing.
// Within a wave a slot is touched by exactly one worker, and the pool
// barrier between waves orders the reuse.
func BatchRangeSearchFunc(ctx context.Context, s RangeSearcher, queries [][]float32, eps float64, workers, grain, wave int, fn func(i int, ids []int)) error {
	n := len(queries)
	if n == 0 {
		return ctx.Err()
	}
	wave = ResolveWaveSize(wave)
	progress := waveProgress(ctx)
	w := waveScratchPool.Get().(*waveScratch)
	defer func() {
		// Keep only slot 0's buffer, all a single-vector call needs: a
		// batch's other slots would pin up to wave·Len() ids in the pool.
		if len(w.bufs) > 1 {
			clear(w.bufs[1:])
		}
		w.s, w.app, w.queries, w.fn = nil, nil, nil, nil
		waveScratchPool.Put(w)
	}()
	w.s, w.queries, w.eps, w.fn = s, queries, eps, fn
	if w.app, _ = s.(appendSearcher); w.app != nil {
		if slots := min(wave, n); len(w.bufs) < slots {
			w.bufs = append(w.bufs, make([][]int, slots-len(w.bufs))...)
		}
	}
	for base := 0; base < n; base += wave {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := min(base+wave, n)
		w.lo = base
		ForEach(hi-base, workers, grain, w.run)
		if progress != nil {
			progress(hi - base)
		}
	}
	return nil
}

// waveScratch is the reusable state of one BatchRangeSearchFunc call: a
// result buffer per wave slot and the pool callback, bound once to the
// scratch so that passing it to ForEach allocates nothing.
type waveScratch struct {
	s       RangeSearcher
	app     appendSearcher // s's fast path, or nil
	queries [][]float32
	eps     float64
	lo      int // first query of the current wave
	fn      func(i int, ids []int)
	bufs    [][]int
	run     func(k int)
}

var waveScratchPool = sync.Pool{New: func() any {
	w := new(waveScratch)
	w.run = func(k int) {
		q := w.queries[w.lo+k]
		if w.app == nil {
			w.fn(w.lo+k, w.s.RangeSearch(q, w.eps))
			return
		}
		w.bufs[k] = w.app.appendRangeSearch(w.bufs[k][:0], q, w.eps)
		w.fn(w.lo+k, w.bufs[k])
	}
	return w
}}
