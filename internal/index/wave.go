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
// workers <= 0 selects GOMAXPROCS and wave <= 0 DefaultWaveSize. A wave is
// cut into tiles of four consecutive queries (the last may be shorter),
// and a worker claims one tile at a time, or with grain > 0 as many whole
// tiles as cover grain queries. Results are identical to per-query
// RangeSearch calls.
//
// A BruteForce answers each tile with scanTile, into one result buffer per
// wave slot, reset and reused wave after wave. Within a wave a slot is
// touched by exactly one worker, and the pool barrier between waves orders
// the reuse. The buffers of up to DefaultWaveSize slots are kept call
// after call in waveScratchPool, so a warm call whose waves are no larger
// allocates nothing. Every other index answers each query of a tile
// through RangeSearch.
func BatchRangeSearchFunc(ctx context.Context, s RangeSearcher, queries [][]float32, eps float64, workers, grain, wave int, fn func(i int, ids []int)) error {
	n := len(queries)
	if n == 0 {
		return ctx.Err()
	}
	wave = ResolveWaveSize(wave)
	claim := 1
	if grain > 0 {
		claim = (grain + tileSize - 1) / tileSize
	}
	progress := waveProgress(ctx)
	w := waveScratchPool.Get().(*waveScratch)
	defer func() {
		// Keep the buffers of one default wave at most: a default-wave
		// call holds that many in flight anyway, while a larger wave's
		// other slots would pin up to wave·Len() ids in the pool.
		if len(w.bufs) > DefaultWaveSize {
			clear(w.bufs[DefaultWaveSize:])
			w.bufs = w.bufs[:DefaultWaveSize]
		}
		w.s, w.bf, w.queries, w.fn = nil, nil, nil, nil
		waveScratchPool.Put(w)
	}()
	w.s, w.queries, w.eps, w.fn = s, queries, eps, fn
	if w.bf, _ = s.(*BruteForce); w.bf != nil {
		if slots := min(wave, n); len(w.bufs) < slots {
			w.bufs = append(w.bufs, make([][]int, slots-len(w.bufs))...)
		}
	}
	for base := 0; base < n; base += wave {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := min(base+wave, n)
		w.lo, w.hi = base, hi
		ForEach((hi-base+tileSize-1)/tileSize, workers, claim, w.run)
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
	bf      *BruteForce // s, when it is one
	queries [][]float32
	eps     float64
	lo, hi  int // the current wave's queries
	fn      func(i int, ids []int)
	bufs    [][]int
	run     func(tile int)
}

var waveScratchPool = sync.Pool{New: func() any {
	w := new(waveScratch)
	w.run = func(tile int) {
		lo := w.lo + tile*tileSize
		hi := min(lo+tileSize, w.hi)
		if w.bf == nil {
			for i := lo; i < hi; i++ {
				w.fn(i, w.s.RangeSearch(w.queries[i], w.eps))
			}
			return
		}
		bufs := w.bufs[lo-w.lo : hi-w.lo]
		w.bf.scanTile(bufs, w.queries[lo:hi], w.eps)
		for k, ids := range bufs {
			w.fn(lo+k, ids)
		}
	}
	return w
}}
