package index

import (
	"context"
	"math"
	"slices"
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
// BatchSelfSearchFunc runs the same waves for queries that are indexed
// points themselves. On a BruteForce over those very rows it scores each
// ε-pair once and carries the hit forward to the later query, so its live
// set adds the carried pairs: at most half the ε-pairs among the queried
// points, 4 B each (an int32 id) once their query's wave is gathered, and
// 8 B each (an int32 target and id) while they wait for a later wave, in
// 2 KB chunks of which each later wave fills at most one partly.
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
	if len(queries) == 0 {
		return ctx.Err()
	}
	w := waveScratchPool.Get().(*waveScratch)
	defer w.release()
	w.s, w.queries, w.eps, w.fn = s, queries, eps, fn
	w.bf, _ = s.(*BruteForce)
	return w.waves(ctx, len(queries), workers, grain, wave)
}

// BatchSelfSearchFunc is BatchRangeSearchFunc for queries that are points
// of the indexed set: fn(i, ids) gets the ids of the points s finds within
// eps of points[qids[i]], or of points[i] for every point when qids is
// nil. ctx, fn, workers, grain and wave keep BatchRangeSearchFunc's
// contract, and every list is the one BatchRangeSearchFunc would hand
// over for the same query, in the same order.
//
// When s is a BruteForce under vecmath.CosineDistanceUnit whose rows are
// points themselves (the same row slices, not copies of them), each wave
// is a self-join in two steps. The rows stand in query-first order: the
// queried ids in query order, then the rest. The scan step runs every
// tile against the rows from its first query's position on, so a pair of
// two queried points is scored once, by the earlier tile, which carries
// its query's id forward to the later query. The deliver step, after the
// wave's scan barrier, hands each query its scan hits and its carried ids.
// Either side of a pair decides it exactly as CosineDistanceUnit does, and
// that distance is symmetric bit for bit, so the carried hit is the one
// the later query would have found. Any other index, distance or point
// slice, or a qids that repeats an id, is answered by BatchRangeSearchFunc
// over the gathered queries.
func BatchSelfSearchFunc(ctx context.Context, s RangeSearcher, points [][]float32, qids []int, eps float64, workers, grain, wave int, fn func(i int, ids []int)) error {
	m := len(points)
	if qids != nil {
		m = len(qids)
	}
	if m == 0 {
		return ctx.Err()
	}
	if w := selfJoin(s, points, qids); w != nil {
		defer w.release()
		w.eps, w.fn = eps, fn
		return w.waves(ctx, m, workers, grain, wave)
	}
	queries := points
	if qids != nil {
		queries = make([][]float32, len(qids))
		for i, id := range qids {
			queries[i] = points[id]
		}
	}
	return BatchRangeSearchFunc(ctx, s, queries, eps, workers, grain, wave, fn)
}

// selfJoin returns a pooled scratch set up to self-join the qids of points
// on s, or nil when s is not a unit-cosine BruteForce over those very rows
// or qids repeats an id.
func selfJoin(s RangeSearcher, points [][]float32, qids []int) *waveScratch {
	b, _ := s.(*BruteForce)
	if b == nil || !b.unitCos || len(points) > math.MaxInt32 || !sameRows(b.points, points) {
		return nil
	}
	w := waveScratchPool.Get().(*waveScratch)
	w.s, w.bf, w.join = s, b, true
	if qids == nil {
		w.queries, w.m = points, len(points)
		return w
	}
	if !w.queryFirst(points, qids) {
		w.release()
		return nil
	}
	return w
}

// sameRows reports whether a and b hold the very same rows: as many, and
// each a[i] the slice b[i] itself, not a copy of it.
func sameRows(a, b [][]float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) || len(a[i]) > 0 && &a[i][0] != &b[i][0] {
			return false
		}
	}
	return true
}

// queryFirst lays the rows out in query-first order, qids in order and
// then every other id ascending, as w.queries, with w.order mapping each
// position back to its id. It reports false, leaving nothing marked, when
// qids repeats an id.
func (w *waveScratch) queryFirst(points [][]float32, qids []int) bool {
	n := len(points)
	if len(w.mark) < n {
		w.mark = make([]bool, n)
	}
	order := w.orderBuf[:0]
	for _, id := range qids {
		if w.mark[id] {
			for _, o := range order {
				w.mark[o] = false
			}
			return false
		}
		w.mark[id] = true
		order = append(order, int32(id))
	}
	for id := 0; id < n; id++ {
		if w.mark[id] {
			w.mark[id] = false
		} else {
			order = append(order, int32(id))
		}
	}
	rows := w.rowBuf[:0]
	for _, id := range order {
		rows = append(rows, points[id])
	}
	w.orderBuf, w.rowBuf = order, rows
	w.order, w.queries, w.m = order, rows, len(qids)
	return true
}

// waves is the wave loop of both batch calls: n queries in waves of at
// most wave, with the context checked and progress reported at each
// barrier. A self-join wave scans, carries its pairs forward at the scan
// barrier and then delivers; any other wave delivers as it scans.
func (w *waveScratch) waves(ctx context.Context, n, workers, grain, wave int) error {
	wave = ResolveWaveSize(wave)
	claim := 1
	if grain > 0 {
		claim = (grain + tileSize - 1) / tileSize
	}
	progress := waveProgress(ctx)
	if w.bf != nil {
		if slots := min(wave, n); len(w.bufs) < slots {
			w.bufs = append(w.bufs, make([][]int, slots-len(w.bufs))...)
		}
	}
	if waves := (n + wave - 1) / wave; w.join && len(w.pend) < waves {
		w.pend = append(w.pend, make([][]int32, waves-len(w.pend))...)
	}
	w.wave = wave
	for base := 0; base < n; base += wave {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := min(base+wave, n)
		w.lo, w.hi = base, hi
		tiles := (hi - base + tileSize - 1) / tileSize
		ForEach(tiles, workers, claim, w.run)
		if w.join {
			w.carryForward()
			ForEach(tiles, workers, claim, w.deliver)
		}
		if progress != nil {
			progress(hi - base)
		}
	}
	return nil
}

// waveScratch is the reusable state of one batch call: a result buffer
// per wave slot, the self-join's row order and carried pairs, and the pool
// callbacks, bound once to the scratch so that passing them to ForEach
// allocates nothing.
type waveScratch struct {
	s       RangeSearcher
	bf      *BruteForce // s, when it is one
	queries [][]float32 // or a self-join's rows in query-first order, the first m its queries
	eps     float64
	lo, hi  int // the current wave's queries
	wave    int // the resolved wave size
	fn      func(i int, ids []int)
	bufs    [][]int
	run     func(tile int)

	// The self-join's state. order maps a row position to its id, nil for
	// the identity; the pairs carried to the queries of wave v wait in
	// the chunks pend[v] names, the last one partly filled, and free
	// names the empty chunks; slot k of the current wave has
	// carried[start[k]:start[k+1]].
	join     bool
	m        int
	order    []int32
	pend     [][]int32
	chunks   [][]pair
	free     []int32
	start    []int32
	carried  []int32
	deliver  func(tile int)
	orderBuf []int32
	rowBuf   [][]float32
	mark     []bool
}

// pair is one pair carried forward: id is to be added to the list of the
// query at row position to.
type pair struct{ to, id int32 }

// chunkPairs is the size of the chunks a self-join's pairs wait in for a
// later wave (2 KB). Chunks go back to the free list once their wave is
// gathered, so no pair is ever copied to grow a bucket, and the pairs of
// later waves reuse the memory of earlier ones. Each later wave holds at
// most one chunk that is not full.
const chunkPairs = 256

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
		if w.join {
			// The rows from the tile's own on: the queries of earlier
			// tiles have scored their pairs with it already.
			w.bf.scanTile(bufs, w.queries[lo:hi], w.queries[lo:], w.eps)
			return
		}
		w.bf.scanTile(bufs, w.queries[lo:hi], w.bf.points, w.eps)
		for k, ids := range bufs {
			w.fn(lo+k, ids)
		}
	}
	w.deliver = func(tile int) {
		lo := w.lo + tile*tileSize
		hi := min(lo+tileSize, w.hi)
		for i := lo; i < hi; i++ {
			k := i - w.lo
			ids := w.bufs[k]
			for x, j := range ids {
				ids[x] = w.id(lo + j)
			}
			ids = mergeCarried(ids, w.carried[w.start[k]:w.start[k+1]])
			w.bufs[k] = ids
			w.fn(i, ids)
		}
	}
	return w
}}

// id returns the id of the row at position pos of a self-join.
func (w *waveScratch) id(pos int) int {
	if w.order == nil {
		return pos
	}
	return int(w.order[pos])
}

// carryForward is the self-join's scan barrier. Each query of the wave
// carries its id forward to every query it found in a later tile, which
// does not scan it, and the ids carried to the wave's own queries are
// gathered by slot: first those from earlier waves, then the wave's own,
// each slot's in the order of the queries that carried them. A pair whose
// query is in a later wave waits in that wave's bucket. A query's hits are
// row positions counted from its tile's first, in ascending order.
//
//lafvet:hotpath
func (w *waveScratch) carryForward() {
	// Count each slot's carried ids in start[k+1]; the offsets, the
	// carried ids and the chunks grow pooled buffers, reused call after
	// call.
	slots := w.hi - w.lo
	start := slices.Grow(w.start[:0], slots+1)[:slots+1]
	clear(start)
	early := w.pend[w.lo/w.wave]
	for _, c := range early {
		for _, p := range w.chunks[c] {
			start[int(p.to)-w.lo+1]++
		}
	}
	for i := w.lo; i < w.hi; i++ {
		k := i - w.lo
		lo := w.lo + k - k%tileSize
		end := min(lo+tileSize, w.hi)
		for _, j := range w.bufs[k] {
			pos := lo + j
			if pos < end {
				continue // a query of the tile itself, which scanned i
			}
			if pos >= w.m {
				break // the rows no query scans from
			}
			if pos < w.hi {
				start[pos-w.lo+1]++
			} else {
				w.carryTo(pos, int32(w.id(i)))
			}
		}
	}
	for k := 1; k <= slots; k++ {
		start[k] += start[k-1]
	}
	// Place each id at its slot's cursor, which ends at the next slot's
	// start, then shift the cursors back to the starts.
	carried := slices.Grow(w.carried[:0], int(start[slots]))[:start[slots]]
	for _, c := range early {
		for _, p := range w.chunks[c] {
			k := int(p.to) - w.lo
			carried[start[k]] = p.id
			start[k]++
		}
	}
	w.freeChunks(w.lo / w.wave)
	for i := w.lo; i < w.hi; i++ {
		k := i - w.lo
		lo := w.lo + k - k%tileSize
		end := min(lo+tileSize, w.hi)
		for _, j := range w.bufs[k] {
			pos := lo + j
			if pos < end {
				continue
			}
			if pos >= w.hi {
				break
			}
			carried[start[pos-w.lo]] = int32(w.id(i))
			start[pos-w.lo]++
		}
	}
	copy(start[1:], start[:slots])
	start[0] = 0
	w.start, w.carried = start, carried
}

// carryTo adds the pair of id and the query at position pos, which is in
// a later wave, to that wave's last chunk, or to a fresh one when it is
// full.
//
//lafvet:hotpath
func (w *waveScratch) carryTo(pos int, id int32) {
	b := &w.pend[pos/w.wave]
	if n := len(*b); n == 0 || len(w.chunks[(*b)[n-1]]) == chunkPairs {
		var c int32
		if f := len(w.free); f > 0 {
			c, w.free = w.free[f-1], w.free[:f-1]
		} else {
			w.chunks = append(w.chunks, make([]pair, 0, chunkPairs)) //lafvet:allow hotalloc a new chunk, kept call after call
			c = int32(len(w.chunks) - 1)
		}
		*b = append(*b, c) //lafvet:allow hotalloc grows a pooled chunk list, reused call after call
	}
	c := &w.chunks[(*b)[len(*b)-1]]
	*c = append(*c, pair{int32(pos), id}) //lafvet:allow hotalloc within the chunk's fixed capacity
}

// freeChunks empties the chunks of wave v onto the free list.
func (w *waveScratch) freeChunks(v int) {
	for _, c := range w.pend[v] {
		w.chunks[c] = w.chunks[c][:0]
		w.free = append(w.free, c)
	}
	w.pend[v] = w.pend[v][:0]
}

// mergeCarried returns a query's list: ids, its scan hits, with the
// carried ids added, in ascending order, in ids' storage. Where both are
// ascending, as they are when the queries are every point in id order,
// they merge in one pass from the back; otherwise the list is sorted.
//
//lafvet:hotpath
func mergeCarried(ids []int, carried []int32) []int {
	n := len(ids)
	for _, c := range carried {
		ids = append(ids, int(c)) //lafvet:allow hotalloc grows the pooled slot buffer, reused wave after wave
	}
	if !slices.IsSorted(ids[:n]) || !slices.IsSorted(carried) {
		slices.Sort(ids)
		return ids
	}
	i, j := n-1, len(carried)-1
	for x := len(ids) - 1; j >= 0; x-- {
		if i >= 0 && ids[i] > int(carried[j]) {
			ids[x] = ids[i]
			i--
		} else {
			ids[x] = int(carried[j])
			j--
		}
	}
	return ids
}

// release returns w to the pool, keeping its buffers but no reference to
// the caller's index, points or callback.
func (w *waveScratch) release() {
	// Keep the buffers of one default wave at most: a default-wave call
	// holds that many in flight anyway, while a larger wave's other slots
	// would pin up to wave·Len() ids in the pool.
	if len(w.bufs) > DefaultWaveSize {
		clear(w.bufs[DefaultWaveSize:])
		w.bufs = w.bufs[:DefaultWaveSize]
	}
	clear(w.rowBuf)
	w.s, w.bf, w.queries, w.fn = nil, nil, nil, nil
	for v := range w.pend {
		w.freeChunks(v)
	}
	w.join, w.order, w.rowBuf = false, nil, w.rowBuf[:0]
	waveScratchPool.Put(w)
}
