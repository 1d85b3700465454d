package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"lafdbscan/internal/vecmath"
)

// adam is the Adam optimizer (Kingma & Ba 2015): its coefficients, step
// count and first and second moment estimates, shaped like the network.
type adam struct {
	// coef holds the hyperparameters and, per batch, the step's bias
	// corrections and 1/len(batch).
	coef vecmath.AdamCoef
	t    int
	m, v *Grads
}

// TrainConfig controls Fit.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	// LR is the Adam learning rate; 0 selects 1e-3.
	LR   float64
	Seed int64
	// Verbose, when non-nil, receives one line per epoch.
	Verbose func(epoch int, mse float64)
}

// phase is the work a trainer hands its workers.
type phase uint8

const (
	// gradPhase: each worker backpropagates its part of the batch.
	gradPhase phase = iota
	// updatePhase: each worker sums the gradients and applies Adam to its
	// slice of every parameter tensor.
	updatePhase
	// stopPhase: the workers exit.
	stopPhase
)

// spinFor is how long a waiter polls before it parks: a worker waiting for
// the next phase, or Fit waiting for its workers to finish one. It was
// sized from BenchmarkFit (the estimator's 769->32->16->1 network, batch
// 64) at two workers on a 2-vCPU host. There, 92% of waits end within
// 64 µs and 99.9% within 256 µs: the gap is the lead of one worker's part
// over the other's. A parked waiter takes 64–128 µs to wake, and its
// partner waits that much longer, so parks feed on each other: with
// 50 µs most waits parked and two workers were slower than one, and with
// 250 µs one run in four fell into such a chain and took twice as long.
// At 500 µs a waiter nearly always gets its next phase while it still
// polls; one that waits longer, because the host took its partner's CPU
// say, gives its own CPU up.
const spinFor = 500 * time.Microsecond

// waiter is a goroutine that waits for a condition which other goroutines
// make true: it polls for up to spin, then parks on its channel until one
// of them wakes it.
type waiter struct {
	spin   time.Duration
	parked atomic.Bool
	wake   chan struct{} // holds the token of the one wakeup a parked waiter gets
}

// newWaiter returns a waiter that polls for spinFor when each of the
// trainer's workers can have a CPU of its own. With more workers than
// CPUs, a polling waiter would take the CPU that a worker still running
// its part needs, so it parks at once.
func newWaiter(workers int) *waiter {
	wt := &waiter{wake: make(chan struct{}, 1)}
	if workers <= runtime.NumCPU() {
		wt.spin = spinFor
	}
	return wt
}

// await returns once ready reports true. Whoever makes it true must then
// call wakeup.
func (wt *waiter) await(ready func() bool) {
	for {
		start := time.Now()
		for i := 0; i%64 != 63 || time.Since(start) <= wt.spin; i++ {
			if i%64 == 63 {
				// Let any goroutine queued on this P, another Fit's
				// worker say, run before polling on.
				runtime.Gosched()
			}
			if ready() {
				return
			}
		}
		// Announce the park, then look once more: either this look sees
		// the condition or the waker sees the announcement and sends a
		// token. A token can also come late, from a waker of an earlier
		// round that this waiter did not need, so look again after one.
		wt.parked.Store(true)
		if ready() && wt.parked.CompareAndSwap(true, false) {
			return
		}
		<-wt.wake
	}
}

// wakeup wakes the waiter if it is parked. Call it after making the
// waiter's condition true.
func (wt *waiter) wakeup() {
	if wt.parked.Load() && wt.parked.CompareAndSwap(true, false) {
		wt.wake <- struct{}{}
	}
}

// tensor is one parameter slice (a layer's W or B) with its Adam moments
// and every worker's gradient accumulator for it. layer is set for a W,
// whose packed copy the update rewrites along with it.
type tensor struct {
	p, m, v []float64
	grads   [][]float64
	layer   *Dense
}

// trainer is the state of one Fit call: its workers split each batch's
// samples to compute gradients, then split every parameter tensor to apply
// the update. Worker 0 is the goroutine that called Fit, and hands out
// each phase by publishing it in seq.
type trainer struct {
	n               *Network
	inputs, targets [][]float64
	opt             adam
	grads           []*Grads
	tiles           []*tile
	tensors         []tensor
	// se[w] is worker w's squared error over its part of the batch.
	se []float64

	// seq is the current phase, packed as count<<8 | workers<<4 | phase:
	// count goes up by one per phase, and workers 0..workers-1 take part.
	// A worker runs a phase when it sees seq change, and pending counts
	// the workers other than 0 that have yet to finish it.
	seq     atomic.Uint64
	pending atomic.Int32
	// waiters[w] parks worker w between phases; waiters[0] parks Fit
	// while the others finish.
	waiters []*waiter

	// The current batch, set before each dispatch.
	batch []int
	chunk int
	parts int // workers holding a non-empty part of the batch
}

func newTrainer(n *Network, inputs, targets [][]float64, lr float64, workers int) *trainer {
	t := &trainer{
		n: n, inputs: inputs, targets: targets,
		opt:     adam{coef: vecmath.AdamCoef{Beta1: 0.9, Beta2: 0.999, LR: lr, Eps: 1e-8}, m: NewGrads(n), v: NewGrads(n)},
		grads:   make([]*Grads, workers),
		tiles:   make([]*tile, workers),
		se:      make([]float64, workers),
		waiters: make([]*waiter, workers),
	}
	for w := range t.grads {
		t.grads[w] = NewGrads(n)
		t.tiles[w] = newTile(n)
		t.waiters[w] = newWaiter(workers)
	}
	for li, l := range n.Layers {
		l.pack()
		tw := tensor{p: l.W, m: t.opt.m.W[li], v: t.opt.v.W[li], layer: l}
		tb := tensor{p: l.B, m: t.opt.m.B[li], v: t.opt.v.B[li]}
		for _, g := range t.grads {
			tw.grads = append(tw.grads, g.W[li])
			tb.grads = append(tb.grads, g.B[li])
		}
		t.tensors = append(t.tensors, tw, tb)
	}
	for w := 1; w < workers; w++ {
		go t.work(w)
	}
	return t
}

// work is the loop of worker w > 0: it runs every phase it takes part in
// and exits at stopPhase.
func (t *trainer) work(w int) {
	var seen uint64
	for {
		t.waiters[w].await(func() bool { return t.seq.Load() != seen })
		seen = t.seq.Load()
		ph, k := phase(seen&15), int(seen>>4&15)
		if w < k {
			t.run(w, ph)
			if t.pending.Add(-1) == 0 {
				t.waiters[0].wakeup()
			}
		}
		if ph == stopPhase {
			return
		}
	}
}

// stop ends the workers and returns once each has left its last phase.
func (t *trainer) stop() {
	t.dispatch(stopPhase, len(t.waiters))
}

// dispatch runs ph on workers 0..k-1 and returns when all have finished.
func (t *trainer) dispatch(ph phase, k int) {
	t.pending.Store(int32(k - 1))
	t.seq.Store((t.seq.Load()>>8+1)<<8 | uint64(k)<<4 | uint64(ph))
	for w := 1; w < k; w++ {
		t.waiters[w].wakeup()
	}
	t.run(0, ph)
	t.waiters[0].await(func() bool { return t.pending.Load() == 0 })
}

func (t *trainer) run(w int, ph phase) {
	switch ph {
	case gradPhase:
		t.gradients(w)
	case updatePhase:
		t.update(w)
	}
}

// gradients accumulates worker w's part of the batch into its own Grads,
// four samples to a tile and the last one to three in a shorter tile.
func (t *trainer) gradients(w int) {
	lo := w * t.chunk
	hi := min(lo+t.chunk, len(t.batch))
	g, tl := t.grads[w], t.tiles[w]
	g.Zero()
	var se float64
	for part := t.batch[lo:hi]; len(part) > 0; part = part[tl.k:] {
		tl.k = min(len(part), 4)
		for s, idx := range part[:tl.k] {
			tl.x[s], tl.target[s] = t.inputs[idx], t.targets[idx]
		}
		ses := t.n.backward(tl, g)
		for _, e := range ses[:tl.k] {
			se += e
		}
	}
	t.se[w] = se
}

// update applies Adam to worker w's share of every parameter tensor and
// copies its share of each W into the layer's packed copy. Each gradient
// is ((0 + part 0) + part 1 + …)·Inv: the workers' sums added in worker
// order, then averaged over the batch.
func (t *trainer) update(w int) {
	workers := len(t.grads)
	for i := range t.tensors {
		ts := &t.tensors[i]
		lo, hi := w*len(ts.p)/workers, (w+1)*len(ts.p)/workers
		vecmath.AdamStep(ts.p[lo:hi], ts.m[lo:hi], ts.v[lo:hi], ts.grads[:t.parts], lo, &t.opt.coef)
		if l := ts.layer; l != nil {
			vecmath.Interleave4(l.packed, l.W, l.In, lo, hi)
		}
	}
}

// Fit trains the network to regress targets from inputs with minibatch MSE
// and Adam. It returns the final epoch's mean squared error.
//
// Each batch is split into contiguous parts, one per worker (up to
// min(GOMAXPROCS, 8) workers), whose gradients are computed in parallel;
// the workers then sum the parts in worker order and apply Adam, each to
// its own range of the parameters. A worker backpropagates its part four
// samples at a time, a tile whose samples share every weight load, and
// adds them into each gradient element in sample order, so the tile
// changes no bits. Fit hands each batch's two phases to its workers by
// publishing the phase in an atomic sequence word; a waiting worker (and
// Fit, waiting for the workers) polls it for up to spinFor (500 µs)
// before it parks on a channel, and parks at once when there are more
// workers than CPUs. The workers exit before Fit returns. The result is
// deterministic for a fixed seed and worker count, but the worker count
// decides where the batch is split and so which floating-point sums are
// formed: the trained weights can differ in their low bits between hosts
// with different core counts.
func (n *Network) Fit(inputs [][]float64, targets [][]float64, cfg TrainConfig) (float64, error) {
	if len(inputs) == 0 {
		return 0, fmt.Errorf("nn: empty training set")
	}
	if len(inputs) != len(targets) {
		return 0, fmt.Errorf("nn: %d inputs but %d targets", len(inputs), len(targets))
	}
	for i := range inputs {
		if len(inputs[i]) != n.InDim() || len(targets[i]) != n.OutDim() {
			return 0, fmt.Errorf("nn: sample %d has %d inputs and %d targets, want %d and %d",
				i, len(inputs[i]), len(targets[i]), n.InDim(), n.OutDim())
		}
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 10
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.LR == 0 {
		cfg.LR = 1e-3
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(len(inputs))

	workers := parallelWorkers()
	t := newTrainer(n, inputs, targets, cfg.LR, workers)
	defer t.stop()

	var lastMSE float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochSE float64
		for start := 0; start < len(order); start += cfg.BatchSize {
			t.batch = order[start:min(start+cfg.BatchSize, len(order))]
			t.chunk = (len(t.batch) + workers - 1) / workers
			t.parts = (len(t.batch) + t.chunk - 1) / t.chunk
			t.dispatch(gradPhase, t.parts)
			for _, se := range t.se[:t.parts] {
				epochSE += se
			}

			c := &t.opt.coef
			c.Inv = 1 / float64(len(t.batch))
			t.opt.t++
			c.C1 = 1 - math.Pow(c.Beta1, float64(t.opt.t))
			c.C2 = 1 - math.Pow(c.Beta2, float64(t.opt.t))
			t.dispatch(updatePhase, workers)
		}
		lastMSE = epochSE / float64(len(inputs))
		if cfg.Verbose != nil {
			cfg.Verbose(epoch, lastMSE)
		}
	}
	return lastMSE, nil
}
