package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// adam is the Adam optimizer (Kingma & Ba 2015): its hyperparameters, step
// count and first and second moment estimates, shaped like the network.
type adam struct {
	lr, beta1, beta2, eps float64
	t                     int
	m, v                  *Grads
	// c1 and c2 are the current step's bias corrections.
	c1, c2 float64
}

// step applies one Adam step to the parameters p, whose moments are m and v,
// from the per-worker gradient sums parts (each indexed from off, the
// position of p[0] in the full tensor). Each gradient is ((0 + parts[0]) +
// parts[1] + …) · inv: the workers added in worker order, then averaged
// over the batch.
func (a *adam) step(p, m, v []float64, parts [][]float64, off int, inv float64) {
	m, v = m[:len(p)], v[:len(p)]
	for j := range p {
		g := 0.0
		for _, part := range parts {
			g += part[off+j]
		}
		g *= inv
		m[j] = a.beta1*m[j] + (1-a.beta1)*g
		v[j] = a.beta2*v[j] + (1-a.beta2)*g*g
		mh := m[j] / a.c1
		vh := v[j] / a.c2
		p[j] -= a.lr * mh / (math.Sqrt(vh) + a.eps)
	}
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

// phase is the work a trainer hands its workers for one batch.
type phase uint8

const (
	// gradPhase: each worker backpropagates its slice of the batch.
	gradPhase phase = iota
	// updatePhase: each worker sums the gradients and applies Adam to its
	// slice of every parameter tensor.
	updatePhase
)

// tensor is one parameter slice (a layer's W or B) with its Adam moments
// and every worker's gradient accumulator for it.
type tensor struct {
	p, m, v []float64
	grads   [][]float64
}

// trainer is the state of one Fit call: its workers split each batch's
// samples to compute gradients, then split every parameter tensor to apply
// the update. Worker 0 is the goroutine that called Fit.
type trainer struct {
	n               *Network
	inputs, targets [][]float64
	opt             adam
	grads           []*Grads
	scratches       []*Scratch
	tensors         []tensor
	// se[w] is worker w's squared error over its part of the batch.
	se    []float64
	start []chan phase
	done  sync.WaitGroup

	// The current batch, set before each dispatch.
	batch []int
	chunk int
	parts int // workers holding a non-empty part of the batch
	inv   float64
}

func newTrainer(n *Network, inputs, targets [][]float64, lr float64, workers int) *trainer {
	t := &trainer{
		n: n, inputs: inputs, targets: targets,
		opt:       adam{lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, m: NewGrads(n), v: NewGrads(n)},
		grads:     make([]*Grads, workers),
		scratches: make([]*Scratch, workers),
		se:        make([]float64, workers),
		start:     make([]chan phase, workers),
	}
	for w := range t.grads {
		t.grads[w] = NewGrads(n)
		t.scratches[w] = NewScratch(n)
	}
	for li, l := range n.Layers {
		tw := tensor{p: l.W, m: t.opt.m.W[li], v: t.opt.v.W[li]}
		tb := tensor{p: l.B, m: t.opt.m.B[li], v: t.opt.v.B[li]}
		for _, g := range t.grads {
			tw.grads = append(tw.grads, g.W[li])
			tb.grads = append(tb.grads, g.B[li])
		}
		t.tensors = append(t.tensors, tw, tb)
	}
	for w := 1; w < workers; w++ {
		t.start[w] = make(chan phase, 1)
		go t.work(w)
	}
	return t
}

// work is the loop of worker w > 0. It marks done once per phase and once
// more when stop closes its channel.
func (t *trainer) work(w int) {
	for ph := range t.start[w] {
		t.run(w, ph)
		t.done.Done()
	}
	t.done.Done()
}

// stop ends the workers and returns once they have exited.
func (t *trainer) stop() {
	t.done.Add(len(t.start) - 1)
	for _, c := range t.start[1:] {
		close(c)
	}
	t.done.Wait()
}

// dispatch runs ph on workers 0..k-1 and returns when all have finished.
func (t *trainer) dispatch(ph phase, k int) {
	t.done.Add(k - 1)
	for w := 1; w < k; w++ {
		t.start[w] <- ph
	}
	t.run(0, ph)
	t.done.Wait()
}

func (t *trainer) run(w int, ph phase) {
	if ph == gradPhase {
		t.gradients(w)
	} else {
		t.update(w)
	}
}

// gradients accumulates worker w's part of the batch into its own Grads.
func (t *trainer) gradients(w int) {
	lo := w * t.chunk
	hi := min(lo+t.chunk, len(t.batch))
	g := t.grads[w]
	g.Zero()
	var se float64
	for _, idx := range t.batch[lo:hi] {
		se += t.n.BackwardMSE(t.inputs[idx], t.targets[idx], t.scratches[w], g)
	}
	t.se[w] = se
}

// update applies Adam to worker w's share of every parameter tensor.
func (t *trainer) update(w int) {
	workers := len(t.grads)
	for i := range t.tensors {
		ts := &t.tensors[i]
		lo, hi := w*len(ts.p)/workers, (w+1)*len(ts.p)/workers
		t.opt.step(ts.p[lo:hi], ts.m[lo:hi], ts.v[lo:hi], ts.grads[:t.parts], lo, t.inv)
	}
}

// Fit trains the network to regress targets from inputs with minibatch MSE
// and Adam. It returns the final epoch's mean squared error.
//
// Each batch is split into contiguous parts, one per worker (up to
// min(GOMAXPROCS, 8) workers), whose gradients are computed in parallel;
// the workers then sum the parts in worker order and apply Adam, each to
// its own range of the parameters. The result is deterministic for a fixed
// seed and worker count, but the worker count decides where the batch is
// split and so which floating-point sums are formed: the trained weights
// can differ in their low bits between hosts with different core counts.
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

			t.inv = 1 / float64(len(t.batch))
			t.opt.t++
			t.opt.c1 = 1 - math.Pow(t.opt.beta1, float64(t.opt.t))
			t.opt.c2 = 1 - math.Pow(t.opt.beta2, float64(t.opt.t))
			t.dispatch(updatePhase, workers)
		}
		lastMSE = epochSE / float64(len(inputs))
		if cfg.Verbose != nil {
			cfg.Verbose(epoch, lastMSE)
		}
	}
	return lastMSE, nil
}
