package nn

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// This file keeps the original row-at-a-time implementation of the forward
// pass, backpropagation, the per-batch gradient sum and Adam as a reference:
// the blocked kernels and the fused update must reproduce it bit for bit.

func refForward(n *Network, x []float64, scratch *Scratch) []float64 {
	cur := x
	for li, l := range n.Layers {
		out := scratch.acts[li]
		for o := 0; o < l.Out; o++ {
			s := l.B[o]
			row := l.W[o*l.In : (o+1)*l.In]
			for i, xi := range cur {
				s += row[i] * xi
			}
			out[o] = l.Act.apply(s)
		}
		cur = out
	}
	result := make([]float64, len(cur))
	copy(result, cur)
	return result
}

func refBackwardMSE(n *Network, x, target []float64, scratch *Scratch, g *Grads) float64 {
	refForward(n, x, scratch)
	last := len(n.Layers) - 1
	var se float64
	for o := range g.deltas[last] {
		diff := scratch.acts[last][o] - target[o]
		se += diff * diff
		g.deltas[last][o] = diff * n.Layers[last].Act.derivFromOutput(scratch.acts[last][o])
	}
	for li := last; li >= 0; li-- {
		l := n.Layers[li]
		var input []float64
		if li == 0 {
			input = x
		} else {
			input = scratch.acts[li-1]
		}
		delta := g.deltas[li]
		for o := 0; o < l.Out; o++ {
			d := delta[o]
			if d == 0 {
				continue
			}
			g.B[li][o] += d
			gw := g.W[li][o*l.In : (o+1)*l.In]
			for i, xi := range input {
				gw[i] += d * xi
			}
		}
		if li > 0 {
			prev := g.deltas[li-1]
			prevAct := scratch.acts[li-1]
			lPrev := n.Layers[li-1]
			for i := 0; i < l.In; i++ {
				var s float64
				for o := 0; o < l.Out; o++ {
					s += delta[o] * l.W[o*l.In+i]
				}
				prev[i] = s * lPrev.Act.derivFromOutput(prevAct[i])
			}
		}
	}
	return se
}

func refAdd(g, other *Grads) {
	for i := range g.W {
		for j := range g.W[i] {
			g.W[i][j] += other.W[i][j]
		}
		for j := range g.B[i] {
			g.B[i][j] += other.B[i][j]
		}
	}
}

type refAdam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	mW, vW, mB, vB        [][]float64
}

func (a *refAdam) Step(n *Network, g *Grads) {
	if a.mW == nil {
		a.mW = make([][]float64, len(n.Layers))
		a.vW = make([][]float64, len(n.Layers))
		a.mB = make([][]float64, len(n.Layers))
		a.vB = make([][]float64, len(n.Layers))
		for i, l := range n.Layers {
			a.mW[i] = make([]float64, len(l.W))
			a.vW[i] = make([]float64, len(l.W))
			a.mB[i] = make([]float64, len(l.B))
			a.vB[i] = make([]float64, len(l.B))
		}
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, l := range n.Layers {
		update := func(w []float64, gw, m, v []float64) {
			for j := range w {
				m[j] = a.Beta1*m[j] + (1-a.Beta1)*gw[j]
				v[j] = a.Beta2*v[j] + (1-a.Beta2)*gw[j]*gw[j]
				mh := m[j] / c1
				vh := v[j] / c2
				w[j] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
			}
		}
		update(l.W, g.W[i], a.mW[i], a.vW[i])
		update(l.B, g.B[i], a.mB[i], a.vB[i])
	}
}

// refFit is the original training loop. Its workers add their squared
// errors in worker order, the order Fit now guarantees; the gradient sum
// was always in worker order. It also returns, for the tiles Fit forms (a
// part's samples four at a time from its start), how many times a
// layer-0 row had each number 0–4 of samples with a non-zero delta, the
// samples that Fit's tile kernel adds into the row together.
func refFit(n *Network, inputs, targets [][]float64, cfg TrainConfig) (float64, [5]int) {
	opt := &refAdam{LR: cfg.LR, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(len(inputs))
	workers := parallelWorkers()
	grads := make([]*Grads, workers)
	scratches := make([]*Scratch, workers)
	ses := make([]float64, workers)
	lives := make([][5]int, workers)
	for w := range grads {
		grads[w] = NewGrads(n)
		scratches[w] = NewScratch(n)
	}
	total := NewGrads(n)
	var lastMSE float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochSE float64
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			var wg sync.WaitGroup
			chunk := (len(batch) + workers - 1) / workers
			for w := 0; w < workers; w++ {
				lo := w * chunk
				if lo >= len(batch) {
					break
				}
				hi := min(lo+chunk, len(batch))
				wg.Add(1)
				go func(w, lo, hi int) {
					defer wg.Done()
					grads[w].Zero()
					var se float64
					live := make([]int, n.Layers[0].Out)
					for j, idx := range batch[lo:hi] {
						se += refBackwardMSE(n, inputs[idx], targets[idx], scratches[w], grads[w])
						for o, d := range grads[w].deltas[0] {
							if d != 0 {
								live[o]++
							}
						}
						if j%4 == 3 || lo+j+1 == hi {
							for o, c := range live {
								lives[w][c]++
								live[o] = 0
							}
						}
					}
					ses[w] = se
				}(w, lo, hi)
			}
			wg.Wait()
			total.Zero()
			for w := 0; w < workers; w++ {
				if w*chunk >= len(batch) {
					break
				}
				epochSE += ses[w]
				refAdd(total, grads[w])
			}
			inv := 1 / float64(len(batch))
			for i := range total.W {
				for j := range total.W[i] {
					total.W[i][j] *= inv
				}
				for j := range total.B[i] {
					total.B[i][j] *= inv
				}
			}
			opt.Step(n, total)
		}
		lastMSE = epochSE / float64(len(inputs))
	}
	var live [5]int
	for _, l := range lives {
		for c, k := range l {
			live[c] += k
		}
	}
	return lastMSE, live
}

// sameBits reports whether a and b are the same float64, counting any NaN
// equal to any other NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func assertSameSlice(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func assertSameNetwork(t *testing.T, got, want *Network) {
	t.Helper()
	for li := range want.Layers {
		assertSameSlice(t, "layer W", got.Layers[li].W, want.Layers[li].W)
		assertSameSlice(t, "layer B", got.Layers[li].B, want.Layers[li].B)
	}
}

func cloneNetwork(n *Network) *Network {
	c := &Network{}
	for _, l := range n.Layers {
		d := *l
		d.W = append([]float64(nil), l.W...)
		d.B = append([]float64(nil), l.B...)
		d.packed = append([]float64(nil), l.packed...) // Fit rewrites it in place
		c.Layers = append(c.Layers, &d)
	}
	return c
}

// testNetwork builds in -> out -> 2 with a ReLU hidden layer whose every
// third unit is dead (a large negative bias), so backpropagation sees zero
// deltas next to live ones.
func testNetwork(in, out int, hidden Activation, rng *rand.Rand) *Network {
	n := NewNetwork([]int{in, out, 2}, hidden, Identity, rng)
	for o := range n.Layers[0].B {
		n.Layers[0].B[o] = rng.NormFloat64()
		if o%3 == 1 {
			n.Layers[0].B[o] = -1e6
		}
	}
	return n
}

// testInputs returns ordinary inputs and inputs carrying -0, ±Inf and NaN.
func testInputs(in int, rng *rand.Rand) [][]float64 {
	var xs [][]float64
	for k := 0; k < 6; k++ {
		x := make([]float64, in)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		switch k {
		case 1:
			x[0] = math.Copysign(0, -1)
		case 2:
			x[in-1] = math.Inf(1)
		case 3:
			x[in/2] = math.Inf(-1)
		case 4:
			x[rng.Intn(in)] = math.NaN()
		case 5:
			for i := range x {
				x[i] = math.Copysign(0, -1)
			}
		}
		xs = append(xs, x)
	}
	return xs
}

func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, in := range []int{1, 3, 4, 5, 769} {
		for _, out := range []int{1, 2, 3, 4, 5, 8, 16, 17, 20, 32, 33} {
			for _, act := range []Activation{ReLU, Sigmoid, Identity} {
				n := testNetwork(in, out, act, rng)
				single := &Network{Layers: n.Layers[:1]}
				target := []float64{0.25, math.Copysign(0, -1)}
				s, rs := NewScratch(n), NewScratch(n)
				g, rg := NewGrads(n), NewGrads(n)
				for _, x := range testInputs(in, rng) {
					assertSameSlice(t, "Forward", n.Forward(x, s), refForward(n, x, rs))
					assertSameSlice(t, "single-layer Forward", single.Forward(x, s), refForward(single, x, rs))
					p := n.Predict1(x, s)
					if want := refForward(n, x, rs)[0]; !sameBits(p, want) {
						t.Fatalf("in=%d out=%d %v: Predict1 = %v, want %v", in, out, act, p, want)
					}
					// Accumulate over all inputs, so the kernel adds into
					// gradients that are already non-zero.
					se := n.BackwardMSE(x, target, s, g)
					if want := refBackwardMSE(n, x, target, rs, rg); !sameBits(se, want) {
						t.Fatalf("in=%d out=%d %v: BackwardMSE = %v, want %v", in, out, act, se, want)
					}
					for li := range n.Layers {
						assertSameSlice(t, "grad W", g.W[li], rg.W[li])
						assertSameSlice(t, "grad B", g.B[li], rg.B[li])
						assertSameSlice(t, "delta", g.deltas[li], rg.deltas[li])
					}
				}
			}
		}
	}
}

// TestFitMatchesReference trains with a ragged last batch at several
// worker counts, including ones that leave workers without a part of the
// last batch and split tensors unevenly, then predicts with the result.
// The small shapes run 101 samples in batches of 16 (the last batch of 5
// makes 1/len(batch) inexact); the estimator's own 769->32->16->1 shape
// runs them in batches of 22, whose parts are not multiples of four, so
// every worker count ends some part with a short tile, and the test checks
// that layer-0 rows with every live count 0–4 occurred in a tile.
func TestFitMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(12))
	samples := func(in int) (inputs, targets [][]float64) {
		inputs = make([][]float64, 101)
		targets = make([][]float64, 101)
		for i := range inputs {
			x := make([]float64, in)
			for j := range x {
				x[j] = rng.NormFloat64()
			}
			inputs[i] = x
			targets[i] = []float64{rng.Float64()}
		}
		return inputs, targets
	}
	// The second shape has 16-row blocks, whose packed weights every
	// worker rewrites for its own range of W after each step; the third is
	// the estimator's.
	for _, tc := range []struct {
		widths []int
		batch  int
	}{
		{[]int{40, 8, 4, 1}, 16},
		{[]int{40, 33, 17, 1}, 16},
		{[]int{769, 32, 16, 1}, 22},
	} {
		inputs, targets := samples(tc.widths[0])
		cfg := TrainConfig{Epochs: 3, BatchSize: tc.batch, LR: 2e-3, Seed: 5}
		base := NewNetwork(tc.widths, ReLU, Sigmoid, rng)
		var live [5]int
		for _, procs := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(procs)
			got, want := cloneNetwork(base), cloneNetwork(base)
			mse, err := got.Fit(inputs, targets, cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantMSE, l := refFit(want, inputs, targets, cfg)
			if !sameBits(mse, wantMSE) {
				t.Fatalf("widths %v GOMAXPROCS=%d: MSE %v, want %v", tc.widths, procs, mse, wantMSE)
			}
			assertSameNetwork(t, got, want)
			// The packed copy Fit left behind is the trained W's.
			x := inputs[procs]
			assertSameSlice(t, "Forward after Fit", got.Forward(x, nil), refForward(got, x, NewScratch(got)))
			for c, k := range l {
				live[c] += k
			}
		}
		if tc.widths[0] == 769 {
			for c, k := range live {
				if k == 0 {
					t.Errorf("widths %v: no layer-0 row had %d live samples in a tile (counts %v)", tc.widths, c, live)
				}
			}
		}
	}
}

// TestFitAllocationsIndependentOfEpochs pins the per-batch step as
// allocation-free: more epochs (and so more batches) allocate nothing more.
func TestFitAllocationsIndependentOfEpochs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	inputs := make([][]float64, 64)
	targets := make([][]float64, 64)
	for i := range inputs {
		inputs[i] = []float64{rng.Float64(), rng.Float64()}
		targets[i] = []float64{rng.Float64()}
	}
	n := NewNetwork([]int{2, 8, 1}, ReLU, Identity, rng)
	allocs := func(epochs int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := n.Fit(inputs, targets, TrainConfig{Epochs: epochs, BatchSize: 8}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := allocs(1), allocs(8); many != one {
		t.Errorf("Fit allocates %v times for 1 epoch but %v for 8", one, many)
	}
}
