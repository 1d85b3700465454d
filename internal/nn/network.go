package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"lafdbscan/internal/vecmath"
)

// Activation identifies a layer nonlinearity.
type Activation int

const (
	// Identity is the linear activation used for output layers.
	Identity Activation = iota
	// ReLU is max(0, x).
	ReLU
	// Sigmoid is 1 / (1 + exp(-x)); handy for outputs bounded in (0, 1).
	Sigmoid
)

func (a Activation) String() string {
	switch a {
	case Identity:
		return "identity"
	case ReLU:
		return "relu"
	case Sigmoid:
		return "sigmoid"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

func (a Activation) apply(x float64) float64 {
	switch a {
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	default:
		return x
	}
}

// derivFromOutput returns f'(x) given y = f(x); all supported activations
// admit this form, which avoids caching pre-activations.
func (a Activation) derivFromOutput(y float64) float64 {
	switch a {
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case Sigmoid:
		return y * (1 - y)
	default:
		return 1
	}
}

// Dense is a fully-connected layer: out = act(W*x + b).
type Dense struct {
	In, Out int
	Act     Activation
	// W is row-major [Out][In]; B has length Out.
	W []float64
	B []float64
	// packed is a copy of W's first Out&^15 rows in the layout of
	// vecmath.Interleave4, which forward reads in blocks of 16 rows. It is
	// not serialized: NewNetwork and Pack build it and Fit keeps it
	// current. A layer without it runs every row from W, with the same bits.
	packed []float64
}

// pack rebuilds the layer's packed copy of W, in place when the layer
// already has one of the right length. A layer copied by value shares its
// original's copy until it is given its own.
func (l *Dense) pack() {
	if size := (l.Out &^ 15) * l.In; len(l.packed) != size {
		l.packed = make([]float64, size)
	}
	vecmath.Interleave4(l.packed, l.W, l.In, 0, len(l.W))
}

// Pack rebuilds every layer's packed copy of its weights, which the
// forward pass reads. NewNetwork and Fit keep the copy current; call Pack
// after decoding a validated network or changing W in place, and not while
// the network is in use.
func (n *Network) Pack() {
	for _, l := range n.Layers {
		l.pack()
	}
}

// Network is a sequence of dense layers.
type Network struct {
	Layers []*Dense
}

// NewNetwork builds a network with the given layer widths, hidden
// activation for all but the last layer, and output activation for the
// last. Weights use He initialization, appropriate for ReLU stacks.
func NewNetwork(widths []int, hidden, output Activation, rng *rand.Rand) *Network {
	if len(widths) < 2 {
		panic("nn: need at least input and output widths")
	}
	n := &Network{}
	for i := 0; i+1 < len(widths); i++ {
		act := hidden
		if i+2 == len(widths) {
			act = output
		}
		layer := &Dense{In: widths[i], Out: widths[i+1], Act: act,
			W: make([]float64, widths[i]*widths[i+1]),
			B: make([]float64, widths[i+1]),
		}
		std := math.Sqrt(2 / float64(widths[i]))
		for j := range layer.W {
			layer.W[j] = rng.NormFloat64() * std
		}
		layer.pack()
		n.Layers = append(n.Layers, layer)
	}
	return n
}

// Validate reports whether n is a well-formed network: at least one layer,
// positive widths, each layer's input width equal to the previous layer's
// output width, W and B of the lengths the widths give, and known
// activations. Networks from NewNetwork always are; a decoded one must be
// checked before its first Forward, which would otherwise panic on a short
// W or read past the end of a layer.
func (n *Network) Validate() error {
	if len(n.Layers) == 0 {
		return fmt.Errorf("nn: network has no layers")
	}
	for li, l := range n.Layers {
		switch {
		case l == nil:
			return fmt.Errorf("nn: layer %d is nil", li)
		case l.In <= 0 || l.Out <= 0:
			return fmt.Errorf("nn: layer %d has widths %d->%d", li, l.In, l.Out)
		case li > 0 && l.In != n.Layers[li-1].Out:
			return fmt.Errorf("nn: layer %d takes %d inputs but layer %d gives %d", li, l.In, li-1, n.Layers[li-1].Out)
		// Division, not In*Out, so huge widths cannot overflow into a match.
		case len(l.W)%l.In != 0 || len(l.W)/l.In != l.Out || len(l.B) != l.Out:
			return fmt.Errorf("nn: layer %d (%d->%d) has %d weights and %d biases", li, l.In, l.Out, len(l.W), len(l.B))
		case l.Act < Identity || l.Act > Sigmoid:
			return fmt.Errorf("nn: layer %d has unknown activation %v", li, l.Act)
		}
	}
	return nil
}

// NumParams returns the total number of trainable parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, l := range n.Layers {
		total += len(l.W) + len(l.B)
	}
	return total
}

// InDim returns the expected input dimension.
func (n *Network) InDim() int { return n.Layers[0].In }

// OutDim returns the output dimension.
func (n *Network) OutDim() int { return n.Layers[len(n.Layers)-1].Out }

// forward computes out[o] = act(B[o] + Σ_i W[o,i]·x[i]) for every output o.
// Each accumulator starts at B[o] and adds W[o,i]*x[i] in increasing i, the
// one summation order every caller has always used, so activations are the
// same bits whichever path computes them. Blocks of 16 rows go to
// vecmath.Affine16, which reads the packed copy of W and holds one row per
// vector lane; the rest go to rows.
//
//lafvet:hotpath
func (l *Dense) forward(x, out []float64) {
	l.check(x, out)
	o := 0
	if l.isPacked() {
		for ; o+16 <= l.Out; o += 16 {
			vecmath.Affine16(l.packed[o*l.In:(o+16)*l.In], x, l.B[o:o+16], out[o:o+16])
			for k, s := range out[o : o+16] {
				out[o+k] = l.Act.apply(s)
			}
		}
	}
	l.rows(x, out, o)
}

// forwardTile is forward for the first k ≤ 4 inputs of a tile: out[s]
// gets x[s]'s activations, forward's bits. The packed rows go eight at a
// time to vecmath.Affine8x4, which reads each weight once for the four
// samples (a short tile repeats x[0] and drops its sums); the rest run per
// sample through rows. A tile of one is forward.
//
//lafvet:hotpath
func (l *Dense) forwardTile(x, out *[4][]float64, k int) {
	if k == 1 {
		l.forward(x[0], out[0])
		return
	}
	xs := *x
	for s := range xs {
		if s >= k {
			xs[s] = xs[0]
			continue
		}
		l.check(xs[s], out[s])
	}
	o := 0
	if l.isPacked() {
		var sums [4][8]float64
		for ; o+8 <= l.Out&^15; o += 8 {
			vecmath.Affine8x4(l.packed[o*l.In:(o+8)*l.In], &xs, l.B[o:o+8], &sums)
			for s := range sums[:k] {
				for r, v := range sums[s] {
					out[s][o+r] = l.Act.apply(v)
				}
			}
		}
	}
	for s := range xs[:k] {
		l.rows(xs[s], out[s], o)
	}
}

// check panics unless x has the layer's input width and out room for its
// outputs.
func (l *Dense) check(x, out []float64) {
	if len(x) != l.In || len(out) < l.Out {
		panic(fmt.Sprintf("nn: layer %d->%d given %d inputs and %d outputs", l.In, l.Out, len(x), len(out)))
	}
}

// isPacked reports whether the layer's packed copy of W is current in
// size, so forward may read its blocks of 16 rows.
func (l *Dense) isPacked() bool { return len(l.packed) == (l.Out&^15)*l.In }

// rows computes forward's outputs o.. from W: four rows share each pass
// over x, so their add chains overlap instead of each waiting on the
// latency of its own previous add, and the last Out%4 run alone.
func (l *Dense) rows(x, out []float64, o int) {
	in := l.In
	for ; o+4 <= l.Out; o += 4 {
		r0 := l.W[o*in : (o+1)*in][:len(x)]
		r1 := l.W[(o+1)*in : (o+2)*in][:len(x)]
		r2 := l.W[(o+2)*in : (o+3)*in][:len(x)]
		r3 := l.W[(o+3)*in : (o+4)*in][:len(x)]
		s0, s1, s2, s3 := l.B[o], l.B[o+1], l.B[o+2], l.B[o+3]
		for i, xi := range x {
			s0 += r0[i] * xi
			s1 += r1[i] * xi
			s2 += r2[i] * xi
			s3 += r3[i] * xi
		}
		out[o] = l.Act.apply(s0)
		out[o+1] = l.Act.apply(s1)
		out[o+2] = l.Act.apply(s2)
		out[o+3] = l.Act.apply(s3)
	}
	for ; o < l.Out; o++ {
		row := l.W[o*in : (o+1)*in][:len(x)]
		s := l.B[o]
		for i, xi := range x {
			s += row[i] * xi
		}
		out[o] = l.Act.apply(s)
	}
}

// run computes every layer's activations into scratch and returns the last.
func (n *Network) run(x []float64, scratch *Scratch) []float64 {
	cur := x
	for li, l := range n.Layers {
		l.forward(cur, scratch.acts[li])
		cur = scratch.acts[li]
	}
	return cur
}

// Forward computes the network output for a single input. The scratch
// argument may be nil; passing a *Scratch avoids per-call allocation in hot
// prediction loops.
func (n *Network) Forward(x []float64, scratch *Scratch) []float64 {
	if scratch == nil {
		scratch = NewScratch(n)
	}
	cur := n.run(x, scratch)
	result := make([]float64, len(cur))
	copy(result, cur)
	return result
}

// Predict1 runs Forward and returns the first output, the common case for
// scalar regression.
func (n *Network) Predict1(x []float64, scratch *Scratch) float64 {
	if scratch == nil {
		scratch = NewScratch(n)
	}
	return n.run(x, scratch)[0]
}

// Scratch holds per-layer activation buffers for one concurrent user of a
// network. Create one per goroutine.
type Scratch struct {
	acts [][]float64 // activation outputs per layer
}

// NewScratch allocates buffers matching the network's layer widths.
func NewScratch(n *Network) *Scratch {
	return &Scratch{acts: layerBufs(n)}
}

// layerBufs returns one buffer per layer, as wide as the layer's output,
// all cut from one allocation.
func layerBufs(n *Network) [][]float64 {
	size := 0
	for _, l := range n.Layers {
		size += l.Out
	}
	slab := make([]float64, size)
	bufs := make([][]float64, len(n.Layers))
	for i, l := range n.Layers {
		bufs[i], slab = slab[:l.Out:l.Out], slab[l.Out:]
	}
	return bufs
}

// Grads holds parameter gradients with the same shapes as the network.
type Grads struct {
	W [][]float64
	B [][]float64
	// deltas are backprop scratch buffers per layer.
	deltas [][]float64
}

// NewGrads allocates a gradient accumulator for n.
func NewGrads(n *Network) *Grads {
	g := &Grads{
		W:      make([][]float64, len(n.Layers)),
		B:      make([][]float64, len(n.Layers)),
		deltas: layerBufs(n),
	}
	for i, l := range n.Layers {
		g.W[i] = make([]float64, len(l.W))
		g.B[i] = make([]float64, len(l.B))
	}
	return g
}

// Zero clears all accumulated gradients.
func (g *Grads) Zero() {
	for i := range g.W {
		for j := range g.W[i] {
			g.W[i][j] = 0
		}
		for j := range g.B[i] {
			g.B[i][j] = 0
		}
	}
}

// BackwardMSE runs a forward pass on x, then backpropagates the gradient of
// 0.5*(pred-target)^2 summed over outputs, accumulating into g. It returns
// the sample's squared error. scratch must belong to the same network.
// It is a tile of one sample.
func (n *Network) BackwardMSE(x, target []float64, scratch *Scratch, g *Grads) float64 {
	t := tile{k: 1}
	t.x[0], t.target[0], t.acts[0], t.deltas[0] = x, target, scratch.acts, g.deltas
	return n.backward(&t, g)[0]
}

// tile is up to four samples that run forward and backward together, so
// each weight read serves all of them: the first k entries of every array
// are in use, and acts[s] and deltas[s] hold sample s's activations and
// deltas, one buffer per layer.
type tile struct {
	k            int
	x, target    [4][]float64
	acts, deltas [4][][]float64
}

// newTile allocates a tile's activation and delta buffers for n.
func newTile(n *Network) *tile {
	t := &tile{}
	for s := range t.acts {
		t.acts[s], t.deltas[s] = layerBufs(n), layerBufs(n)
	}
	return t
}

// input returns sample s's input to layer li.
func (t *tile) input(s, li int) []float64 {
	if li == 0 {
		return t.x[s]
	}
	return t.acts[s][li-1]
}

// backward runs the tile's samples forward, then backpropagates each
// one's gradient of 0.5*(pred-target)^2 into g, and returns their squared
// errors. Every activation, delta and squared error is the one the sample
// gets alone, and every gradient element adds the samples in tile order,
// so a run of tiles leaves g as the same samples one at a time would.
//
//lafvet:hotpath
func (n *Network) backward(t *tile, g *Grads) (se [4]float64) {
	k, last := t.k, len(n.Layers)-1
	var x, out [4][]float64
	for li, l := range n.Layers {
		for s := range x[:k] {
			x[s], out[s] = t.input(s, li), t.acts[s][li]
		}
		l.forwardTile(&x, &out, k)
	}
	act := n.Layers[last].Act
	for s := range se[:k] {
		y, d := t.acts[s][last], t.deltas[s][last]
		for o := range d {
			diff := y[o] - t.target[s][o]
			se[s] += diff * diff
			d[o] = diff * act.derivFromOutput(y[o])
		}
	}
	var d [4][]float64
	for li := last; li >= 0; li-- {
		l := n.Layers[li]
		for s := range x[:k] {
			x[s], d[s] = t.input(s, li), t.deltas[s][li]
		}
		l.accumulate(&x, &d, k, g.W[li], g.B[li])
		if li == 0 {
			break
		}
		// prev_s[i] = (Σ_o d_s[o]·W[o,i]) · f'(x_s[i]), the sum from +0 in
		// increasing o, zero deltas included: AddScaledTile adds four rows
		// of W at a time, in order, with the vector lanes along i.
		lPrev := n.Layers[li-1]
		for s := range x[:k] {
			prev := t.deltas[s][li-1]
			clear(prev)
			for o := 0; o < l.Out; o += 4 {
				var rows [4][]float64
				var ds [4]float64
				m := min(4, l.Out-o)
				for j := range rows[:m] {
					rows[j], ds[j] = l.W[(o+j)*l.In:(o+j+1)*l.In], d[s][o+j]
				}
				vecmath.AddScaledTile(&rows, &ds, m, prev)
			}
			for i, v := range prev {
				prev[i] = v * lPrev.Act.derivFromOutput(x[s][i])
			}
		}
	}
	return se
}

// accumulate adds the layer's parameter gradients for the first k samples
// of a tile, whose inputs are x and deltas d: for each output o, each
// sample s in order whose d[s][o] is not zero adds d[s][o] to gb[o] and
// d[s][o]*x[s][i] to gw[o,i]. A zero delta is skipped per sample (so a
// dead unit's row keeps its exact bits, signed zeros included, and an
// infinite input never meets a zero delta). A row's live samples share one
// pass of vecmath.AddScaledTile over it, which adds them in order, so
// every element gets the bits of a sample-at-a-time loop.
//
//lafvet:hotpath
func (l *Dense) accumulate(x, d *[4][]float64, k int, gw, gb []float64) {
	in := l.In
	for s := range x[:k] {
		if len(x[s]) != in || len(d[s]) < l.Out || len(gw) < in*l.Out || len(gb) < l.Out {
			panic(fmt.Sprintf("nn: layer %d->%d given %d inputs, %d deltas, %d+%d gradients", l.In, l.Out, len(x[s]), len(d[s]), len(gw), len(gb)))
		}
	}
	for o := 0; o < l.Out; o++ {
		var lx [4][]float64
		var ld [4]float64
		live := 0
		for s := range x[:k] {
			if ds := d[s][o]; ds != 0 {
				gb[o] += ds
				lx[live], ld[live] = x[s], ds
				live++
			}
		}
		if live > 0 {
			vecmath.AddScaledTile(&lx, &ld, live, gw[o*in:(o+1)*in])
		}
	}
}

// parallelWorkers caps data-parallel training fan-out.
func parallelWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	if w < 1 {
		w = 1
	}
	return w
}
