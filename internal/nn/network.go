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
// vector lane; the last Out%16 rows (all of them in a layer without a
// packed copy) share passes over x four at a time, so their add chains
// overlap instead of each waiting on the latency of its own previous add.
//
//lafvet:hotpath
func (l *Dense) forward(x, out []float64) {
	if len(x) != l.In || len(out) < l.Out {
		panic(fmt.Sprintf("nn: layer %d->%d given %d inputs and %d outputs", l.In, l.Out, len(x), len(out)))
	}
	in := l.In
	o := 0
	if len(l.packed) == (l.Out&^15)*in {
		for ; o+16 <= l.Out; o += 16 {
			vecmath.Affine16(l.packed[o*in:(o+16)*in], x, l.B[o:o+16], out[o:o+16])
			for k, s := range out[o : o+16] {
				out[o+k] = l.Act.apply(s)
			}
		}
	}
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
	s := &Scratch{acts: make([][]float64, len(n.Layers))}
	for i, l := range n.Layers {
		s.acts[i] = make([]float64, l.Out)
	}
	return s
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
		deltas: make([][]float64, len(n.Layers)),
	}
	for i, l := range n.Layers {
		g.W[i] = make([]float64, len(l.W))
		g.B[i] = make([]float64, len(l.B))
		g.deltas[i] = make([]float64, l.Out)
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
func (n *Network) BackwardMSE(x, target []float64, scratch *Scratch, g *Grads) float64 {
	n.run(x, scratch)
	// output delta
	last := len(n.Layers) - 1
	var se float64
	for o := range g.deltas[last] {
		diff := scratch.acts[last][o] - target[o]
		se += diff * diff
		g.deltas[last][o] = diff * n.Layers[last].Act.derivFromOutput(scratch.acts[last][o])
	}
	// backprop
	for li := last; li >= 0; li-- {
		l := n.Layers[li]
		input := x
		if li > 0 {
			input = scratch.acts[li-1]
		}
		delta := g.deltas[li]
		l.accumulate(input, delta, g.W[li], g.B[li])
		if li > 0 {
			// prev[i] = (Σ_o delta[o]·W[o,i]) · f'(act[i]), the sum from +0
			// in increasing o, built one row of W at a time so the vector
			// lanes run along i.
			prev := g.deltas[li-1]
			prevAct := scratch.acts[li-1]
			lPrev := n.Layers[li-1]
			clear(prev)
			for o, do := range delta[:l.Out] {
				vecmath.AddScaled(l.W[o*l.In:(o+1)*l.In], do, prev)
			}
			for i, s := range prev {
				prev[i] = s * lPrev.Act.derivFromOutput(prevAct[i])
			}
		}
	}
	return se
}

// accumulate adds the layer's parameter gradients for one sample: d[o] into
// gb[o] and d[o]*x[i] into gw[o,i], skipping every output whose delta is
// zero (so a dead unit's row keeps its exact bits, signed zeros included,
// and an infinite input never meets a zero delta). Every element is
// updated once with the same product as a row-at-a-time loop, so the
// result does not depend on the blocking: four live rows share each pass
// of vecmath.AddScaled4 over x, whose vector lanes run along i, and the
// last live rows go one at a time through vecmath.AddScaled.
//
//lafvet:hotpath
func (l *Dense) accumulate(x, d, gw, gb []float64) {
	if len(x) != l.In || len(d) < l.Out || len(gw) < l.In*l.Out || len(gb) < l.Out {
		panic(fmt.Sprintf("nn: layer %d->%d given %d inputs, %d deltas, %d+%d gradients", l.In, l.Out, len(x), len(d), len(gw), len(gb)))
	}
	in := l.In
	var live [4]int
	k := 0
	for o, do := range d[:l.Out] {
		if do == 0 {
			continue
		}
		gb[o] += do
		live[k] = o
		if k++; k < len(live) {
			continue
		}
		k = 0
		o0, o1, o2, o3 := live[0], live[1], live[2], live[3]
		vecmath.AddScaled4(x, d[o0], d[o1], d[o2], d[o3],
			gw[o0*in:(o0+1)*in], gw[o1*in:(o1+1)*in], gw[o2*in:(o2+1)*in], gw[o3*in:(o3+1)*in])
	}
	for _, o := range live[:k] {
		vecmath.AddScaled(x, d[o], gw[o*in:(o+1)*in])
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
