package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestActivations(t *testing.T) {
	if ReLU.apply(-2) != 0 || ReLU.apply(3) != 3 {
		t.Error("ReLU wrong")
	}
	if Identity.apply(-2) != -2 {
		t.Error("Identity wrong")
	}
	if s := Sigmoid.apply(0); math.Abs(s-0.5) > 1e-12 {
		t.Errorf("Sigmoid(0) = %v", s)
	}
	if ReLU.derivFromOutput(0) != 0 || ReLU.derivFromOutput(2) != 1 {
		t.Error("ReLU deriv wrong")
	}
	if d := Sigmoid.derivFromOutput(0.5); math.Abs(d-0.25) > 1e-12 {
		t.Errorf("Sigmoid deriv = %v", d)
	}
	if Identity.derivFromOutput(7) != 1 {
		t.Error("Identity deriv wrong")
	}
	for _, a := range []Activation{Identity, ReLU, Sigmoid, Activation(9)} {
		if a.String() == "" {
			t.Error("empty activation name")
		}
	}
}

func TestNewNetworkShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := NewNetwork([]int{5, 8, 3, 1}, ReLU, Identity, rng)
	if len(n.Layers) != 3 {
		t.Fatalf("layers = %d", len(n.Layers))
	}
	if n.InDim() != 5 || n.OutDim() != 1 {
		t.Errorf("dims %d -> %d", n.InDim(), n.OutDim())
	}
	want := 5*8 + 8 + 8*3 + 3 + 3*1 + 1
	if n.NumParams() != want {
		t.Errorf("NumParams = %d, want %d", n.NumParams(), want)
	}
	if n.Layers[0].Act != ReLU || n.Layers[2].Act != Identity {
		t.Error("activations misassigned")
	}
}

func TestNewNetworkPanicsOnShortWidths(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewNetwork([]int{3}, ReLU, Identity, rand.New(rand.NewSource(1)))
}

func TestForwardKnownValues(t *testing.T) {
	// Hand-built 2-1 linear network: y = 2*x0 - x1 + 0.5
	n := &Network{Layers: []*Dense{{
		In: 2, Out: 1, Act: Identity,
		W: []float64{2, -1}, B: []float64{0.5},
	}}}
	got := n.Forward([]float64{3, 4}, nil)
	if len(got) != 1 || math.Abs(got[0]-2.5) > 1e-12 {
		t.Errorf("Forward = %v, want [2.5]", got)
	}
	if p := n.Predict1([]float64{3, 4}, nil); math.Abs(p-2.5) > 1e-12 {
		t.Errorf("Predict1 = %v", p)
	}
}

func TestForwardReLUClamps(t *testing.T) {
	n := &Network{Layers: []*Dense{{
		In: 1, Out: 1, Act: ReLU,
		W: []float64{1}, B: []float64{0},
	}}}
	if got := n.Predict1([]float64{-5}, nil); got != 0 {
		t.Errorf("ReLU output = %v", got)
	}
}

// Gradient check: numerical vs analytical gradients on a small network.
func TestBackwardMSEGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := NewNetwork([]int{3, 4, 2}, Sigmoid, Identity, rng)
	x := []float64{0.3, -0.7, 1.1}
	target := []float64{0.2, -0.4}

	scratch := NewScratch(n)
	g := NewGrads(n)
	n.BackwardMSE(x, target, scratch, g)

	loss := func() float64 {
		out := n.Forward(x, scratch)
		var se float64
		for i := range out {
			d := out[i] - target[i]
			se += d * d
		}
		return se / 2 // BackwardMSE deltas correspond to 1/2 sum (y-t)^2
	}
	const h = 1e-6
	for li, l := range n.Layers {
		for j := 0; j < len(l.W); j += 3 { // spot-check a third of the weights
			old := l.W[j]
			l.W[j] = old + h
			up := loss()
			l.W[j] = old - h
			down := loss()
			l.W[j] = old
			numeric := (up - down) / (2 * h)
			if math.Abs(numeric-g.W[li][j]) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("layer %d weight %d: numeric %v vs analytic %v", li, j, numeric, g.W[li][j])
			}
		}
		for j := range l.B {
			old := l.B[j]
			l.B[j] = old + h
			up := loss()
			l.B[j] = old - h
			down := loss()
			l.B[j] = old
			numeric := (up - down) / (2 * h)
			if math.Abs(numeric-g.B[li][j]) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("layer %d bias %d: numeric %v vs analytic %v", li, j, numeric, g.B[li][j])
			}
		}
	}
}

func TestGradsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := NewNetwork([]int{2, 2, 1}, ReLU, Identity, rng)
	g := NewGrads(n)
	g.W[0][0] = 1
	g.B[1][0] = 2
	g.Zero()
	if g.W[0][0] != 0 || g.B[1][0] != 0 {
		t.Error("Zero failed")
	}
}

func TestFitLearnsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const samples = 400
	inputs := make([][]float64, samples)
	targets := make([][]float64, samples)
	for i := range inputs {
		x0, x1 := rng.Float64()*2-1, rng.Float64()*2-1
		inputs[i] = []float64{x0, x1}
		targets[i] = []float64{0.7*x0 - 0.3*x1 + 0.1}
	}
	n := NewNetwork([]int{2, 16, 1}, ReLU, Identity, rng)
	mse, err := n.Fit(inputs, targets, TrainConfig{Epochs: 60, BatchSize: 32, LR: 5e-3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if mse > 1e-3 {
		t.Errorf("final MSE %v too high", mse)
	}
	got := n.Predict1([]float64{0.5, -0.5}, nil)
	want := 0.7*0.5 + 0.3*0.5 + 0.1
	if math.Abs(got-want) > 0.05 {
		t.Errorf("prediction %v, want ~%v", got, want)
	}
}

func TestFitLearnsNonlinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const samples = 500
	inputs := make([][]float64, samples)
	targets := make([][]float64, samples)
	for i := range inputs {
		x := rng.Float64()*2 - 1
		inputs[i] = []float64{x}
		targets[i] = []float64{x * x}
	}
	n := NewNetwork([]int{1, 24, 24, 1}, ReLU, Identity, rng)
	mse, err := n.Fit(inputs, targets, TrainConfig{Epochs: 120, BatchSize: 50, LR: 5e-3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if mse > 5e-3 {
		t.Errorf("x^2 MSE %v too high", mse)
	}
}

func TestFitErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := NewNetwork([]int{1, 1}, ReLU, Identity, rng)
	if _, err := n.Fit(nil, nil, TrainConfig{}); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := n.Fit([][]float64{{1}}, nil, TrainConfig{}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := n.Fit([][]float64{{1, 2}}, [][]float64{{1}}, TrainConfig{}); err == nil {
		t.Error("input of the wrong width accepted")
	}
	if _, err := n.Fit([][]float64{{1}}, [][]float64{{1, 2}}, TrainConfig{}); err == nil {
		t.Error("target of the wrong width accepted")
	}
}

// TestFitDeterministicForSeed trains the same network twice: every weight
// and the returned MSE must match bit for bit, whatever order the workers
// finish in.
func TestFitDeterministicForSeed(t *testing.T) {
	build := func() (*Network, float64) {
		rng := rand.New(rand.NewSource(7))
		inputs := make([][]float64, 100)
		targets := make([][]float64, 100)
		for i := range inputs {
			x := rng.Float64()
			inputs[i] = []float64{x, 1 - x}
			targets[i] = []float64{2 * x}
		}
		n := NewNetwork([]int{2, 4, 1}, ReLU, Identity, rng)
		mse, err := n.Fit(inputs, targets, TrainConfig{Epochs: 5, BatchSize: 10, LR: 0.01, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return n, mse
	}
	a, mseA := build()
	for run := 0; run < 5; run++ {
		b, mseB := build()
		if math.Float64bits(mseA) != math.Float64bits(mseB) {
			t.Fatalf("run %d: MSE %v, first run %v", run, mseB, mseA)
		}
		assertSameNetwork(t, b, a)
	}
}

// TestAdamStepMovesTowardMinimum minimizes (w*1 + b - 0)^2 from a nonzero
// start, one sample per batch.
func TestAdamStepMovesTowardMinimum(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := NewNetwork([]int{1, 1}, Identity, Identity, rng)
	n.Layers[0].W[0] = 2
	n.Layers[0].B[0] = 1
	if _, err := n.Fit([][]float64{{1}}, [][]float64{{0}}, TrainConfig{Epochs: 500, BatchSize: 1, LR: 0.05}); err != nil {
		t.Fatal(err)
	}
	if out := n.Predict1([]float64{1}, nil); math.Abs(out) > 0.05 {
		t.Errorf("Adam failed to converge, output %v", out)
	}
}

func TestVerboseCallback(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := NewNetwork([]int{1, 1}, Identity, Identity, rng)
	calls := 0
	_, err := n.Fit([][]float64{{1}, {2}}, [][]float64{{1}, {2}}, TrainConfig{
		Epochs: 3, BatchSize: 2, Verbose: func(int, float64) { calls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("verbose called %d times", calls)
	}
}
