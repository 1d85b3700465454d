package nn

import (
	"math/rand"
	"testing"
)

var benchSink float64

// BenchmarkDense measures one sample through the estimator's default
// 769->32->16->1 network (a 768-d embedding plus the radius): "forward" is
// the prediction the clustering gate makes per point, "backward" is one
// sample's training work.
func BenchmarkDense(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := NewNetwork([]int{769, 32, 16, 1}, ReLU, Sigmoid, rng)
	x := make([]float64, 769)
	for i := range x {
		x[i] = rng.NormFloat64() / 28
	}
	target := []float64{0.5}
	s := NewScratch(n)
	b.Run("forward", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = n.Predict1(x, s)
		}
	})
	b.Run("backward", func(b *testing.B) {
		g := NewGrads(n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink = n.BackwardMSE(x, target, s, g)
		}
	})
}

// BenchmarkFit measures one Fit of the estimator's default 769->32->16->1
// network on 640 samples in batches of 64, four epochs: forward passes,
// backpropagation, the hand-off of each batch's two phases to the workers
// and Adam. Run it with -cpu 1,2 to see what the second worker buys.
func BenchmarkFit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base := NewNetwork([]int{769, 32, 16, 1}, ReLU, Sigmoid, rng)
	inputs := make([][]float64, 640)
	targets := make([][]float64, len(inputs))
	for i := range inputs {
		x := make([]float64, 769)
		for j := range x {
			x[j] = rng.NormFloat64() / 28
		}
		inputs[i] = x
		targets[i] = []float64{rng.Float64()}
	}
	cfg := TrainConfig{Epochs: 4, BatchSize: 64, LR: 1e-3, Seed: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		n := cloneNetwork(base)
		b.StartTimer()
		mse, err := n.Fit(inputs, targets, cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = mse
	}
}
