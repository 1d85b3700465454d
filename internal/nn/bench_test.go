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
		for i := 0; i < b.N; i++ {
			benchSink = n.BackwardMSE(x, target, s, g)
		}
	})
}
