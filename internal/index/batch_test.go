package index

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"lafdbscan/internal/vecmath"
)

func batchTestPoints(n, dim int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float32, n)
	for i := range pts {
		pts[i] = vecmath.RandomUnit(dim, rng)
	}
	return pts
}

func TestForEachCoversAllIndexes(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 7} {
		for _, n := range []int{0, 1, 5, 100, 1000} {
			var hits atomic.Int64
			seen := make([]atomic.Int32, n)
			ForEach(n, workers, 8, func(i int) {
				hits.Add(1)
				seen[i].Add(1)
			})
			if hits.Load() != int64(n) {
				t.Fatalf("workers=%d n=%d: %d invocations", workers, n, hits.Load())
			}
			for i := range seen {
				if seen[i].Load() != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, seen[i].Load())
				}
			}
		}
	}
}
