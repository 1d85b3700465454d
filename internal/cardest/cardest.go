package cardest

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"lafdbscan/internal/index"
	"lafdbscan/internal/rmi"
	"lafdbscan/internal/vecmath"
)

// Estimator predicts the number of dataset points within radius eps of q,
// without executing the range query. Implementations must be safe for
// concurrent use unless documented otherwise.
type Estimator interface {
	// Estimate returns the predicted cardinality of {p : d(q, p) < eps}.
	Estimate(q []float32, eps float64) float64
	// Name identifies the estimator in reports.
	Name() string
}

// Exact counts neighbors with a real range query. It exists so tests can
// verify LAF's plumbing (with an exact oracle and alpha = 1, LAF-DBSCAN must
// reproduce DBSCAN exactly) and so ablations can separate "estimator error"
// from "framework overhead".
type Exact struct {
	Index *index.BruteForce
}

// Estimate implements Estimator.
func (e *Exact) Estimate(q []float32, eps float64) float64 {
	return float64(e.Index.RangeCount(q, eps))
}

// Name implements Estimator.
func (e *Exact) Name() string { return "exact" }

// Sampling estimates cardinality by exact-counting within a fixed uniform
// sample and scaling up, the classical sampling baseline.
type Sampling struct {
	sample [][]float32
	dist   vecmath.DistanceFunc
	scale  float64
}

// NewSampling draws a sample of size m from points (the reference set whose
// cardinalities are being estimated).
func NewSampling(points [][]float32, dist vecmath.DistanceFunc, m int, rng *rand.Rand) *Sampling {
	if m <= 0 {
		panic("cardest: sample size must be positive")
	}
	if m > len(points) {
		m = len(points)
	}
	perm := rng.Perm(len(points))[:m]
	s := &Sampling{dist: dist, scale: float64(len(points)) / float64(m)}
	for _, i := range perm {
		s.sample = append(s.sample, points[i])
	}
	return s
}

// Estimate implements Estimator.
func (s *Sampling) Estimate(q []float32, eps float64) float64 {
	count := 0
	for _, p := range s.sample {
		if s.dist(q, p) < eps {
			count++
		}
	}
	return float64(count) * s.scale
}

// Name implements Estimator.
func (s *Sampling) Name() string { return "sampling" }

// Histogram is an anchor-based density estimator: it keeps per-anchor
// histograms of distances from the anchor to every reference point and
// answers a query from the histogram of the query's nearest anchor. It is
// the kernel-density-style traditional baseline.
type Histogram struct {
	anchors [][]float32
	dist    vecmath.DistanceFunc
	binW    float64
	// hist[a][b] is the number of reference points whose distance to
	// anchor a falls in bin b; cumulative over b.
	cum [][]float64
}

// NewHistogram builds the estimator with k anchors and the given bin width
// over the distance range [0, maxDist).
func NewHistogram(points [][]float32, dist vecmath.DistanceFunc, k int, binW, maxDist float64, rng *rand.Rand) *Histogram {
	if k <= 0 || binW <= 0 || maxDist <= 0 {
		panic("cardest: invalid histogram parameters")
	}
	if k > len(points) {
		k = len(points)
	}
	bins := int(math.Ceil(maxDist/binW)) + 1
	h := &Histogram{dist: dist, binW: binW}
	perm := rng.Perm(len(points))[:k]
	for _, i := range perm {
		h.anchors = append(h.anchors, points[i])
	}
	h.cum = make([][]float64, len(h.anchors))
	for a, anchor := range h.anchors {
		counts := make([]float64, bins)
		for _, p := range points {
			b := int(dist(anchor, p) / binW)
			if b >= bins {
				b = bins - 1
			}
			counts[b]++
		}
		for b := 1; b < bins; b++ {
			counts[b] += counts[b-1]
		}
		h.cum[a] = counts
	}
	return h
}

// Estimate implements Estimator.
func (h *Histogram) Estimate(q []float32, eps float64) float64 {
	best, bestD := 0, math.Inf(1)
	for a, anchor := range h.anchors {
		if d := h.dist(q, anchor); d < bestD {
			best, bestD = a, d
		}
	}
	// Cardinality at radius eps around q approximated by the anchor's
	// cumulative distance distribution at eps.
	b := int(eps / h.binW)
	cum := h.cum[best]
	if b >= len(cum) {
		b = len(cum) - 1
	}
	if b < 0 {
		return 0
	}
	return cum[b]
}

// Name implements Estimator.
func (h *Histogram) Name() string { return "histogram" }

// RMIEstimator adapts a trained rmi.RMI to the Estimator interface, scaling
// predictions from the training reference size to the clustering target
// size (the paper trains on the 80% split and clusters the 20% split).
// It is safe for concurrent use: prediction scratch is pooled.
type RMIEstimator struct {
	Model *rmi.RMI
	// Scale multiplies raw predictions; set to targetN / trainN when the
	// clustering set differs in size from the training reference set.
	Scale float64
	pool  sync.Pool
}

// NewRMIEstimator wraps a trained model with the given scale (use 1 when
// clustering the same set the counts were computed on).
func NewRMIEstimator(model *rmi.RMI, scale float64) *RMIEstimator {
	e := &RMIEstimator{Model: model, Scale: scale}
	e.pool.New = func() interface{} { return model.NewScratch() }
	return e
}

// Estimate implements Estimator.
func (e *RMIEstimator) Estimate(q []float32, eps float64) float64 {
	s := e.pool.Get().(*rmi.Scratch)
	v := e.Model.EstimateWith(q, eps, s) * e.Scale
	e.pool.Put(s)
	return v
}

// Name implements Estimator.
func (e *RMIEstimator) Name() string { return "rmi" }

// ConstantEstimator always answers the same value; tests use it to force
// all-core or all-stop predictions.
type ConstantEstimator struct{ Value float64 }

// Estimate implements Estimator.
func (c *ConstantEstimator) Estimate([]float32, float64) float64 { return c.Value }

// Name implements Estimator.
func (c *ConstantEstimator) Name() string { return fmt.Sprintf("const(%g)", c.Value) }

// BuildTrainingSet computes exact cardinalities for every (point, radius)
// pair over the reference set, the label-generation step of the paper's
// estimator pipeline ("we construct the training set using cosine distance
// thresholds from 0.1 to 0.9"). Distances are computed once per pair and
// reused across radii. maxQueries > 0 subsamples the query points to bound
// the quadratic cost.
func BuildTrainingSet(points [][]float32, dist vecmath.DistanceFunc, radii []float64, maxQueries int, rng *rand.Rand) []rmi.Example {
	return BuildTrainingSetAgainst(points, points, dist, radii, maxQueries, rng)
}

// BuildTrainingSetAgainst is BuildTrainingSet with a separate reference set:
// queries are drawn from points but cardinalities are counted within
// reference. Training against a reference subsample whose size matches the
// set that will be clustered removes the scale-extrapolation bias of
// multiplying a log-space regressor's output by targetN/trainN.
func BuildTrainingSetAgainst(points, reference [][]float32, dist vecmath.DistanceFunc, radii []float64, maxQueries int, rng *rand.Rand) []rmi.Example {
	if len(radii) == 0 {
		panic("cardest: no radii")
	}
	queryIdx := make([]int, len(points))
	for i := range queryIdx {
		queryIdx[i] = i
	}
	if maxQueries > 0 && maxQueries < len(points) {
		rng.Shuffle(len(queryIdx), func(i, j int) { queryIdx[i], queryIdx[j] = queryIdx[j], queryIdx[i] })
		queryIdx = queryIdx[:maxQueries]
	}
	examples := make([]rmi.Example, len(queryIdx)*len(radii))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	chunk := (len(queryIdx) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(queryIdx) {
			break
		}
		hi := lo + chunk
		if hi > len(queryIdx) {
			hi = len(queryIdx)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			counts := make([]int, len(radii))
			for k := lo; k < hi; k++ {
				q := points[queryIdx[k]]
				for i := range counts {
					counts[i] = 0
				}
				for _, p := range reference {
					d := dist(q, p)
					for ri, r := range radii {
						if d < r {
							counts[ri]++
						}
					}
				}
				for ri, r := range radii {
					examples[k*len(radii)+ri] = rmi.Example{Vector: q, Radius: r, Count: counts[ri]}
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	return examples
}

// DefaultRadii is the paper's training threshold grid: 0.1 through 0.9.
func DefaultRadii() []float64 {
	return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
}

var (
	_ Estimator = (*Exact)(nil)
	_ Estimator = (*Sampling)(nil)
	_ Estimator = (*Histogram)(nil)
	_ Estimator = (*RMIEstimator)(nil)
	_ Estimator = (*ConstantEstimator)(nil)
)
