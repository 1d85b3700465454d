package vecmath

import (
	"fmt"
	"math"
)

// Metric identifies a distance function over vectors.
type Metric int

const (
	// Cosine is the angular distance 1 - cos(u, v), bounded in [0, 2].
	// This is the metric the paper's framework targets.
	Cosine Metric = iota
	// Euclidean is the L2 distance, unbounded.
	Euclidean
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case Cosine:
		return "cosine"
	case Euclidean:
		return "euclidean"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// DistanceFunc is the signature shared by all pairwise distances.
type DistanceFunc func(a, b []float32) float64

// Func returns the distance function for the metric. Cosine maps to
// CosineDistanceUnit, not CosineDistance: every dataset in this repository
// is normalized on creation, and IsCosineUnit recognizes that function to
// send range scans to the exact float32 kernel.
func (m Metric) Func() DistanceFunc {
	switch m {
	case Cosine:
		return CosineDistanceUnit
	case Euclidean:
		return EuclideanDistance
	default:
		panic("vecmath: unknown metric " + m.String())
	}
}

// CosineDistance returns 1 - cos(a, b), clamped to [0, 2]. For the zero
// vector the cosine is treated as 0, giving distance 1 (maximally
// uninformative), so the function is total.
//
//lafvet:hotpath
func CosineDistance(a, b []float32) float64 {
	dot := Dot(a, b)
	na := SquaredNorm(a)
	nb := SquaredNorm(b)
	if na == 0 || nb == 0 {
		return 1
	}
	d := 1 - dot/math.Sqrt(na*nb)
	if d < 0 {
		return 0
	}
	if d > 2 {
		return 2
	}
	return d
}

// CosineDistanceUnit returns 1 - <a, b> assuming both vectors already have
// unit norm. All datasets in this repository are normalized on creation, so
// the hot clustering loops use this variant to skip the norm computation.
//
//lafvet:hotpath
func CosineDistanceUnit(a, b []float32) float64 {
	d := 1 - Dot(a, b)
	if d < 0 {
		return 0
	}
	if d > 2 {
		return 2
	}
	return d
}

// EuclideanDistance returns the L2 distance between a and b.
//
//lafvet:hotpath
func EuclideanDistance(a, b []float32) float64 {
	return math.Sqrt(SquaredEuclidean(a, b))
}

// SquaredEuclidean returns the squared L2 distance between a and b.
//
//lafvet:hotpath
func SquaredEuclidean(a, b []float32) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: distance of mismatched lengths %d and %d", len(a), len(b)))
	}
	var s0, s1 float64
	i := 0
	for ; i+2 <= len(a); i += 2 {
		d0 := float64(a[i]) - float64(b[i])
		d1 := float64(a[i+1]) - float64(b[i+1])
		s0 += d0 * d0
		s1 += d1 * d1
	}
	if i < len(a) {
		d := float64(a[i]) - float64(b[i])
		s0 += d * d
	}
	return s0 + s1
}

// CosineToEuclidean converts a cosine-distance threshold to the equivalent
// Euclidean threshold for unit vectors (Equation 1 of the paper):
// d_euc = sqrt(2 * d_cos).
func CosineToEuclidean(dcos float64) float64 {
	if dcos < 0 {
		panic("vecmath: negative cosine distance")
	}
	return math.Sqrt(2 * dcos)
}

// EuclideanToCosine is the inverse of CosineToEuclidean for unit vectors:
// d_cos = d_euc^2 / 2.
func EuclideanToCosine(deuc float64) float64 {
	if deuc < 0 {
		panic("vecmath: negative euclidean distance")
	}
	return deuc * deuc / 2
}
