package vecmath

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b. It panics if the lengths differ;
// mixing dimensions is always a programming error in this repository.
//
//lafvet:hotpath
func Dot(a, b []float32) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: dot of mismatched lengths %d and %d", len(a), len(b)))
	}
	if haveAVX2 {
		return dotAVX2(a, b)
	}
	return dotGeneric(a, b)
}

// dotGeneric is Dot in Go: four float64 accumulators, the tail added to s0,
// and the sum s0+s1+s2+s3 left to right. len(b) must equal len(a).
//
//lafvet:hotpath
func dotGeneric(a, b []float32) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += float64(a[i]) * float64(b[i])
		s1 += float64(a[i+1]) * float64(b[i+1])
		s2 += float64(a[i+2]) * float64(b[i+2])
		s3 += float64(a[i+3]) * float64(b[i+3])
	}
	for ; i < len(a); i++ {
		s0 += float64(a[i]) * float64(b[i])
	}
	return s0 + s1 + s2 + s3
}

// Norm returns the L2 norm of v.
//
//lafvet:hotpath
func Norm(v []float32) float64 {
	return math.Sqrt(SquaredNorm(v))
}

// SquaredNorm returns the squared L2 norm of v.
//
//lafvet:hotpath
func SquaredNorm(v []float32) float64 {
	var s0, s1 float64
	i := 0
	for ; i+2 <= len(v); i += 2 {
		s0 += float64(v[i]) * float64(v[i])
		s1 += float64(v[i+1]) * float64(v[i+1])
	}
	if i < len(v) {
		s0 += float64(v[i]) * float64(v[i])
	}
	return s0 + s1
}

// Normalize scales v in place to unit L2 norm and returns v. The zero vector
// is left unchanged (there is no direction to normalize to).
//
//lafvet:hotpath
func Normalize(v []float32) []float32 {
	n := Norm(v)
	if n == 0 {
		return v
	}
	inv := float32(1 / n)
	for i := range v {
		v[i] *= inv
	}
	return v
}

// Normalized returns a unit-norm copy of v, leaving v unchanged.
func Normalized(v []float32) []float32 {
	out := make([]float32, len(v))
	copy(out, v)
	return Normalize(out)
}

// IsUnit reports whether v has unit norm within tol.
func IsUnit(v []float32, tol float64) bool {
	return math.Abs(Norm(v)-1) <= tol
}

// Add returns a+b as a fresh vector.
func Add(a, b []float32) []float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: add of mismatched lengths %d and %d", len(a), len(b)))
	}
	out := make([]float32, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Sub returns a-b as a fresh vector.
func Sub(a, b []float32) []float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: sub of mismatched lengths %d and %d", len(a), len(b)))
	}
	out := make([]float32, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// AXPY computes y += alpha*x in place.
//
//lafvet:hotpath
func AXPY(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("vecmath: axpy of mismatched lengths %d and %d", len(x), len(y)))
	}
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies v by alpha in place and returns v.
//
//lafvet:hotpath
func Scale(alpha float32, v []float32) []float32 {
	for i := range v {
		v[i] *= alpha
	}
	return v
}

// Mean returns the arithmetic mean of the given vectors. It panics when the
// input is empty or ragged.
func Mean(vs [][]float32) []float32 {
	if len(vs) == 0 {
		panic("vecmath: mean of no vectors")
	}
	dim := len(vs[0])
	acc := make([]float64, dim)
	for _, v := range vs {
		if len(v) != dim {
			panic("vecmath: mean of ragged vectors")
		}
		for i, x := range v {
			acc[i] += float64(x)
		}
	}
	out := make([]float32, dim)
	inv := 1 / float64(len(vs))
	for i, s := range acc {
		out[i] = float32(s * inv)
	}
	return out
}

// Clone returns a copy of v.
func Clone(v []float32) []float32 {
	out := make([]float32, len(v))
	copy(out, v)
	return out
}
