package vecmath

import (
	"fmt"
	"math"
	"reflect"
)

// maxFastNorm caps the norm product of the float32 fast pass: below it no
// float32 product or partial sum can overflow (every |q_i·p_i| and every
// partial sum is at most ‖q‖·‖p‖, within a factor 1+γ), so the
// rounding-error bound of CosineUnitBound holds.
const maxFastNorm = 0x1p100

// IsCosineUnit reports whether f is CosineDistanceUnit itself: the one
// distance whose threshold tests the float32 kernels (AppendCosineUnitRange,
// CosineUnitLess) decide exactly. A wrapper around it reports false.
func IsCosineUnit(f DistanceFunc) bool { return SameDistance(f, CosineDistanceUnit) }

// SameDistance reports whether f and g are the same function. Two wrappers
// around one function are different functions.
func SameDistance(f, g DistanceFunc) bool {
	return reflect.ValueOf(f).Pointer() == reflect.ValueOf(g).Pointer()
}

// CosineUnitBound returns the bound CosineUnitLess needs for vectors of
// length dim whose norms multiply to at most scale, and false when scale is
// NaN, infinite or past maxFastNorm, where the float32 pass must not run
// and each pair goes to CosineDistanceUnit instead.
//
// The float32 dot product's error against the exact one is at most
// γ·Σ|q_i·p_i| ≤ γ·scale (Higham's bound for recursive summation: each of
// dot32's eight accumulators sums dim/8 products, the tail adds at most
// seven more and the final tree three, each product rounds once), with
// γ = n·u/(1−n·u), u = 2⁻²⁴ and n ≤ dim/8 + 11. The bound doubles u, which
// covers the denominator and the far smaller float64 error of the
// reference Dot, takes n = dim/8 + 16, and adds 2⁻²³ for float32 underflow
// and the float64 subtraction 1 − dot in both the fast pass and the
// reference. Clamping to [0, 2] cannot widen a gap, so a fast distance
// farther than the bound from a threshold is on the same side of it as the
// exact one. The AVX2 kernels, dot32 and every lane of dot32x4, keep
// dot32Generic's eight-accumulator order and roundings bit for bit, so the
// bound covers them unchanged.
func CosineUnitBound(dim int, scale float64) (float64, bool) {
	if !(scale <= maxFastNorm) {
		return 0, false
	}
	return float64(dim/8+16)*0x1p-23*scale + 0x1p-23, true
}

// CosineUnitLess reports whether CosineDistanceUnit(q, p) < t, for any t,
// unit-norm inputs or not. It decides with the float32 dot product and
// recomputes the exact distance only when the fast one is within bound of
// t, or NaN. bound must come from CosineUnitBound(len(q), scale) with
// Norm(q)·Norm(p) ≤ scale.
//
//lafvet:hotpath
func CosineUnitLess(q, p []float32, t, bound float64) bool {
	return unitLess(dot32(q, p), q, p, t, bound)
}

// unitLess is CosineUnitLess given dot = dot32(q, p): the distance the
// float32 dot product implies, replaced by CosineDistanceUnit(q, p) when
// it is within bound of t or NaN. An infinite bound decides every pair
// with CosineDistanceUnit.
//
//lafvet:hotpath
func unitLess(dot float32, q, p []float32, t, bound float64) bool {
	d := 1 - float64(dot)
	if d < 0 {
		d = 0
	} else if d > 2 {
		d = 2
	}
	if !(math.Abs(d-t) > bound) { // near t, or NaN
		d = CosineDistanceUnit(q, p)
	}
	return d < t
}

// scanBound is the bound unitLess needs for q against points of norm at
// most maxNorm: CosineUnitBound's, or +Inf where the float32 pass must not
// run, so that every pair of q goes to CosineDistanceUnit.
func scanBound(q []float32, maxNorm float64) float64 {
	if bound, fast := CosineUnitBound(len(q), Norm(q)*maxNorm); fast {
		return bound
	}
	return math.Inf(1)
}

// AppendCosineUnitRange appends to dst, in increasing order, every j with
// CosineDistanceUnit(q, pts[j]) < eps, and returns the extended slice. The
// decisions are exactly those of the per-pair CosineDistanceUnit loop for
// any input, unit-norm or not; maxNorm must be at least the largest
// Norm(pts[j]) (a larger value only costs speed). Every pair is decided by
// unitLess, with the float32 dot products of q and four rows at a time
// from one dot32x4 call; a NaN or infinite ‖q‖·maxNorm, or one past
// maxFastNorm, sends every pair to CosineDistanceUnit.
//
//lafvet:hotpath
func AppendCosineUnitRange(dst []int, q []float32, pts [][]float32, eps, maxNorm float64) []int {
	bound := scanBound(q, maxNorm)
	var dot [4]float32
	j := 0
	for ; j+4 <= len(pts); j += 4 {
		p := pts[j : j+4 : j+4]
		dot32x4(q, p[0], p[1], p[2], p[3], &dot)
		for k, d := range dot {
			if unitLess(d, q, p[k], eps, bound) {
				dst = append(dst, j+k) //lafvet:allow hotalloc appends to the caller's reused buffer
			}
		}
	}
	for ; j < len(pts); j++ {
		if CosineUnitLess(q, pts[j], eps, bound) {
			dst = append(dst, j) //lafvet:allow hotalloc appends to the caller's reused buffer
		}
	}
	return dst
}

// AppendCosineUnitRange4 is AppendCosineUnitRange for a tile of four
// queries: it appends to dst[k], in increasing order, every j with
// CosineDistanceUnit(q[k], pts[j]) < eps. Each row is scored against the
// four queries by one dot32x4 call while it is in cache, and each pair is
// decided as AppendCosineUnitRange decides it, so dst[k] gets exactly the
// ids AppendCosineUnitRange(dst[k], q[k], pts, eps, maxNorm) would append.
//
//lafvet:hotpath
func AppendCosineUnitRange4(dst *[4][]int, q *[4][]float32, pts [][]float32, eps, maxNorm float64) {
	var bound [4]float64
	for k, qk := range q {
		bound[k] = scanBound(qk, maxNorm)
	}
	var dot [4]float32
	for j, p := range pts {
		dot32x4(p, q[0], q[1], q[2], q[3], &dot)
		for k, d := range dot {
			if unitLess(d, q[k], p, eps, bound[k]) {
				dst[k] = append(dst[k], j) //lafvet:allow hotalloc appends to the caller's reused buffer
			}
		}
	}
}

// dot32 is the float32 inner product of the fast pass. It runs the AVX2
// kernel where the CPU has one and dot32Generic elsewhere; both give the
// same bits.
//
//lafvet:hotpath
func dot32(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: dot of mismatched lengths %d and %d", len(a), len(b)))
	}
	if haveAVX2 {
		return dot32AVX2(a, b)
	}
	return dot32Generic(a, b)
}

// dot32x4 sets out[k] to dot32(a, bk) for the four bk, bit for bit: the
// AVX2 kernel runs dot32AVX2's operations once per bk and loads each block
// of a once for the four; elsewhere it is four dot32Generic calls.
//
//lafvet:hotpath
func dot32x4(a, b0, b1, b2, b3 []float32, out *[4]float32) {
	if n := len(a); len(b0) != n || len(b1) != n || len(b2) != n || len(b3) != n {
		panic(fmt.Sprintf("vecmath: dot of length %d with lengths %d, %d, %d and %d", n, len(b0), len(b1), len(b2), len(b3)))
	}
	if haveAVX2 {
		dot32x4AVX2(a, b0, b1, b2, b3, out)
		return
	}
	out[0] = dot32Generic(a, b0)
	out[1] = dot32Generic(a, b1)
	out[2] = dot32Generic(a, b2)
	out[3] = dot32Generic(a, b3)
}

// dot32Generic is dot32 in Go: eight independent accumulators, so the adds
// pipeline, and slices resliced to the checked length, so the loop carries
// no bounds checks. The tail adds to s0, and the final sum is a fixed tree;
// CosineUnitBound counts exactly these roundings. len(b) must equal len(a).
//
//lafvet:hotpath
func dot32Generic(a, b []float32) float32 {
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	for len(a) >= 8 {
		a8, b8 := a[:8:8], b[:8:8]
		s0 += a8[0] * b8[0]
		s1 += a8[1] * b8[1]
		s2 += a8[2] * b8[2]
		s3 += a8[3] * b8[3]
		s4 += a8[4] * b8[4]
		s5 += a8[5] * b8[5]
		s6 += a8[6] * b8[6]
		s7 += a8[7] * b8[7]
		a, b = a[8:], b[8:]
	}
	b = b[:len(a)]
	for i, x := range a {
		s0 += x * b[i]
	}
	return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
}
