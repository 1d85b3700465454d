package vecmath

import (
	"fmt"
	"math"
)

// maxFastNorm caps ‖q‖·maxNorm on the float32 fast pass of
// AppendCosineUnitRange: below it no float32 product or partial sum can
// overflow (every |q_i·p_i| and every partial sum is at most ‖q‖·‖p‖,
// within a factor 1+γ), so the rounding-error bound holds.
const maxFastNorm = 0x1p100

// AppendCosineUnitRange appends to dst, in increasing order, every j with
// CosineDistanceUnit(q, pts[j]) < eps, and returns the extended slice. The
// decisions are exactly those of the per-pair CosineDistanceUnit loop for
// any input, unit-norm or not; maxNorm must be at least the largest
// Norm(pts[j]) (a larger value only costs speed). A NaN or infinite
// ‖q‖·maxNorm, or one past maxFastNorm, runs the per-pair loop.
//
// The fast pass accumulates the dot product in float32. Its error against
// the exact dot product is at most γ·Σ|q_i·p_i| ≤ γ·‖q‖·maxNorm (Higham's
// bound for recursive summation: each of the eight accumulators sums
// len(q)/8 products, the tail adds at most seven more and the final tree
// three, each product rounds once), with γ = n·u/(1−n·u), u = 2⁻²⁴ and
// n ≤ len(q)/8 + 11. The bound below doubles u, which covers the
// denominator and the far smaller float64 error of the reference Dot,
// takes n = len(q)/8 + 16, and adds 2⁻²³ for float32 underflow and the
// float64 subtraction 1 − dot in both the fast pass and the reference.
// Clamping to [0, 2] cannot widen a gap, so a fast distance farther than
// that bound from eps is on the same side of eps as the exact one; a pair
// within the bound, or a NaN, is decided by CosineDistanceUnit itself.
//
//lafvet:hotpath
func AppendCosineUnitRange(dst []int, q []float32, pts [][]float32, eps, maxNorm float64) []int {
	scale := Norm(q) * maxNorm
	if !(scale <= maxFastNorm) {
		for j, p := range pts {
			if CosineDistanceUnit(q, p) < eps {
				dst = append(dst, j) //lafvet:allow hotalloc appends to the caller's reused buffer
			}
		}
		return dst
	}
	bound := float64(len(q)/8+16)*0x1p-23*scale + 0x1p-23
	for j, p := range pts {
		d := 1 - float64(dot32(q, p))
		if d < 0 {
			d = 0
		} else if d > 2 {
			d = 2
		}
		if !(math.Abs(d-eps) > bound) { // near eps, or NaN
			d = CosineDistanceUnit(q, p)
		}
		if d < eps {
			dst = append(dst, j) //lafvet:allow hotalloc appends to the caller's reused buffer
		}
	}
	return dst
}

// dot32 is the float32 inner product of the fast pass: eight independent
// accumulators, so the adds pipeline, and slices resliced to the checked
// length, so the loop carries no bounds checks.
//
//lafvet:hotpath
func dot32(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: dot of mismatched lengths %d and %d", len(a), len(b)))
	}
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
