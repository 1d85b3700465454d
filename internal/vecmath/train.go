package vecmath

import (
	"fmt"
	"math"
)

// The float64 kernels below are the inner loops of the estimator's neural
// network (internal/nn): a dense layer's forward pass, its weight-gradient
// update and Adam's parameter step. Like Dot, each dispatches to an AVX2
// kernel of kernel_amd64.s that performs the Go loop's operations in the Go
// loop's order, one independent chain per vector lane and no fused
// multiply-add, so the results are the Go loop's bits on every host.

// Interleave4 copies the row-major weights w[lo:hi] of a matrix with in
// columns into dst, the layout Affine16 reads: rows interleaved by four,
// so W[o, i] goes to dst[(o/4)·4·in + 4·i + o%4]. dst holds the first
// len(dst)/in rows, a multiple of four; elements of w past them are not
// copied. Callers that own disjoint ranges of w may run concurrently.
func Interleave4(dst, w []float64, in, lo, hi int) {
	if in <= 0 || len(dst)%(4*in) != 0 || lo < 0 || hi > len(w) {
		panic(fmt.Sprintf("vecmath: interleaving [%d, %d) of %d weights with %d columns into %d", lo, hi, len(w), in, len(dst)))
	}
	hi = min(hi, len(dst))
	for lo < hi {
		o, i := lo/in, lo%in
		if i == 0 && o%4 == 0 && lo+4*in <= hi {
			// A whole group of four rows: contiguous stores.
			g := dst[lo : lo+4*in]
			r0, r1, r2, r3 := w[lo:lo+in], w[lo+in:lo+2*in], w[lo+2*in:lo+3*in], w[lo+3*in:lo+4*in]
			for k, x := range r0 {
				q := g[4*k : 4*k+4]
				q[0], q[1], q[2], q[3] = x, r1[k], r2[k], r3[k]
			}
			lo += 4 * in
			continue
		}
		end := min(hi, (o+1)*in)
		blk := dst[(o/4)*4*in+o%4:]
		for _, x := range w[lo:end] {
			blk[4*i] = x
			i++
		}
		lo = end
	}
}

// Affine16 sets out[r] = b[r] + Σ_i W[r, i]·x[i] for the 16 rows of one
// block of a dense layer, where w is the block's 16·len(x) weights in
// Interleave4's layout. Each row's sum starts at b[r] and adds
// W[r, i]·x[i] in increasing i: rounded multiply, then rounded add.
//
//lafvet:hotpath
func Affine16(w, x, b, out []float64) {
	if len(w) != 16*len(x) || len(b) < 16 || len(out) < 16 {
		panic(fmt.Sprintf("vecmath: 16-row block given %d weights, %d inputs, %d biases and %d outputs", len(w), len(x), len(b), len(out)))
	}
	if haveAVX2 {
		affine16AVX2(w, x, b, out)
		return
	}
	affine16Generic(w, x, b, out)
}

// affine16Generic is Affine16 in Go: four rows, one accumulator each, per
// pass over x, so their add chains overlap.
//
//lafvet:hotpath
func affine16Generic(w, x, b, out []float64) {
	n := len(x)
	for g := 0; g < 4; g++ {
		blk := w[4*g*n : 4*(g+1)*n][:4*len(x)]
		s0, s1, s2, s3 := b[4*g], b[4*g+1], b[4*g+2], b[4*g+3]
		for i, xi := range x {
			r := blk[4*i : 4*i+4]
			s0 += r[0] * xi
			s1 += r[1] * xi
			s2 += r[2] * xi
			s3 += r[3] * xi
		}
		out[4*g], out[4*g+1], out[4*g+2], out[4*g+3] = s0, s1, s2, s3
	}
}

// AddScaled4 adds d_k·x[i] to r_k[i] for the four rows k and every i < len(x):
// one rounded multiply and one rounded add per element.
//
//lafvet:hotpath
func AddScaled4(x []float64, d0, d1, d2, d3 float64, r0, r1, r2, r3 []float64) {
	n := len(x)
	r0, r1, r2, r3 = r0[:n], r1[:n], r2[:n], r3[:n]
	k := 0
	if haveAVX2 {
		k = n &^ 3
		addScaled4AVX2(x[:k], d0, d1, d2, d3, r0, r1, r2, r3)
	}
	addScaled4Generic(x[k:], d0, d1, d2, d3, r0[k:], r1[k:], r2[k:], r3[k:])
}

// addScaled4Generic is AddScaled4 in Go.
//
//lafvet:hotpath
func addScaled4Generic(x []float64, d0, d1, d2, d3 float64, r0, r1, r2, r3 []float64) {
	r0, r1, r2, r3 = r0[:len(x)], r1[:len(x)], r2[:len(x)], r3[:len(x)]
	for i, xi := range x {
		r0[i] += d0 * xi
		r1[i] += d1 * xi
		r2[i] += d2 * xi
		r3[i] += d3 * xi
	}
}

// AddScaled is AddScaled4 for one row: r[i] += d·x[i] for every i < len(x).
//
//lafvet:hotpath
func AddScaled(x []float64, d float64, r []float64) {
	n := len(x)
	r = r[:n]
	k := 0
	if haveAVX2 {
		k = n &^ 3
		addScaledAVX2(x[:k], d, r)
	}
	addScaledGeneric(x[k:], d, r[k:])
}

// addScaledGeneric is AddScaled in Go.
//
//lafvet:hotpath
func addScaledGeneric(x []float64, d float64, r []float64) {
	r = r[:len(x)]
	for i, xi := range x {
		r[i] += d * xi
	}
}

// AdamCoef holds one Adam step's coefficients. The kernel of
// kernel_amd64.s reads the fields at fixed offsets, so their order is
// part of its contract.
type AdamCoef struct {
	Beta1, Beta2 float64
	// C1 and C2 are the step's bias corrections, 1 − Beta1^t and 1 − Beta2^t.
	C1, C2  float64
	LR, Eps float64
	// Inv scales the summed gradient: 1 / the batch size.
	Inv float64
}

// AdamStep applies one Adam step to the parameters p, whose first and
// second moments are m and v. The gradient of p[j] is
// ((0 + parts[0][off+j]) + parts[1][off+j] + …)·Inv, the parts added in
// order; then
//
//	m[j] = Beta1·m[j] + (1 − Beta1)·g
//	v[j] = Beta2·v[j] + ((1 − Beta2)·g)·g
//	p[j] -= (LR·(m[j]/C1)) / (√(v[j]/C2) + Eps)
//
// with every operation rounded once, as Go evaluates the expressions
// (1 − Beta1 included: a float64 subtraction, not an exact constant).
//
//lafvet:hotpath
func AdamStep(p, m, v []float64, parts [][]float64, off int, c *AdamCoef) {
	n := len(p)
	m, v = m[:n], v[:n]
	for _, part := range parts {
		_ = part[off : off+n]
	}
	k := 0
	if haveAVX2 {
		k = n &^ 3
		adamStepAVX2(p[:k], m, v, parts, off, c)
	}
	adamStepGeneric(p[k:], m[k:], v[k:], parts, off+k, c)
}

// adamStepGeneric is AdamStep in Go.
//
//lafvet:hotpath
func adamStepGeneric(p, m, v []float64, parts [][]float64, off int, c *AdamCoef) {
	m, v = m[:len(p)], v[:len(p)]
	for j := range p {
		g := 0.0
		for _, part := range parts {
			g += part[off+j]
		}
		g *= c.Inv
		m[j] = c.Beta1*m[j] + (1-c.Beta1)*g
		v[j] = c.Beta2*v[j] + (1-c.Beta2)*g*g
		mh := m[j] / c.C1
		vh := v[j] / c.C2
		p[j] -= c.LR * mh / (math.Sqrt(vh) + c.Eps)
	}
}
