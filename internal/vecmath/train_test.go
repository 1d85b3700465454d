package vecmath

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// trainCase is one input to every training kernel: Affine16 on w, x, b;
// AddScaled4 on x, d and rows (then AddScaled on x, d[1] and rows[0]); AdamStep
// on p, m, v and parts from off with c.
type trainCase struct {
	x, w, b []float64
	d       [4]float64
	rows    [4][]float64
	p, m, v []float64
	parts   [][]float64
	off     int
	c       AdamCoef
}

func assertSameBits(t testing.TB, what string, n int, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s at length %d, element %d: assembly %v (%#x), Go %v (%#x)",
				what, n, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func clone64(v []float64) []float64 { return append([]float64(nil), v...) }

// checkTrainKernels compares each exported training kernel, which runs the
// AVX2 assembly and finishes the last len%4 elements in Go, with its Go
// loop alone.
func checkTrainKernels(t testing.TB, tc *trainCase) {
	t.Helper()
	n := len(tc.x)
	got, want := make([]float64, 16), make([]float64, 16)
	Affine16(tc.w, tc.x, tc.b, got)
	affine16Generic(tc.w, tc.x, tc.b, want)
	assertSameBits(t, "Affine16", n, got, want)

	var ga, wa [4][]float64
	for k, r := range tc.rows {
		ga[k], wa[k] = clone64(r), clone64(r)
	}
	d := tc.d
	AddScaled4(tc.x, d[0], d[1], d[2], d[3], ga[0], ga[1], ga[2], ga[3])
	addScaled4Generic(tc.x, d[0], d[1], d[2], d[3], wa[0], wa[1], wa[2], wa[3])
	for k := range ga {
		assertSameBits(t, "AddScaled4 row "+strconv.Itoa(k), n, ga[k], wa[k])
	}
	AddScaled(tc.x, d[1], ga[0])
	addScaledGeneric(tc.x, d[1], wa[0])
	assertSameBits(t, "AddScaled", n, ga[0], wa[0])

	gp, gm, gv := clone64(tc.p), clone64(tc.m), clone64(tc.v)
	wp, wm, wv := clone64(tc.p), clone64(tc.m), clone64(tc.v)
	AdamStep(gp, gm, gv, tc.parts, tc.off, &tc.c)
	adamStepGeneric(wp, wm, wv, tc.parts, tc.off, &tc.c)
	assertSameBits(t, "AdamStep p", n, gp, wp)
	assertSameBits(t, "AdamStep m", n, gm, wm)
	assertSameBits(t, "AdamStep v", n, gv, wv)
}

var trainSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(1), math.MaxFloat64, math.SmallestNonzeroFloat64,
}

// trainValue draws one float64 for the given mode: 0 standard normal, 1
// normal scaled by 2^e for e in [-200, 200], 2 any magnitude from
// subnormal to 2^500, with ±0, ±Inf, NaN and the extremes mixed in.
func trainValue(mode int, rng *rand.Rand) float64 {
	x := rng.NormFloat64()
	switch mode {
	case 1:
		return math.Ldexp(x, rng.Intn(401)-200)
	case 2:
		switch r := rng.Intn(16); {
		case r == 0:
			return trainSpecials[rng.Intn(len(trainSpecials))]
		case r < 3:
			return math.Float64frombits(rng.Uint64() & 0x800fffffffffffff) // subnormal or ±0
		}
		return math.Ldexp(x, rng.Intn(1575)-1074)
	}
	return x
}

// adamCoef returns the coefficients of Adam's step t with the usual
// hyperparameters and a batch of size batch.
func adamCoef(t, batch int) AdamCoef {
	c := AdamCoef{Beta1: 0.9, Beta2: 0.999, LR: 2e-3, Eps: 1e-8, Inv: 1 / float64(batch)}
	c.C1, c.C2 = 1-math.Pow(c.Beta1, float64(t)), 1-math.Pow(c.Beta2, float64(t))
	return c
}

// TestTrainKernelsMatchGeneric checks that the training kernels return
// their Go loops' bits at every length 0–1024, at start offsets 0–7 into
// larger slices (so loads are unaligned), over normal, wide and extreme
// values. Every fourth length has a zero or negative-zero delta, Adam
// sums 1–8 parts and, in the extreme mode, takes its coefficients from
// the same extreme values.
func TestTrainKernelsMatchGeneric(t *testing.T) {
	skipWithoutAVX2(t)
	rng := rand.New(rand.NewSource(21))
	const maxLen, maxParts = 1024, 8
	buf := func(n int) []float64 { return make([]float64, n+8) }
	w, x, b := buf(16*maxLen), buf(maxLen), buf(16)
	var rows [4][]float64
	for k := range rows {
		rows[k] = buf(maxLen)
	}
	p, m, v := buf(maxLen), buf(maxLen), buf(maxLen)
	parts := make([][]float64, maxParts)
	for q := range parts {
		parts[q] = buf(maxLen + 8)
	}
	for mode := 0; mode < 3; mode++ {
		for _, s := range append([][]float64{w, x, b, p, m, v}, append(rows[:], parts...)...) {
			for i := range s {
				s[i] = trainValue(mode, rng)
			}
		}
		if mode < 2 {
			for i := range v {
				v[i] = math.Abs(v[i]) // a second moment is never negative
			}
		}
		for n := 0; n <= maxLen; n++ {
			for off := 0; off < 8; off++ {
				tc := &trainCase{
					x: x[off : off+n], w: w[7-off : 7-off+16*n], b: b[off : off+16],
					p: p[off : off+n], m: m[7-off : 7-off+n], v: v[off : off+n],
					off: off + n%8,
					c:   adamCoef(1+n, 1+off),
				}
				for k := range rows {
					tc.rows[k] = rows[k][(k+off)%8:][:n]
					tc.d[k] = trainValue(mode, rng)
				}
				if n%4 == 0 {
					tc.d[n%16/4] = trainSpecials[n%32/16] // +0 or -0
				}
				tc.parts = parts[:1+(n+off)%maxParts]
				if mode == 2 {
					tc.c = AdamCoef{}
					for _, f := range []*float64{&tc.c.Beta1, &tc.c.Beta2, &tc.c.C1, &tc.c.C2, &tc.c.LR, &tc.c.Eps, &tc.c.Inv} {
						*f = trainValue(mode, rng)
					}
				}
				checkTrainKernels(t, tc)
			}
		}
	}
}

// FuzzTrainKernels checks the training kernels against their Go loops on
// arbitrary float64 bit patterns: raw holds n = len(raw)/8 little-endian
// values, which become x, and every other input is drawn from them
// cyclically (so the fuzzer controls all of them), with 1 + n%8 parts at
// offset n%3. The committed corpus under testdata/fuzz covers the lengths
// around every loop boundary and the estimator's 769 inputs, with wide
// magnitudes, subnormals, ±0, ±Inf, NaN and zero deltas; regenerate it
// with `go run ./internal/vecmath/testdata`.
func FuzzTrainKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		skipWithoutAVX2(t)
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		n := len(vals)
		val := func(k int) float64 {
			if n == 0 {
				return 0
			}
			return vals[k%n]
		}
		tc := &trainCase{x: vals, w: make([]float64, 16*n), b: make([]float64, 16),
			p: make([]float64, n), m: make([]float64, n), v: make([]float64, n),
			parts: make([][]float64, 1+n%8), off: n % 3, c: adamCoef(1+n, 64)}
		for i := range tc.w {
			tc.w[i] = val(3*i + 1)
		}
		for r := range tc.b {
			tc.b[r] = val(r + 2)
		}
		for k := range tc.rows {
			tc.d[k] = val(k + 5)
			tc.rows[k] = make([]float64, n)
			for i := range tc.rows[k] {
				tc.rows[k][i] = val(5*i + k)
			}
		}
		for i := 0; i < n; i++ {
			tc.p[i], tc.m[i], tc.v[i] = val(i+7), val(2*i+1), val(7*i+3)
		}
		for q := range tc.parts {
			tc.parts[q] = make([]float64, tc.off+n)
			for i := range tc.parts[q] {
				tc.parts[q][i] = val(i*(q+2) + q)
			}
		}
		checkTrainKernels(t, tc)
	})
}

// BenchmarkTrainKernels times each training kernel at the estimator's
// layer-0 shape (769 inputs, 16 rows per Affine16 block) and Adam over
// 4,096 parameters from two parts: the Go loop against the AVX2 kernel.
func BenchmarkTrainKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	const in, params = 769, 4096
	x, w, bias, out := vec(in), vec(16*in), vec(16), make([]float64, 16)
	r0, r1, r2, r3 := vec(in), vec(in), vec(in), vec(in)
	p, m, v := vec(params), vec(params), vec(params)
	for i := range v {
		v[i] = math.Abs(v[i])
	}
	parts := [][]float64{vec(params), vec(params)}
	c := adamCoef(10, 64)
	kernels := []struct {
		name         string
		generic, asm func()
	}{
		{"affine16/d769",
			func() { affine16Generic(w, x, bias, out) },
			func() { Affine16(w, x, bias, out) }},
		{"addscaled4/d769",
			func() { addScaled4Generic(x, 1e-3, 2e-3, 3e-3, 4e-3, r0, r1, r2, r3) },
			func() { AddScaled4(x, 1e-3, 2e-3, 3e-3, 4e-3, r0, r1, r2, r3) }},
		{"adam/n4096-parts2",
			func() { adamStepGeneric(p, m, v, parts, 0, &c) },
			func() { AdamStep(p, m, v, parts, 0, &c) }},
	}
	for _, k := range kernels {
		b.Run("generic/"+k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.generic()
			}
		})
		b.Run("avx2/"+k.name, func(b *testing.B) {
			skipWithoutAVX2(b)
			for i := 0; i < b.N; i++ {
				k.asm()
			}
		})
	}
}

// TestInterleave4 checks the layout Affine16 reads, written whole and in
// ranges that split rows, and that rows past dst are left out.
func TestInterleave4(t *testing.T) {
	const in, rows = 5, 10
	w := make([]float64, in*rows)
	for j := range w {
		w[j] = float64(j)
	}
	want := make([]float64, 8*in)
	for o := 0; o < 8; o++ {
		for i := 0; i < in; i++ {
			want[(o/4)*4*in+4*i+o%4] = w[o*in+i]
		}
	}
	whole := make([]float64, 8*in)
	Interleave4(whole, w, in, 0, len(w))
	ranged := make([]float64, 8*in)
	for _, cut := range [][2]int{{0, 3}, {3, 17}, {17, 18}, {18, 41}, {41, len(w)}} {
		Interleave4(ranged, w, in, cut[0], cut[1])
	}
	for j := range want {
		if whole[j] != want[j] || ranged[j] != want[j] {
			t.Fatalf("element %d: whole %v, ranged %v, want %v", j, whole[j], ranged[j], want[j])
		}
	}
}
