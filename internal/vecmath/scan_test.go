package vecmath

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// perPairRange is the reference AppendCosineUnitRange must reproduce.
func perPairRange(q []float32, pts [][]float32, eps float64) []int {
	var out []int
	for j, p := range pts {
		if CosineDistanceUnit(q, p) < eps {
			out = append(out, j)
		}
	}
	return out
}

func maxNormOf(pts [][]float32) float64 {
	m := 0.0
	for _, p := range pts {
		if n := Norm(p); n > m || math.IsNaN(n) {
			m = n
		}
	}
	return m
}

// checkRange compares the kernel with the per-pair loop at eps and at the
// exact reference distance of the first few points, shifted by up to four
// float64 ulps either way: the pairs whose distance sits right at eps.
func checkRange(t *testing.T, name string, q []float32, pts [][]float32, eps float64) {
	t.Helper()
	epss := []float64{eps}
	for j := 0; j < min(len(pts), 8); j++ {
		e := CosineDistanceUnit(q, pts[j])
		lo, hi := e, e
		epss = append(epss, e)
		for k := 0; k < 4; k++ {
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
			epss = append(epss, lo, hi)
		}
	}
	maxNorm := maxNormOf(pts)
	for _, e := range epss {
		got := AppendCosineUnitRange(nil, q, pts, e, maxNorm)
		if want := perPairRange(q, pts, e); !slices.Equal(got, want) {
			t.Fatalf("%s, dim %d, eps %v: kernel %v, per-pair %v", name, len(q), e, got, want)
		}
	}
}

// nearPair returns p = cosθ·q + sinθ·r with r a unit vector orthogonal to
// the unit q, so 1 − ⟨q, p⟩ is target up to float32 rounding of p. In one
// dimension r vanishes and p = cosθ·q, which still has that distance.
func nearPair(q []float32, target float64, rng *rand.Rand) []float32 {
	r := RandomGaussian(len(q), 0, 1, rng)
	proj := float32(Dot(r, q))
	for i := range r {
		r[i] -= proj * q[i]
	}
	if n := Norm(r); n > 1e-6 {
		Scale(float32(1/n), r)
	} else {
		clear(r)
	}
	c := 1 - target
	s := math.Sqrt(max(0, 1-c*c))
	p := make([]float32, len(q))
	for i := range p {
		p[i] = float32(c*float64(q[i]) + s*float64(r[i]))
	}
	return p
}

func scaled(v []float32, s float32) []float32 { return Scale(s, Clone(v)) }

func TestAppendCosineUnitRangeExact(t *testing.T) {
	for _, dim := range []int{1, 7, 8, 9, 200, 768} {
		rng := rand.New(rand.NewSource(int64(dim)))
		q := RandomUnit(dim, rng)
		var unit [][]float32
		for _, target := range []float64{1e-9, 0.55, 2} {
			for k := 0; k < 24; k++ {
				unit = append(unit, nearPair(q, target, rng))
			}
		}
		for k := 0; k < 40; k++ {
			unit = append(unit, RandomUnit(dim, rng))
		}
		unit = append(unit, Clone(q), scaled(q, -1), make([]float32, dim))
		var mixed [][]float32
		for _, p := range unit {
			mixed = append(mixed, scaled(p, float32(0.5+1.5*rng.Float64())))
		}
		for _, eps := range []float64{1e-9, 0.55, 2, 2.5} {
			checkRange(t, "unit", q, unit, eps)
			checkRange(t, "non-unit points", q, mixed, eps)
			checkRange(t, "non-unit query", scaled(q, 2), mixed, eps)
			checkRange(t, "half-norm query", scaled(q, 0.5), unit, eps)
			checkRange(t, "zero query", make([]float32, dim), unit, eps)
		}
	}
}

func TestAppendCosineUnitRangeNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dim := range []int{1, 7, 8, 9, 200, 768} {
		q := RandomUnit(dim, rng)
		for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
			pts := [][]float32{nearPair(q, 0.55, rng), RandomUnit(dim, rng), Clone(q)}
			pts[1][dim/2] = bad
			for _, eps := range []float64{1e-9, 0.55, 2, 2.5} {
				checkRange(t, "non-finite point", q, pts, eps)
				badQ := Clone(q)
				badQ[0] = bad
				checkRange(t, "non-finite query", badQ, pts[:1], eps)
			}
		}
		// Finite inputs whose float32 products would overflow.
		huge := [][]float32{scaled(q, 1e30), RandomUnit(dim, rng)}
		checkRange(t, "huge norms", scaled(q, 1e30), huge, 0.55)
	}
}

// TestAppendCosineUnitRangeAppends checks the buffer contract: ids are
// appended after dst's contents, in increasing order.
func TestAppendCosineUnitRangeAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	q := RandomUnit(16, rng)
	pts := [][]float32{Clone(q), RandomUnit(16, rng), Clone(q)}
	got := AppendCosineUnitRange([]int{-1}, q, pts, 0.01, 1)
	if want := []int{-1, 0, 2}; !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestAppendCosineUnitRangeMismatchedLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched lengths")
		}
	}()
	AppendCosineUnitRange(nil, []float32{1, 0}, [][]float32{{1, 0, 0}}, 0.5, 1)
}

// FuzzAppendCosineUnitRange checks the kernel against the per-pair loop
// on arbitrary float32 bit patterns. raw holds the query and then the
// points, dim float32 values each (little-endian); checkRange adds the
// eps values that sit on each of the first points' exact distance. The
// committed corpus under testdata/fuzz covers near-eps pairs, non-unit
// norms, zero, NaN, ±Inf and subnormal components at the tested
// dimensions; regenerate it with `go run ./internal/vecmath/testdata`.
func FuzzAppendCosineUnitRange(f *testing.F) {
	f.Fuzz(func(t *testing.T, eps float64, dim uint16, raw []byte) {
		d := 1 + int(dim)%1024
		vals := make([]float32, len(raw)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		if len(vals) < 2*d {
			return
		}
		var pts [][]float32
		for off := d; off+d <= len(vals) && len(pts) < 64; off += d {
			pts = append(pts, vals[off:off+d])
		}
		checkRange(t, "fuzz", vals[:d], pts, eps)
	})
}

func BenchmarkAppendCosineUnitRange(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for _, dim := range []int{200, 768} {
		pts := make([][]float32, 2000)
		for i := range pts {
			pts[i] = RandomUnit(dim, rng)
		}
		q := pts[0]
		b.Run("kernel/dim"+strconv.Itoa(dim), func(b *testing.B) {
			buf := make([]int, 0, len(pts))
			for i := 0; i < b.N; i++ {
				buf = AppendCosineUnitRange(buf[:0], q, pts, 0.55, 1)
			}
		})
		b.Run("perpair/dim"+strconv.Itoa(dim), func(b *testing.B) {
			buf := make([]int, 0, len(pts))
			for i := 0; i < b.N; i++ {
				buf = buf[:0]
				for j, p := range pts {
					if CosineDistanceUnit(q, p) < 0.55 {
						buf = append(buf, j)
					}
				}
			}
		})
	}
}
