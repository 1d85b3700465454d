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
// float64 ulps either way: the pairs whose distance sits right at eps. It
// also checks that the decisions are symmetric (see checkSymmetric).
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
	// The tile holds q and, as the other three queries, the first points
	// (q again where there are fewer), so every lane meets its own query.
	tile := [4][]float32{q, q, q, q}
	for k := 1; k < 4 && k <= len(pts); k++ {
		tile[k] = pts[k-1]
	}
	tileNorm := maxNorm
	for _, qk := range tile {
		if n := Norm(qk); n > tileNorm || math.IsNaN(n) {
			tileNorm = n
		}
	}
	for _, e := range epss {
		got := AppendCosineUnitRange(nil, q, pts, e, maxNorm)
		if want := perPairRange(q, pts, e); !slices.Equal(got, want) {
			t.Fatalf("%s, dim %d, eps %v: kernel %v, per-pair %v", name, len(q), e, got, want)
		}
		var dst [4][]int
		AppendCosineUnitRange4(&dst, &tile, pts, e, tileNorm)
		for k, qk := range tile {
			if want := perPairRange(qk, pts, e); !slices.Equal(dst[k], want) {
				t.Fatalf("%s, dim %d, eps %v: tile lane %d %v, per-pair %v", name, len(q), e, k, dst[k], want)
			}
		}
		checkSymmetric(t, name, q, pts, got, e)
	}
}

// checkSymmetric checks that pts[j] is in q's range, fwd, exactly when q
// is in pts[j]'s, scanned the other way round with its own maxNorm,
// Norm(q), as a suffix scan of a self-join scans with the bound of its own
// rows: by the single-query scan and by every lane of a four-query tile
// whose rows are q alone. The distance is symmetric too, bit for bit: a
// NaN may carry either operand's payload, and any NaN decides the same.
func checkSymmetric(t *testing.T, name string, q []float32, pts [][]float32, fwd []int, eps float64) {
	t.Helper()
	row := [][]float32{q}
	in := func(j int) bool { return slices.Contains(fwd, j) }
	for j, p := range pts {
		if rev := AppendCosineUnitRange(nil, p, row, eps, Norm(q)); in(j) != (len(rev) == 1) {
			t.Fatalf("%s, dim %d, eps %v: point %d in q's range %v, q in its range %v", name, len(q), eps, j, in(j), len(rev) == 1)
		}
		a, b := CosineDistanceUnit(q, p), CosineDistanceUnit(p, q)
		if math.Float64bits(a) != math.Float64bits(b) && !(math.IsNaN(a) && math.IsNaN(b)) {
			t.Fatalf("%s, dim %d: CosineDistanceUnit(q, point %d) = %v, swapped %v", name, len(q), j, a, b)
		}
	}
	for j := 0; j+4 <= len(pts); j += 4 {
		var dst [4][]int
		AppendCosineUnitRange4(&dst, (*[4][]float32)(pts[j:j+4]), row, eps, Norm(q))
		for k := range dst {
			if in(j+k) != (len(dst[k]) == 1) {
				t.Fatalf("%s, dim %d, eps %v: point %d in q's range %v, q in its tile lane's range %v", name, len(q), eps, j+k, in(j+k), len(dst[k]) == 1)
			}
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
		// Finite inputs whose float32 products would overflow, and a row
		// whose own norm is past 2¹⁰⁰.
		huge := [][]float32{scaled(q, 1e30), RandomUnit(dim, rng)}
		checkRange(t, "huge norms", scaled(q, 1e30), huge, 0.55)
		past := [][]float32{nearPair(q, 0.55, rng), scaled(q, 0x1p101), RandomUnit(dim, rng), Clone(q), nearPair(q, 0.3, rng)}
		for _, eps := range []float64{0.55, 2} {
			checkRange(t, "row past 2^100", q, past, eps)
		}
		// A subnormal component keeps every pass finite.
		sub := [][]float32{nearPair(q, 0.55, rng), RandomUnit(dim, rng), Clone(q), nearPair(q, 0.55, rng)}
		sub[1][dim/2] = math.Float32frombits(1)
		subQ := Clone(q)
		subQ[dim-1] = math.Float32frombits(3)
		checkRange(t, "subnormal point", q, sub, 0.55)
		checkRange(t, "subnormal query", subQ, sub, 0.55)
	}
}

// TestAppendCosineUnitRangeAppends checks the buffer contract: ids are
// appended after dst's contents, in increasing order, by the single-query
// scan and by every lane of the tile.
func TestAppendCosineUnitRangeAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	q := RandomUnit(16, rng)
	pts := [][]float32{Clone(q), RandomUnit(16, rng), Clone(q), RandomUnit(16, rng), RandomUnit(16, rng), Clone(q)}
	got := AppendCosineUnitRange([]int{-1}, q, pts, 0.01, 1)
	if want := []int{-1, 0, 2, 5}; !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	dst := [4][]int{{-1}, {-2}, {-3}, {-4}}
	tile := [4][]float32{q, pts[1], pts[3], q}
	AppendCosineUnitRange4(&dst, &tile, pts, 0.01, 1)
	want := [4][]int{{-1, 0, 2, 5}, {-2, 1}, {-3, 3}, {-4, 0, 2, 5}}
	for k := range dst {
		if !slices.Equal(dst[k], want[k]) {
			t.Fatalf("tile lane %d: got %v, want %v", k, dst[k], want[k])
		}
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

func TestAppendCosineUnitRange4MismatchedLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched lengths")
		}
	}()
	var dst [4][]int
	q := []float32{1, 0}
	AppendCosineUnitRange4(&dst, &[4][]float32{q, q, {0, 1, 0}, q}, [][]float32{{1, 0}}, 0.5, 1)
}

// FuzzAppendCosineUnitRange checks the kernel against the per-pair loop,
// and the symmetry of its decisions, on arbitrary float32 bit patterns.
// raw holds the query and then the points, dim float32 values each
// (little-endian); checkRange adds the eps values that sit on each of the
// first points' exact distance. The committed corpus under testdata/fuzz
// covers near-eps pairs, non-unit norms, zero, NaN, ±Inf and subnormal
// components and a row past 2¹⁰⁰ at the tested dimensions; regenerate it
// with `go run ./internal/vecmath/testdata`.
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

// checkLess compares CosineUnitLess with the exact test at thr and at the
// pair's exact distance shifted by up to four float64 ulps either way, with
// the tightest scale the contract allows, Norm(q)·Norm(p). A scale that
// CosineUnitBound rejects leaves nothing to compare: callers then use the
// exact distance.
func checkLess(t *testing.T, name string, q, p []float32, thr float64) {
	t.Helper()
	bound, ok := CosineUnitBound(len(q), Norm(q)*Norm(p))
	if !ok {
		return
	}
	e := CosineDistanceUnit(q, p)
	thrs := []float64{thr, e, math.NaN(), math.Inf(1), math.Inf(-1)}
	lo, hi := e, e
	for k := 0; k < 4; k++ {
		lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
		thrs = append(thrs, lo, hi)
	}
	for _, x := range thrs {
		if got, want := CosineUnitLess(q, p, x, bound), e < x; got != want {
			t.Fatalf("%s, dim %d, threshold %v (distance %v): CosineUnitLess %v, exact %v", name, len(q), x, e, got, want)
		}
	}
}

func TestCosineUnitLessExact(t *testing.T) {
	for _, dim := range []int{1, 7, 8, 9, 200, 768} {
		rng := rand.New(rand.NewSource(int64(dim) + 100))
		q := RandomUnit(dim, rng)
		for _, target := range []float64{1e-9, 0.55, 2} {
			for k := 0; k < 24; k++ {
				p := nearPair(q, target, rng)
				checkLess(t, "unit", q, p, target)
				checkLess(t, "unit, swapped", p, q, target)
				checkLess(t, "non-unit", scaled(q, 3), scaled(p, float32(math.Pow(10, 6*rng.Float64()))), target)
			}
		}
		checkLess(t, "zero point", q, make([]float32, dim), 1)
		checkLess(t, "zero query", make([]float32, dim), q, 1)
		checkLess(t, "opposite", q, scaled(q, -1), 2)
	}
}

func TestCosineUnitBound(t *testing.T) {
	for _, scale := range []float64{math.NaN(), math.Inf(1), 0x1p101} {
		if _, ok := CosineUnitBound(8, scale); ok {
			t.Errorf("CosineUnitBound accepted scale %v", scale)
		}
	}
	for _, scale := range []float64{0, 1, 0x1p100} {
		if b, ok := CosineUnitBound(8, scale); !ok || !(b > 0) {
			t.Errorf("CosineUnitBound(8, %v) = %v, %v; want a positive bound", scale, b, ok)
		}
	}
}

func TestIsCosineUnit(t *testing.T) {
	wrapped := func(a, b []float32) float64 { return CosineDistanceUnit(a, b) }
	for _, tc := range []struct {
		name string
		f    DistanceFunc
		want bool
	}{
		{"CosineDistanceUnit", CosineDistanceUnit, true},
		{"CosineDistance", CosineDistance, false},
		{"EuclideanDistance", EuclideanDistance, false},
		{"wrapper", wrapped, false},
		{"nil", nil, false},
	} {
		if got := IsCosineUnit(tc.f); got != tc.want {
			t.Errorf("IsCosineUnit(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// FuzzCosineUnitLess checks the pairwise threshold test against the exact
// distance on arbitrary float32 bit patterns: raw holds q and then p, dim
// float32 values each (little-endian), and checkLess adds the thresholds
// that sit on the pair's exact distance. The committed corpus under
// testdata/fuzz covers near-threshold pairs at the tested dimensions,
// norms up to 1e6, zero, NaN, ±Inf, subnormal and overflowing components;
// regenerate it with `go run ./internal/vecmath/testdata`.
func FuzzCosineUnitLess(f *testing.F) {
	f.Fuzz(func(t *testing.T, thr float64, dim uint16, raw []byte) {
		d := 1 + int(dim)%1024
		if len(raw) < 8*d {
			return
		}
		vals := make([]float32, 2*d)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		checkLess(t, "fuzz", vals[:d], vals[d:], thr)
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
