package vecmath

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// sameBits reports whether x and y are the same float64, bit for bit, or
// both NaN (the hardware may propagate either operand's NaN payload).
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// checkKernels compares both assembly kernels with their Go loops on a, b.
func checkKernels(t *testing.T, a, b []float32) {
	t.Helper()
	if got, want := dot32AVX2(a, b), dot32Generic(a, b); !sameBits(float64(got), float64(want)) {
		t.Fatalf("dot32 at length %d: assembly %v (%#x), Go %v (%#x)",
			len(a), got, math.Float32bits(got), want, math.Float32bits(want))
	}
	if got, want := dotAVX2(a, b), dotGeneric(a, b); !sameBits(got, want) {
		t.Fatalf("Dot at length %d: assembly %v (%#x), Go %v (%#x)",
			len(a), got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func skipWithoutAVX2(tb testing.TB) {
	tb.Helper()
	if !haveAVX2 {
		tb.Skip("no AVX2 kernel on this CPU or in this build (purego or not amd64); dot32 and Dot run the Go loops")
	}
}

var kernelSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.Float32frombits(1), math.MaxFloat32,
}

// kernelValue draws one component for the given mode: 0 standard normal,
// 1 normal scaled by 2^e for e in [-60, 60] (wide, but every product and
// sum finite), 2 any magnitude from subnormal to 2^100, with ±0, ±Inf,
// NaN and the extremes mixed in.
func kernelValue(mode int, rng *rand.Rand) float32 {
	x := float32(rng.NormFloat64())
	switch mode {
	case 1:
		return float32(math.Ldexp(float64(x), rng.Intn(121)-60))
	case 2:
		switch r := rng.Intn(32); {
		case r == 0:
			return kernelSpecials[rng.Intn(len(kernelSpecials))]
		case r < 4:
			return math.Float32frombits(rng.Uint32() & 0x807fffff) // subnormal or ±0
		}
		return float32(math.Ldexp(float64(x), rng.Intn(250)-149))
	}
	return x
}

// TestDotKernelsMatchGeneric checks that the assembly kernels return the
// Go loops' bits at every length 0–1024, at start offsets 0–7 into a
// larger slice (so loads are unaligned), over normal, wide and extreme
// values. The fuzz targets of scan_test.go compare with
// CosineDistanceUnit, which runs the same kernels; this test is the one
// that compares them with the Go reference.
func TestDotKernelsMatchGeneric(t *testing.T) {
	skipWithoutAVX2(t)
	rng := rand.New(rand.NewSource(20))
	const maxLen = 1024
	bufA := make([]float32, maxLen+8)
	bufB := make([]float32, maxLen+8)
	for mode := 0; mode < 3; mode++ {
		for i := range bufA {
			bufA[i], bufB[i] = kernelValue(mode, rng), kernelValue(mode, rng)
		}
		for n := 0; n <= maxLen; n++ {
			for off := 0; off < 8; off++ {
				checkKernels(t, bufA[off:off+n], bufB[7-off:7-off+n])
			}
		}
	}
}

// FuzzDotKernels checks both assembly kernels against their Go loops on
// arbitrary float32 bit patterns: raw holds a and then b, len(raw)/8
// float32 values each (little-endian). The committed corpus under
// testdata/fuzz covers the lengths around every loop boundary, 200 and
// 768, with wide magnitudes, subnormals, ±0, ±Inf and NaN; regenerate it
// with `go run ./internal/vecmath/testdata`.
func FuzzDotKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		skipWithoutAVX2(t)
		vals := make([]float32, len(raw)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		n := len(vals) / 2
		checkKernels(t, vals[:n], vals[n:2*n])
	})
}

var dotSink float64

// benchmarkKernel times f on one pair of unit vectors at d = 200 and 768.
func benchmarkKernel(b *testing.B, name string, f func(a, b []float32) float64, asm bool) {
	rng := rand.New(rand.NewSource(6))
	for _, dim := range []int{200, 768} {
		x, y := RandomUnit(dim, rng), RandomUnit(dim, rng)
		b.Run(name+"/d"+strconv.Itoa(dim), func(b *testing.B) {
			if asm {
				skipWithoutAVX2(b)
			}
			s := 0.0
			for i := 0; i < b.N; i++ {
				s += f(x, y)
			}
			dotSink = s
		})
	}
}

// BenchmarkDot32 is the distance-kernel layer number of the float32 fast
// pass: the Go loop against the AVX2 kernel.
func BenchmarkDot32(b *testing.B) {
	benchmarkKernel(b, "generic", func(x, y []float32) float64 { return float64(dot32Generic(x, y)) }, false)
	benchmarkKernel(b, "avx2", func(x, y []float32) float64 { return float64(dot32AVX2(x, y)) }, true)
}

// BenchmarkDot is the same for the float64 Dot behind CosineDistanceUnit.
func BenchmarkDot(b *testing.B) {
	benchmarkKernel(b, "generic", dotGeneric, false)
	benchmarkKernel(b, "avx2", dotAVX2, true)
}
