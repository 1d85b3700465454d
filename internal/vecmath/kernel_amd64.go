//go:build !purego

package vecmath

// haveAVX2 reports whether the CPU and the operating system support AVX2,
// so dot32, Dot and the training kernels of train.go run the assembly
// kernels of kernel_amd64.s.
var haveAVX2 = detectAVX2()

// detectAVX2 checks CPUID leaf 7 for AVX2, leaf 1 for AVX and OSXSAVE, and
// XCR0 for the XMM and YMM state the operating system saves.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// dot32AVX2 is dot32Generic in AVX2: the same operations in the same order,
// so the same bits. len(b) must equal len(a).
//
//go:noescape
func dot32AVX2(a, b []float32) float32

// dotAVX2 is dotGeneric in AVX2: the same operations in the same order, so
// the same bits. len(b) must equal len(a).
//
//go:noescape
func dotAVX2(a, b []float32) float64

// affine16AVX2 is affine16Generic in AVX2: the same operations in the same
// order, so the same bits. len(w) must be 16·len(x); b and out hold 16.
//
//go:noescape
func affine16AVX2(w, x, b, out []float64)

// addScaled4AVX2 is addScaled4Generic in AVX2 for len(x) a multiple of 4;
// each row must hold len(x) elements.
//
//go:noescape
func addScaled4AVX2(x []float64, d0, d1, d2, d3 float64, r0, r1, r2, r3 []float64)

// addScaledAVX2 is addScaledGeneric in AVX2 for len(x) a multiple of 4;
// r must hold len(x) elements.
//
//go:noescape
func addScaledAVX2(x []float64, d float64, r []float64)

// adamStepAVX2 is adamStepGeneric in AVX2 for len(p) a multiple of 4; m, v
// and every part from off must hold len(p) elements.
//
//go:noescape
func adamStepAVX2(p, m, v []float64, parts [][]float64, off int, c *AdamCoef)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
