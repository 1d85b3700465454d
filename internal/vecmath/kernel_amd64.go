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

// dot32x4AVX2 is four dot32AVX2 calls in one pass: out[k] gets the bits of
// dot32AVX2(a, bk), with each block of a loaded once. Every bk must have
// len(a) elements.
//
//go:noescape
func dot32x4AVX2(a, b0, b1, b2, b3 []float32, out *[4]float32)

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

// affine8x4AVX2 is affine8x4Generic in AVX2: the same operations in the
// same order, so the same bits. len(w) must be 8·len(x[0]), every x[s]
// must hold len(x[0]) elements and b must hold 8.
//
//go:noescape
func affine8x4AVX2(w []float64, x *[4][]float64, b []float64, out *[4][8]float64)

// addScaledTileAVX2 is addScaledTileGeneric in AVX2 for len(r) a multiple
// of 4; x[s] for s < k must hold len(r) elements.
//
//go:noescape
func addScaledTileAVX2(x *[4][]float64, d *[4]float64, k int, r []float64)

// adamStepAVX2 is adamStepGeneric in AVX2 for len(p) a multiple of 4; m, v
// and every part from off must hold len(p) elements.
//
//go:noescape
func adamStepAVX2(p, m, v []float64, parts [][]float64, off int, c *AdamCoef)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
