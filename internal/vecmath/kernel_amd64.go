//go:build !purego

package vecmath

// haveAVX2 reports whether the CPU and the operating system support AVX2,
// so dot32 and Dot run the assembly kernels of kernel_amd64.s.
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

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
