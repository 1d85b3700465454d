//go:build !amd64 || purego

package vecmath

// haveAVX2 is false without the amd64 assembly, so dot32 and Dot compile
// to the Go loops alone.
const haveAVX2 = false

// dot32AVX2 and dotAVX2 exist only so that the kernel tests compile; they
// skip the assembly comparison when haveAVX2 is false.
func dot32AVX2(a, b []float32) float32 { panic("vecmath: no AVX2 kernel in this build") }

func dotAVX2(a, b []float32) float64 { panic("vecmath: no AVX2 kernel in this build") }
