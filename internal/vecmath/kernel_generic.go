//go:build !amd64 || purego

package vecmath

// haveAVX2 is false without the amd64 assembly, so dot32, Dot and the
// training kernels compile to the Go loops alone.
const haveAVX2 = false

// The AVX2 kernels exist only so that the package and its kernel tests
// compile: with haveAVX2 false nothing calls them, and the tests skip the
// assembly comparison.
func dot32AVX2(a, b []float32) float32 { panic("vecmath: no AVX2 kernel in this build") }

func dot32x4AVX2(a, b0, b1, b2, b3 []float32, out *[4]float32) {
	panic("vecmath: no AVX2 kernel in this build")
}

func dotAVX2(a, b []float32) float64 { panic("vecmath: no AVX2 kernel in this build") }

func affine16AVX2(w, x, b, out []float64) { panic("vecmath: no AVX2 kernel in this build") }

func addScaled4AVX2(x []float64, d0, d1, d2, d3 float64, r0, r1, r2, r3 []float64) {
	panic("vecmath: no AVX2 kernel in this build")
}

func addScaledAVX2(x []float64, d float64, r []float64) {
	panic("vecmath: no AVX2 kernel in this build")
}

func adamStepAVX2(p, m, v []float64, parts [][]float64, off int, c *AdamCoef) {
	panic("vecmath: no AVX2 kernel in this build")
}
