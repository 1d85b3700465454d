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

func affine8x4AVX2(w []float64, x *[4][]float64, b []float64, out *[4][8]float64) {
	panic("vecmath: no AVX2 kernel in this build")
}

func addScaledTileAVX2(x *[4][]float64, d *[4]float64, k int, r []float64) {
	panic("vecmath: no AVX2 kernel in this build")
}

func adamStepAVX2(p, m, v []float64, parts [][]float64, off int, c *AdamCoef) {
	panic("vecmath: no AVX2 kernel in this build")
}
