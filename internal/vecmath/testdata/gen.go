// Command gen regenerates the committed fuzz seed corpora of the vecmath
// kernels. FuzzAppendCosineUnitRange gets near-eps pairs at dimensions 1,
// 7, 8, 9, 200 and 768, non-unit norms in [0.5, 2], zero vectors, NaN,
// ±Inf, subnormal and overflowing components and a row whose norm is past
// 2¹⁰⁰, at eps 1e-9, 0.55, 2 and 2.5; its check covers both directions of
// every pair. FuzzCosineUnitLess gets single pairs of the same kinds, plus norms
// up to 1e6. FuzzDotKernels gets a vector and the four operands of
// dot32x4's lanes at the lengths around every loop boundary of the
// assembly kernels, 200 and 768, with wide magnitudes, subnormal, ±0,
// ±Inf, NaN and overflowing components. FuzzTrainKernels gets float64
// inputs at the lengths around every loop boundary of the training
// kernels and the estimator's 769, with wide magnitudes, subnormals,
// overflow, ±0, NaN and zero deltas against ±Inf. Plain
// `go test ./internal/vecmath` replays them without the fuzzing engine.
// Run from the repository root:
//
//	go run ./internal/vecmath/testdata
//
// (The go tool skips testdata directories in ./... wildcards, so this
// package never enters normal builds.)
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"lafdbscan/internal/vecmath"
)

type seed struct {
	eps float64
	q   []float32
	pts [][]float32
}

// nearPair returns cosθ·q + sinθ·r for a unit r orthogonal to the unit q,
// so 1 − ⟨q, p⟩ is target up to float32 rounding.
func nearPair(q []float32, target float64, rng *rand.Rand) []float32 {
	r := vecmath.RandomGaussian(len(q), 0, 1, rng)
	proj := float32(vecmath.Dot(r, q))
	for i := range r {
		r[i] -= proj * q[i]
	}
	if n := vecmath.Norm(r); n > 1e-6 {
		vecmath.Scale(float32(1/n), r)
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

func nearSeed(dim, n int, target, eps float64, rng *rand.Rand) seed {
	q := vecmath.RandomUnit(dim, rng)
	s := seed{eps: eps, q: q}
	for k := 0; k < n; k++ {
		s.pts = append(s.pts, nearPair(q, target, rng))
	}
	return s
}

// withComponent returns the near-eps seed with one component of its
// second point replaced by v.
func withComponent(dim int, v float32, rng *rand.Rand) seed {
	s := nearSeed(dim, 3, 0.55, 0.55, rng)
	s.pts[1][dim/2] = v
	return s
}

// pairSeed is a FuzzCosineUnitLess seed: q, and p scaled by s, at the
// threshold target, 1 − ⟨q, p⟩ before scaling.
func pairSeed(dim int, target float64, s float32, rng *rand.Rand) seed {
	q := vecmath.RandomUnit(dim, rng)
	return seed{eps: target, q: q, pts: [][]float32{vecmath.Scale(s, nearPair(q, target, rng))}}
}

// pairWithComponent returns a near-threshold pair with one component of p
// replaced by v.
func pairWithComponent(dim int, v float32, rng *rand.Rand) seed {
	s := pairSeed(dim, 0.55, 1, rng)
	s.pts[0][dim/2] = v
	return s
}

func main() {
	out := flag.String("out", "internal/vecmath/testdata/fuzz", "fuzz corpus root; each target's seeds go in a directory named after it")
	flag.Parse()
	rng := rand.New(rand.NewSource(1))
	seeds := map[string]seed{
		"near-eps-d1":   nearSeed(1, 4, 0.55, 0.55, rng),
		"near-eps-d7":   nearSeed(7, 6, 0.55, 0.55, rng),
		"near-eps-d8":   nearSeed(8, 6, 0.55, 0.55, rng),
		"near-eps-d9":   nearSeed(9, 6, 0.55, 0.55, rng),
		"near-eps-d200": nearSeed(200, 4, 0.55, 0.55, rng),
		"near-eps-d768": nearSeed(768, 2, 0.55, 0.55, rng),
		"eps-1e-9-d9":   nearSeed(9, 4, 1e-9, 1e-9, rng),
		"eps-2-d8":      nearSeed(8, 4, 2, 2, rng),
		"nan-d9":        withComponent(9, float32(math.NaN()), rng),
		"inf-d7":        withComponent(7, float32(math.Inf(1)), rng),
		"neg-inf-d8":    withComponent(8, float32(math.Inf(-1)), rng),
		"subnormal-d8":  withComponent(8, math.Float32frombits(1), rng),
		"huge-d8":       withComponent(8, 1e30, rng),
	}
	nonUnit := nearSeed(9, 6, 1.2, 2.5, rng)
	for _, p := range append(nonUnit.pts, nonUnit.q) {
		vecmath.Scale(float32(0.5+1.5*rng.Float64()), p)
	}
	seeds["non-unit-eps-2.5-d9"] = nonUnit
	zero := nearSeed(8, 3, 0.55, 0.55, rng)
	zero.pts = append(zero.pts, make([]float32, 8))
	seeds["zero-point-d8"] = zero
	seeds["zero-query-d7"] = seed{eps: 1, q: make([]float32, 7), pts: [][]float32{vecmath.RandomUnit(7, rng)}}
	past := nearSeed(9, 4, 0.55, 0.55, rng)
	vecmath.Scale(0x1p101, past.pts[1])
	seeds["past-2p100-row-d9"] = past
	write(filepath.Join(*out, "FuzzAppendCosineUnitRange"), seeds)

	rng = rand.New(rand.NewSource(2))
	pairs := map[string]seed{
		"near-d1":       pairSeed(1, 0.55, 1, rng),
		"near-d7":       pairSeed(7, 0.55, 1, rng),
		"near-d8":       pairSeed(8, 0.55, 1, rng),
		"near-d9":       pairSeed(9, 0.55, 1, rng),
		"near-d200":     pairSeed(200, 0.55, 1, rng),
		"near-d768":     pairSeed(768, 0.55, 1, rng),
		"thr-1e-9-d9":   pairSeed(9, 1e-9, 1, rng),
		"thr-2-d8":      pairSeed(8, 2, 1, rng),
		"norm-1e3-d9":   pairSeed(9, 0.55, 1e3, rng),
		"norm-1e6-d200": pairSeed(200, 0.55, 1e6, rng),
		"nan-d9":        pairWithComponent(9, float32(math.NaN()), rng),
		"inf-d7":        pairWithComponent(7, float32(math.Inf(1)), rng),
		"neg-inf-d8":    pairWithComponent(8, float32(math.Inf(-1)), rng),
		"subnormal-d8":  pairWithComponent(8, math.Float32frombits(1), rng),
		"huge-d8":       pairWithComponent(8, 1e30, rng),
		"zero-point-d8": {eps: 1, q: vecmath.RandomUnit(8, rng), pts: [][]float32{make([]float32, 8)}},
		"zero-query-d7": {eps: 1, q: make([]float32, 7), pts: [][]float32{vecmath.RandomUnit(7, rng)}},
	}
	write(filepath.Join(*out, "FuzzCosineUnitLess"), pairs)

	// Each FuzzDotKernels seed holds five vectors of n values: a and the
	// four operands of dot32x4's lanes.
	rng = rand.New(rand.NewSource(3))
	dots := map[string][]float32{}
	for _, n := range []int{0, 1, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33, 200, 768} {
		dots[fmt.Sprintf("normal-d%d", n)] = vecmath.RandomGaussian(5*n, 0, 1, rng)
	}
	for _, n := range []int{200, 768} {
		v := vecmath.RandomGaussian(5*n, 0, 1, rng)
		for i := range v {
			v[i] = float32(math.Ldexp(float64(v[i]), rng.Intn(121)-60))
		}
		dots[fmt.Sprintf("wide-d%d", n)] = v
	}
	sub := make([]float32, 5*33)
	for i := range sub {
		sub[i] = math.Float32frombits(rng.Uint32() & 0x807fffff)
	}
	dots["subnormal-d33"] = sub
	dots["huge-d9"] = vecmath.Scale(0x1p100, vecmath.RandomGaussian(5*9, 0, 1, rng))
	negZero := float32(math.Copysign(0, -1))
	signedZero := make([]float32, 5*5)
	for i := range signedZero {
		signedZero[i] = negZero
		if i%3 == 0 {
			signedZero[i] = 0
		}
		if i >= 5 && i%5 == 4 {
			signedZero[i] = 1
		}
	}
	dots["signed-zero-d5"] = signedZero
	// One ±Inf in a and in two lanes; then a NaN in a third lane.
	specials := vecmath.RandomGaussian(5*11, 0, 1, rng)
	specials[2], specials[13], specials[40] = float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Inf(1))
	dots["inf-d11"] = vecmath.Clone(specials)
	specials[31] = float32(math.NaN())
	dots["nan-d11"] = specials
	writeDots(filepath.Join(*out, "FuzzDotKernels"), dots)

	rng = rand.New(rand.NewSource(4))
	normal := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	trains := map[string][]float64{}
	for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 64, 769} {
		trains[fmt.Sprintf("normal-d%d", n)] = normal(n)
	}
	for _, n := range []int{64, 769} {
		v := normal(n)
		for i := range v {
			v[i] = math.Ldexp(v[i], rng.Intn(401)-200)
		}
		trains[fmt.Sprintf("wide-d%d", n)] = v
	}
	sub64 := make([]float64, 33)
	for i := range sub64 {
		sub64[i] = math.Float64frombits(rng.Uint64() & 0x800fffffffffffff)
	}
	trains["subnormal-d33"] = sub64
	huge := normal(9)
	for i := range huge {
		huge[i] = math.Ldexp(huge[i], 600)
	}
	trains["huge-d9"] = huge
	negZero64 := math.Copysign(0, -1)
	trains["signed-zero-d8"] = []float64{negZero64, 0, negZero64, negZero64, 1, negZero64, 0, -1}
	// Values 5–8 are the four deltas: zero and negative zero against
	// infinite inputs, the 0·Inf a skipped dead unit never computes.
	zeroDelta := normal(9)
	zeroDelta[2], zeroDelta[3] = math.Inf(1), math.Inf(-1)
	zeroDelta[5], zeroDelta[6], zeroDelta[7], zeroDelta[8] = 0, negZero64, 0, negZero64
	trains["zero-delta-inf-d9"] = zeroDelta
	nan := normal(17)
	nan[4] = math.NaN()
	trains["nan-d17"] = nan
	writeTrains(filepath.Join(*out, "FuzzTrainKernels"), trains)
}

// writeTrains stores each FuzzTrainKernels seed, its little-endian float64
// values, in dir as a file named after its key.
func writeTrains(dir string, seeds map[string][]float64) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for name, v := range seeds {
		var raw []byte
		for _, x := range v {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(x))
		}
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", raw)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
	}
}

// writeDots stores each FuzzDotKernels seed, a and then b0..b3, in dir as a file
// named after its key.
func writeDots(dir string, seeds map[string][]float32) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for name, v := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", bits(v))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
	}
}

// bits returns the little-endian float32 encoding of v.
func bits(v []float32) []byte {
	var raw []byte
	for _, x := range v {
		raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(x))
	}
	return raw
}

// write stores each seed in dir as a file named after its key.
func write(dir string, seeds map[string]seed) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for name, s := range seeds {
		var raw []byte
		for _, v := range append([][]float32{s.q}, s.pts...) {
			raw = append(raw, bits(v)...)
		}
		body := fmt.Sprintf("go test fuzz v1\nfloat64(%v)\nuint16(%d)\n[]byte(%q)\n", s.eps, len(s.q)-1, raw)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
	}
}
