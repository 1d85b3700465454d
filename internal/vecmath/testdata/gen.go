// Command gen regenerates the committed fuzz seed corpus for
// FuzzAppendCosineUnitRange: near-eps pairs at dimensions 1, 7, 8, 9, 200
// and 768, non-unit norms in [0.5, 2], zero vectors, NaN, ±Inf, subnormal
// and overflowing components, at eps 1e-9, 0.55, 2 and 2.5. Plain
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

func main() {
	out := flag.String("out", "internal/vecmath/testdata/fuzz/FuzzAppendCosineUnitRange", "corpus directory")
	flag.Parse()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
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

	for name, s := range seeds {
		var raw []byte
		for _, v := range append([][]float32{s.q}, s.pts...) {
			for _, x := range v {
				raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(x))
			}
		}
		body := fmt.Sprintf("go test fuzz v1\nfloat64(%v)\nuint16(%d)\n[]byte(%q)\n", s.eps, len(s.q)-1, raw)
		if err := os.WriteFile(filepath.Join(*out, name), []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
	}
}
