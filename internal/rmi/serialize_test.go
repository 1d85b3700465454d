package rmi

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"lafdbscan/internal/nn"
	"lafdbscan/internal/vecmath"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	ex, refSize := syntheticExamples(120, 21)
	model, err := Train(ex, refSize, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.InDim() != model.InDim() || loaded.NumModels() != model.NumModels() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d",
			loaded.InDim(), loaded.NumModels(), model.InDim(), model.NumModels())
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 30; i++ {
		v := vecmath.RandomUnit(8, rng)
		r := rng.Float64()
		a := model.Estimate(v, r)
		b := loaded.Estimate(v, r)
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("prediction drift after round trip: %v vs %v", a, b)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	ex, refSize := syntheticExamples(60, 23)
	model, err := Train(ex, refSize, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.rmi")
	if err := model.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumModels() != model.NumModels() {
		t.Fatal("file round trip lost models")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.rmi")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestLoadRejectsMalformedPayload(t *testing.T) {
	// Valid gob of a structurally invalid model.
	var buf bytes.Buffer
	bad := &RMI{inDim: 0, logN: 0, stages: nil}
	if err := bad.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Fatal("malformed model accepted")
	}
}

// encodePayload gob-encodes a hand-built model: three inputs, a one-model
// root and a two-model second stage of 3->2->1 networks. mutate may break it.
func encodePayload(t testing.TB, mutate func(*rmiPayload)) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	net := func() *nn.Network { return nn.NewNetwork([]int{3, 2, 1}, nn.ReLU, nn.Sigmoid, rng) }
	p := &rmiPayload{
		Version: serializeVersion, InDim: 3, LogN: math.Log1p(100),
		Stages: [][]*nn.Network{{net()}, {net(), net()}},
	}
	if mutate != nil {
		mutate(p)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// malformedPayloads are decodable models that Load must reject. The first
// two panicked on their first Estimate before Load checked shapes.
var malformedPayloads = []struct {
	name   string
	mutate func(*rmiPayload)
}{
	{"short-weights", func(p *rmiPayload) { p.Stages[0][0].Layers[0].W = p.Stages[0][0].Layers[0].W[:4] }},
	{"empty-stage", func(p *rmiPayload) { p.Stages[1] = nil }},
	{"short-bias", func(p *rmiPayload) { p.Stages[0][0].Layers[1].B = nil }},
	{"no-layers", func(p *rmiPayload) { p.Stages[1][1].Layers = nil }},
	{"unknown-activation", func(p *rmiPayload) { p.Stages[0][0].Layers[0].Act = 7 }},
	{"layer-chain", func(p *rmiPayload) {
		l := p.Stages[0][0].Layers[1]
		l.In, l.Out = 1, 2 // still 2 weights, but layer 0 gives 2 outputs
	}},
	{"two-outputs", func(p *rmiPayload) {
		l := p.Stages[1][1].Layers[1]
		l.In, l.Out, l.B = 1, 2, []float64{0, 0}
	}},
	{"indim", func(p *rmiPayload) { p.InDim = 4 }},
	{"two-roots", func(p *rmiPayload) { p.Stages[0] = p.Stages[1] }},
	{"nan-logn", func(p *rmiPayload) { p.LogN = math.NaN() }},
}

func TestLoadRejectsMalformedShapes(t *testing.T) {
	good, err := Load(bytes.NewReader(encodePayload(t, nil)))
	if err != nil {
		t.Fatalf("well-formed model rejected: %v", err)
	}
	good.Estimate([]float32{0.1, 0.2}, 0.5)
	for _, c := range malformedPayloads {
		_, err := Load(bytes.NewReader(encodePayload(t, c.mutate)))
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: Load error = %v, want ErrMalformed", c.name, err)
		}
	}
}

// FuzzLoad: whatever Load accepts must estimate without panicking. The
// committed corpus under testdata/fuzz/FuzzLoad holds a valid model and
// every malformedPayloads case.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		v := make([]float32, r.InDim()-1)
		for i := range v {
			v[i] = float32(i%3) - 1
		}
		r.Estimate(v, 0.5)
		r.EstimateWith(v, 0.25, r.NewScratch())
	})
}
