package lafdbscan

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"lafdbscan/internal/bench"
)

// TestWaveSizeKnobLabelEquality pins the facade-level WaveSize knob: every
// setting — auto (0) and explicit wave sizes — must produce labels
// identical to sequential DBSCAN.
func TestWaveSizeKnobLabelEquality(t *testing.T) {
	d := GenerateMixture("wave-knob", MixtureConfig{
		N: 400, Dim: 32, Clusters: 6, MinSpread: 0.25, MaxSpread: 0.5,
		NoiseFrac: 0.2, Seed: 91,
	})
	p := Params{Eps: 0.5, Tau: 4}
	seq, err := DBSCAN(d.Vectors, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, wave := range []int{0, 5, 128} {
		pp := p
		pp.Workers = 2
		pp.WaveSize = wave
		res, err := DBSCAN(d.Vectors, pp)
		if err != nil {
			t.Fatal(err)
		}
		if res.RangeQueries != seq.RangeQueries {
			t.Errorf("wave=%d: %d queries, sequential %d", wave, res.RangeQueries, seq.RangeQueries)
		}
		for i := range seq.Labels {
			if res.Labels[i] != seq.Labels[i] {
				t.Fatalf("wave=%d: label[%d] = %d, sequential %d", wave, i, res.Labels[i], seq.Labels[i])
			}
		}
		ari, err := ARI(seq.Labels, res.Labels)
		if err != nil {
			t.Fatal(err)
		}
		if ari != 1.0 {
			t.Errorf("wave=%d: ARI = %v, want 1.0", wave, ari)
		}
	}
}

// TestDBSCANPPEngineInvariance pins DBSCAN++'s Workers and WaveSize knobs:
// the wave engine draws the same sample and finds the same cores as the
// sequential one, so every setting fits the same labels, core mask, forest
// and query count.
func TestDBSCANPPEngineInvariance(t *testing.T) {
	d := GenerateMixture("pp-engines", MixtureConfig{
		N: 400, Dim: 32, Clusters: 6, MinSpread: 0.25, MaxSpread: 0.5,
		NoiseFrac: 0.2, Seed: 92,
	})
	fit := func(workers, wave int) *Result {
		m, err := Fit(context.Background(), d.Vectors, MethodDBSCANPP,
			WithEps(0.5), WithTau(4), WithSampleFraction(0.4), WithSeed(3),
			WithWorkers(workers), WithWaveSize(wave))
		if err != nil {
			t.Fatal(err)
		}
		return m.Result()
	}
	seq := fit(0, 0)
	if seq.Algorithm != "DBSCAN++" || seq.NumClusters == 0 {
		t.Fatalf("sequential fit: algorithm %q, %d clusters", seq.Algorithm, seq.NumClusters)
	}
	for _, workers := range []int{0, 1, 2, 4} {
		for _, wave := range []int{0, 1, 16} {
			res := fit(workers, wave)
			name := fmt.Sprintf("workers=%d/wave=%d", workers, wave)
			if !slices.Equal(res.Labels, seq.Labels) {
				t.Errorf("%s: labels differ from the sequential engine's", name)
			}
			if !slices.Equal(res.Core, seq.Core) {
				t.Errorf("%s: core mask differs from the sequential engine's", name)
			}
			if !slices.Equal(res.Forest, seq.Forest) {
				t.Errorf("%s: forest differs from the sequential engine's", name)
			}
			if res.RangeQueries != seq.RangeQueries {
				t.Errorf("%s: %d queries, sequential %d", name, res.RangeQueries, seq.RangeQueries)
			}
		}
	}
}

// TestWaveEngineMemoryFootprint is the wave engine's memory criterion: on
// the largest synthetic benchmark dataset, bounded waves' measured
// allocations — cumulative and peak live heap above baseline — must be
// strictly below those of one wave holding all n queries, which keeps
// every neighbor list in flight at once. Labels must agree, so the saving
// is free.
func TestWaveEngineMemoryFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping memory measurement in -short mode")
	}
	d := GenerateMixture("wave-mem", MixtureConfig{
		N: 2500, Dim: 256, Clusters: 20, MinSpread: 0.2, MaxSpread: 0.6,
		NoiseFrac: 0.2, SizeSkew: 1.1, EffectiveDim: 48, Seed: 77,
	})
	run := func(wave int) (*Result, bench.MemSample) {
		var res *Result
		var err error
		sample := bench.MeasureMem(func() {
			res, err = DBSCAN(d.Vectors, Params{
				Eps: 0.5, Tau: 4, Workers: 2, WaveSize: wave,
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, sample
	}
	n := d.Len()
	whole, wholeMem := run(n)
	waved, waveMem := run(256)
	for i := range whole.Labels {
		if waved.Labels[i] != whole.Labels[i] {
			t.Fatalf("label[%d] = %d, single wave %d", i, waved.Labels[i], whole.Labels[i])
		}
	}
	t.Logf("wave=%d: total=%s objects=%d peak-extra=%s", n,
		fmtBytes(wholeMem.TotalAllocBytes), wholeMem.Mallocs, fmtBytes(wholeMem.PeakExtraBytes))
	t.Logf("wave=256: total=%s objects=%d peak-extra=%s",
		fmtBytes(waveMem.TotalAllocBytes), waveMem.Mallocs, fmtBytes(waveMem.PeakExtraBytes))
	if waveMem.TotalAllocBytes >= wholeMem.TotalAllocBytes {
		t.Errorf("wave=256 allocated %d bytes, want < single wave's %d",
			waveMem.TotalAllocBytes, wholeMem.TotalAllocBytes)
	}
	if waveMem.PeakExtraBytes >= wholeMem.PeakExtraBytes {
		t.Errorf("wave=256 peak extra %d bytes, want < single wave's %d",
			waveMem.PeakExtraBytes, wholeMem.PeakExtraBytes)
	}
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}
