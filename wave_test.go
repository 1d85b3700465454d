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
// identical to DBSCAN's at the default settings.
func TestWaveSizeKnobLabelEquality(t *testing.T) {
	d := GenerateMixture("wave-knob", MixtureConfig{
		N: 400, Dim: 32, Clusters: 6, MinSpread: 0.25, MaxSpread: 0.5,
		NoiseFrac: 0.2, Seed: 91,
	})
	p := Params{Eps: 0.5, Tau: 4}
	seq, err := Cluster(d.Vectors, MethodDBSCAN, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, wave := range []int{0, 5, 128} {
		pp := p
		pp.Workers = 2
		pp.WaveSize = wave
		res, err := Cluster(d.Vectors, MethodDBSCAN, pp)
		if err != nil {
			t.Fatal(err)
		}
		if res.RangeQueries != seq.RangeQueries {
			t.Errorf("wave=%d: %d queries, default %d", wave, res.RangeQueries, seq.RangeQueries)
		}
		for i := range seq.Labels {
			if res.Labels[i] != seq.Labels[i] {
				t.Fatalf("wave=%d: label[%d] = %d, default %d", wave, i, res.Labels[i], seq.Labels[i])
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

// TestDBSCANPPEngineInvariance pins the ++ variants' Workers and WaveSize
// knobs: every setting draws the same sample, finds the same cores and
// folds the same nearest cores as the default, so DBSCAN++ and
// LAF-DBSCAN++ fit the same labels, core mask, forest and query counts.
func TestDBSCANPPEngineInvariance(t *testing.T) {
	d := GenerateMixture("pp-engines", MixtureConfig{
		N: 400, Dim: 32, Clusters: 6, MinSpread: 0.25, MaxSpread: 0.5,
		NoiseFrac: 0.2, Seed: 92,
	})
	est := ExactEstimator(d.Vectors)
	for _, m := range []Method{MethodDBSCANPP, MethodLAFDBSCANPP} {
		fit := func(workers, wave int) *Result {
			opts := []FitOption{WithEps(0.5), WithTau(4), WithSampleFraction(0.4), WithSeed(3),
				WithWorkers(workers), WithWaveSize(wave)}
			if m == MethodLAFDBSCANPP {
				opts = append(opts, WithAlpha(2), WithEstimator(est))
			}
			model, err := Fit(context.Background(), d.Vectors, m, opts...)
			if err != nil {
				t.Fatal(err)
			}
			return model.Result()
		}
		seq := fit(0, 0)
		want := "DBSCAN++"
		if m == MethodLAFDBSCANPP {
			want = "LAF-DBSCAN++"
		}
		if seq.Algorithm != want || seq.NumClusters == 0 {
			t.Fatalf("%s: default fit: algorithm %q, %d clusters", m, seq.Algorithm, seq.NumClusters)
		}
		if m == MethodLAFDBSCANPP && seq.SkippedQueries == 0 {
			t.Fatalf("%s: the gate skipped no query; the test needs stop points", m)
		}
		for _, workers := range []int{0, 1, 2, 4} {
			for _, wave := range []int{0, 1, 7, 16} {
				res := fit(workers, wave)
				name := fmt.Sprintf("%s/workers=%d/wave=%d", m, workers, wave)
				if !slices.Equal(res.Labels, seq.Labels) {
					t.Errorf("%s: labels differ from the default fit's", name)
				}
				if !slices.Equal(res.Core, seq.Core) {
					t.Errorf("%s: core mask differs from the default fit's", name)
				}
				if res.RangeQueries != seq.RangeQueries || res.SkippedQueries != seq.SkippedQueries {
					t.Errorf("%s: %d/%d queries, default %d/%d", name,
						res.RangeQueries, res.SkippedQueries, seq.RangeQueries, seq.SkippedQueries)
				}
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
			res, err = Cluster(d.Vectors, MethodDBSCAN, Params{
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

// TestEngineInvariance pins Params.Workers to speed alone: DBSCAN,
// DBSCAN++, LAF-DBSCAN and LAF-DBSCAN++, with post-processing on and off,
// fit identical labels, core masks, forests, cluster counts, merge counts
// and query counts at every worker count, the default 0 and WorkersAuto
// included. The LAF fits gate with α 2 over the exact oracle, so
// post-processing merges: an engine whose partial-neighbor map depended on
// the order it visited points would repair differently and fail here.
func TestEngineInvariance(t *testing.T) {
	d := GloVeLike(400, 17)
	est := ExactEstimator(d.Vectors)
	for _, m := range []Method{MethodDBSCAN, MethodDBSCANPP, MethodLAFDBSCAN, MethodLAFDBSCANPP} {
		laf := m == MethodLAFDBSCAN || m == MethodLAFDBSCANPP
		for _, post := range []bool{true, false} {
			var ref *Result
			merges := 0
			for _, workers := range []int{0, 1, 2, 4, WorkersAuto} {
				opts := []FitOption{WithEps(0.55), WithTau(4), WithSeed(3), WithSampleFraction(0.8), WithWorkers(workers)}
				if laf {
					opts = append(opts, WithAlpha(2), WithEstimator(est))
				}
				if !post {
					opts = append(opts, WithoutPostProcessing())
				}
				model, err := Fit(context.Background(), d.Vectors, m, opts...)
				if err != nil {
					t.Fatal(err)
				}
				res := model.Result()
				merges = max(merges, res.PostMerges)
				if ref == nil {
					ref = res
					continue
				}
				name := fmt.Sprintf("%s/post=%v/workers=%d", m, post, workers)
				if !slices.Equal(res.Labels, ref.Labels) || !slices.Equal(res.Core, ref.Core) {
					t.Errorf("%s: labels or core mask differ from workers=0", name)
				}
				if res.NumClusters != ref.NumClusters || res.PostMerges != ref.PostMerges ||
					res.RangeQueries != ref.RangeQueries || res.SkippedQueries != ref.SkippedQueries {
					t.Errorf("%s: %d clusters, %d merges, %d/%d queries; workers=0 %d, %d, %d/%d", name,
						res.NumClusters, res.PostMerges, res.RangeQueries, res.SkippedQueries,
						ref.NumClusters, ref.PostMerges, ref.RangeQueries, ref.SkippedQueries)
				}
			}
			if laf && post && merges == 0 {
				t.Errorf("%s: post-processing merged nothing; the test needs merges", m)
			}
		}
	}
}
