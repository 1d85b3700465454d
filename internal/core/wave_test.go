package core

import (
	"fmt"
	"testing"

	"lafdbscan/internal/cluster"
)

// waveSweep is the WaveSize settings the equivalence tests cover: the auto
// default, one query per wave, and a mid-sized wave. 40 is more than twice
// index.ForEach's default grain, so each wave of the mid size splits over
// several workers, and it still cuts the 240 LAF-DBSCAN and 129
// LAF-DBSCAN++ queries of parallelLAFData into several waves.
var waveSweep = []int{0, 1, 40}

// TestParallelLAFDBSCANWaveSizesMatchSequential pins the wave engine to the
// reference traversal with post-processing disabled: labels must be
// identical at every wave size and worker count.
func TestParallelLAFDBSCANWaveSizesMatchSequential(t *testing.T) {
	d, est := parallelLAFData(t)
	base := Config{
		Eps: 0.5, Tau: 4, Alpha: 1.3, Estimator: est, Seed: 3,
		DisablePostProcessing: true,
	}
	seq, err := referenceLAFDBSCAN(&LAFDBSCAN{Points: d.Vectors, Config: base})
	if err != nil {
		t.Fatal(err)
	}
	for _, wave := range waveSweep {
		for _, workers := range []int{1, 4} {
			cfg := base
			cfg.Workers = workers
			cfg.WaveSize = wave
			par, err := (&LAFDBSCAN{Points: d.Vectors, Config: cfg}).Run()
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("wave=%d/workers=%d", wave, workers)
			if par.RangeQueries != seq.RangeQueries || par.SkippedQueries != seq.SkippedQueries {
				t.Errorf("%s: queries %d/%d skipped, sequential %d/%d",
					name, par.RangeQueries, par.SkippedQueries, seq.RangeQueries, seq.SkippedQueries)
			}
			for i := range seq.Labels {
				if par.Labels[i] != seq.Labels[i] {
					t.Fatalf("%s: label[%d] = %d, sequential %d", name, i, par.Labels[i], seq.Labels[i])
				}
			}
		}
	}
}

// TestParallelLAFDBSCANWavePostProcessingDeterministic asserts the full
// pipeline (post-processing enabled) yields one labeling no matter the wave
// size or worker count: the complete partial-neighbor map is order-free, so
// every wave size must agree merge for merge.
func TestParallelLAFDBSCANWavePostProcessingDeterministic(t *testing.T) {
	d, est := parallelLAFData(t)
	var ref *cluster.Result
	for _, wave := range waveSweep {
		for _, workers := range []int{1, 3} {
			res, err := (&LAFDBSCAN{Points: d.Vectors, Config: Config{
				Eps: 0.5, Tau: 4, Alpha: 1.3, Estimator: est, Seed: 3,
				Workers: workers, WaveSize: wave,
			}}).Run()
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = res
				continue
			}
			name := fmt.Sprintf("wave=%d/workers=%d", wave, workers)
			if res.PostMerges != ref.PostMerges {
				t.Errorf("%s: %d merges, want %d", name, res.PostMerges, ref.PostMerges)
			}
			for i := range ref.Labels {
				if res.Labels[i] != ref.Labels[i] {
					t.Fatalf("%s: label[%d] differs", name, i)
				}
			}
		}
	}
}

// TestParallelLAFDBSCANPPWaveSizesMatchSequential is the same pin for
// LAF-DBSCAN++: same seed selects the same sample, and with post-processing
// disabled the labels must be identical at every wave size.
func TestParallelLAFDBSCANPPWaveSizesMatchSequential(t *testing.T) {
	d, est := parallelLAFData(t)
	base := Config{
		Eps: 0.5, Tau: 4, Alpha: 1.0, Estimator: est, Seed: 5,
		DisablePostProcessing: true,
	}
	seq, err := referenceLAFDBSCANPP(&LAFDBSCANPP{Points: d.Vectors, P: 0.5, Config: base})
	if err != nil {
		t.Fatal(err)
	}
	for _, wave := range waveSweep {
		for _, workers := range []int{1, 4} {
			cfg := base
			cfg.Workers = workers
			cfg.WaveSize = wave
			par, err := (&LAFDBSCANPP{Points: d.Vectors, P: 0.5, Config: cfg}).Run()
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("wave=%d/workers=%d", wave, workers)
			if par.RangeQueries != seq.RangeQueries || par.SkippedQueries != seq.SkippedQueries {
				t.Errorf("%s: query accounting differs", name)
			}
			for i := range seq.Labels {
				if par.Labels[i] != seq.Labels[i] {
					t.Fatalf("%s: label[%d] = %d, sequential %d", name, i, par.Labels[i], seq.Labels[i])
				}
			}
		}
	}
}
