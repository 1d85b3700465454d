package bench

import (
	"os"
)

// Config fixes the workload of a harness run.
type Config struct {
	// MSScales are the three MS-like test-set sizes standing in for
	// MS-50k/100k/150k. Order matters: index 0 is the smallest.
	MSScales [3]int
	// GloveN and NYTN are the Glove-like and NYT-like test-set sizes
	// standing in for Glove-150k and NYT-150k.
	GloveN, NYTN int
	// TrainFactor is how many extra points are generated for the training
	// split: total = test*(1+TrainFactor). The paper splits 8:2, i.e.
	// TrainFactor 4.
	TrainFactor int
	// EstimatorQueries bounds the labeled query points per training set.
	EstimatorQueries int
	// EstimatorEpochs is the per-model training budget.
	EstimatorEpochs int
	// Alphas maps dataset keys to LAF-DBSCAN error factors, mirroring the
	// role of the paper's Table 1 (tuned per dataset).
	Alphas map[string]float64
	// Delta is DBSCAN++'s sample-fraction offset (paper: 0.1-0.3).
	Delta float64
	// Seed drives everything.
	Seed int64
	// Workers is how many cores the DBSCAN and LAF rows cluster on: 0 or
	// -1 all cores, 1 one core (for timings comparable with the paper's
	// single-threaded figures). Labels are identical at every setting, so
	// ground truths stay exact.
	Workers int
	// WaveSize bounds the engines' neighbor-discovery memory: queries per
	// wave (0 = auto).
	WaveSize int
}

// DefaultConfig returns the workload selected by LAF_BENCH_SCALE
// (small when unset).
func DefaultConfig() Config {
	cfg := Config{
		MSScales:         [3]int{500, 1000, 1500},
		GloveN:           1500,
		NYTN:             1500,
		TrainFactor:      4,
		EstimatorQueries: 600,
		EstimatorEpochs:  25,
		Delta:            0.2,
		Seed:             1,
	}
	switch os.Getenv("LAF_BENCH_SCALE") {
	case "medium":
		cfg.MSScales = [3]int{1000, 2000, 3000}
		cfg.GloveN, cfg.NYTN = 3000, 3000
		cfg.EstimatorQueries = 800
	case "large":
		cfg.MSScales = [3]int{2000, 4000, 6000}
		cfg.GloveN, cfg.NYTN = 6000, 6000
		cfg.EstimatorQueries = 800
		cfg.EstimatorEpochs = 25
	}
	// Error factors per dataset key. The paper tunes these ad hoc per
	// dataset (its Table 1: NYT 1.15, Glove 2.0, MS-50k 1.5, MS-100k 2.0,
	// MS-150k 7.7); the same ordering — larger alpha for larger or
	// higher-dimensional sets — applies here at gentler magnitudes suited
	// to the synthetic distributions.
	cfg.Alphas = map[string]float64{
		KeyNYT:     1.05,
		KeyGlove:   1.1,
		KeyMSSmall: 1.1,
		KeyMSMid:   1.15,
		KeyMSLarge: 1.2,
	}
	return cfg
}

// Dataset keys used across the harness.
const (
	KeyNYT     = "NYT-like"
	KeyGlove   = "GloVe-like"
	KeyMSSmall = "MS-like-S"
	KeyMSMid   = "MS-like-M"
	KeyMSLarge = "MS-like-L"
)

// Setting is one (eps, tau) pair.
type Setting struct {
	Eps float64
	Tau int
}

// PaperSettings are the three (ε, τ) pairs the paper reports throughout:
// (0.5, 3), (0.55, 5), (0.6, 5).
func PaperSettings() []Setting {
	return []Setting{{0.5, 3}, {0.55, 5}, {0.6, 5}}
}

// GridSettings are the five (ε, τ) pairs of the paper's Table 2 selection
// study.
func GridSettings() []Setting {
	return []Setting{{0.5, 3}, {0.5, 5}, {0.55, 5}, {0.6, 5}, {0.7, 5}}
}
