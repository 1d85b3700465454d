package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"

	"lafdbscan/internal/cardest"
	"lafdbscan/internal/cluster"
	"lafdbscan/internal/index"
)

// OpenGate is the cardinality estimator whose every estimate is +Inf, so
// every point passes the gate at any Alpha: no range query is skipped, the
// partial-neighbor map stays empty and post-processing has nothing to
// repair. LAFDBSCAN and LAFDBSCANPP run with it are the original DBSCAN
// (Algorithm 1 without the gate lines) and DBSCAN++, and name their
// results "DBSCAN" and "DBSCAN++".
var OpenGate cardest.Estimator = openGate{}

type openGate struct{}

func (openGate) Estimate([]float32, float64) float64 { return math.Inf(1) }
func (openGate) Name() string                        { return "open-gate" }

// PostProcess is Algorithm 3 (PostProcessing): detect false-negative stop
// points — entries of E with at least tau partial neighbors — and merge the
// clusters their neighbors were separated into. For each such point a random
// non-noise neighbor's cluster becomes the destination; the clusters of all
// its neighbors merge into it, and the point itself joins it when noise.
// Entries are visited in ascending point id and each row in ascending id,
// so a fixed rng seed reproduces runs whatever order the rows were filled
// in.
//
// labels is modified in place; e is only read, and nil means no entries.
// The returned count is the number of cluster merges performed
// (distinct-cluster unions), reported by the harness.
func PostProcess(labels []int, e *cluster.PartialNeighbors, tau int, rng *rand.Rand) int {
	if e == nil {
		return 0
	}
	uf := cluster.NewUnionFind()
	merges := 0
	var neighbors, nonNoise []int
	for p, row := range e.Rows {
		if !e.Stop[p] || len(row) < tau {
			continue
		}
		neighbors = neighbors[:0]
		for _, q := range row {
			neighbors = append(neighbors, int(q))
		}
		sort.Ints(neighbors)
		// Randomly select a non-noise neighbor as the destination cluster.
		nonNoise = nonNoise[:0]
		for _, q := range neighbors {
			if labels[q] != cluster.Noise {
				nonNoise = append(nonNoise, q)
			}
		}
		if len(nonNoise) == 0 {
			continue // nothing to merge into
		}
		dest := uf.Find(labels[nonNoise[rng.Intn(len(nonNoise))]])
		// Merge the clusters of E(P) into the destination cluster.
		for _, q := range nonNoise {
			if root := uf.Find(labels[q]); root != dest {
				dest = uf.Union(root, dest)
				merges++
			}
		}
		// The detected false-negative core point joins the destination.
		if labels[p] == cluster.Noise {
			labels[p] = dest
		}
	}
	for i, l := range labels {
		if l != cluster.Noise {
			labels[i] = uf.Find(l)
		}
	}
	return merges
}

// Config carries the parameters shared by the LAF-enhanced algorithms.
type Config struct {
	// Eps and Tau are the DBSCAN density parameters.
	Eps float64
	Tau int
	// Alpha is LAF's error factor: a point is predicted core when
	// CardEst(P) >= Alpha*Tau. The paper sets it per dataset (Table 1).
	Alpha float64
	// Estimator predicts range-query cardinalities. Required.
	Estimator cardest.Estimator
	// Seed drives post-processing's random destination choice (and the
	// sample in LAF-DBSCAN++).
	Seed int64
	// DisablePostProcessing turns Algorithm 3 off, for ablations.
	DisablePostProcessing bool
	// Workers is the size of the worker pool the engine gates, queries
	// and assigns on; <= 0 selects GOMAXPROCS. It changes speed only: the
	// result is identical at every setting. The Estimator must be safe for
	// concurrent use (all implementations in internal/cardest are).
	Workers int
	// WaveSize bounds the engine's neighbor-discovery memory: range
	// queries run in waves of this many and each wave's lists are dropped
	// as soon as their facts are folded in. <= 0 selects
	// index.DefaultWaveSize. Labels are identical at every setting.
	WaveSize int
}

// algorithm names the result of an engine whose LAF name is "LAF-"+base:
// plain base under OpenGate.
func (c *Config) algorithm(base string) string {
	if c.Estimator == OpenGate {
		return base
	}
	return "LAF-" + base
}

func (c *Config) validate(n int) error {
	if c.Estimator == nil {
		return fmt.Errorf("core: nil cardinality estimator")
	}
	if c.Alpha <= 0 {
		return fmt.Errorf("core: alpha must be positive, got %v", c.Alpha)
	}
	if c.Eps <= 0 {
		return fmt.Errorf("core: eps must be positive, got %v", c.Eps)
	}
	if c.Tau < 1 {
		return fmt.Errorf("core: tau must be at least 1, got %d", c.Tau)
	}
	if n == 0 {
		return fmt.Errorf("core: empty dataset")
	}
	return nil
}

// Gate is LAF's estimator gate over points: mask[i] reports whether
// point i is predicted core (CardEst >= Alpha·Tau) and so runs its range
// query. The points are estimated in parallel over cfg.Workers workers
// (<= 0 selects GOMAXPROCS). ctx is checked
// before the first estimate and before every cluster.CtxCheckEvery-th;
// once it is done no further estimate starts and Gate returns ctx.Err().
func Gate(ctx context.Context, points [][]float32, cfg Config) ([]bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mask := make([]bool, len(points))
	var stopped atomic.Bool
	index.ForEach(len(points), cfg.Workers, 0, func(i int) {
		if stopped.Load() {
			return
		}
		if cluster.CheckCtx(ctx, i) != nil {
			stopped.Store(true)
			return
		}
		mask[i] = cfg.predictedCore(points[i])
	})
	if stopped.Load() {
		return nil, ctx.Err()
	}
	return mask, nil
}

// predictedCore is the gate's predicate: CardEst(p) >= Alpha·Tau.
func (c Config) predictedCore(p []float32) bool {
	return c.Estimator.Estimate(p, c.Eps) >= c.Alpha*float64(c.Tau)
}

// PredictedCoreRatio returns Rc, the fraction of points the estimator
// predicts as core at the given parameters. The paper derives DBSCAN++'s
// sample fraction from it: p = delta + Rc.
func PredictedCoreRatio(points [][]float32, est cardest.Estimator, eps float64, tau int, alpha float64) float64 {
	if len(points) == 0 {
		return 0
	}
	cfg := Config{Eps: eps, Tau: tau, Alpha: alpha, Estimator: est}
	core := 0
	for _, p := range points {
		if cfg.predictedCore(p) {
			core++
		}
	}
	return float64(core) / float64(len(points))
}
