package lafdbscan

// HNSW benchmarks: build cost, range-query scaling against the exact scan,
// and model prediction over the approximate index. The scaling story is the
// point — BenchmarkHNSWRange runs the same query workload at 10k and 100k
// points for both backends, and the committed baseline shows the brute scan
// growing ~10x per 10x data where the graph grows well under 4x. CI gates
// allocs/op through benchguard like every other benchmark; the nightly
// recall sweep (cmd/lafrecall) guards quality.

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// hnswBenchEps is the query radius of the HNSW benchmarks, chosen so
// neighborhoods on the mixture below hold a few dozen points — the regime
// DBSCAN queries live in.
const hnswBenchEps = 0.3

var (
	hnswBenchMu      sync.Mutex
	hnswBenchSets    = map[int]*Dataset{}
	hnswBenchIndexes = map[string]RangeIndex{}
)

// hnswBenchData returns (cached) n points of a fixed clustered mixture.
func hnswBenchData(b *testing.B, n int) *Dataset {
	b.Helper()
	hnswBenchMu.Lock()
	defer hnswBenchMu.Unlock()
	if d, ok := hnswBenchSets[n]; ok {
		return d
	}
	// Cluster count scales with n so neighborhood sizes stay roughly
	// constant across scales — growing n at fixed density, the way a
	// corpus grows. With a fixed cluster count an eps-ball would hold a
	// constant fraction of the data and every backend would scale linearly
	// in the output size alone.
	d := GenerateMixture(fmt.Sprintf("hnsw-bench-%d", n), MixtureConfig{
		N: n, Dim: 24, Clusters: n / 500, MinSpread: 0.08, MaxSpread: 0.15,
		NoiseFrac: 0.1, Seed: 41,
	})
	hnswBenchSets[n] = d
	return d
}

// hnswBenchIndex returns a (cached) index over n benchmark points built
// through the backend registry.
func hnswBenchIndex(b *testing.B, backend string, n int) RangeIndex {
	b.Helper()
	d := hnswBenchData(b, n)
	hnswBenchMu.Lock()
	defer hnswBenchMu.Unlock()
	key := fmt.Sprintf("%s/%d", backend, n)
	if idx, ok := hnswBenchIndexes[key]; ok {
		return idx
	}
	p := Params{Eps: hnswBenchEps, Tau: 5, Seed: 1, IndexBackend: backend}
	idx, _, err := p.NewIndex(d.Vectors, MetricCosine)
	if err != nil {
		b.Fatal(err)
	}
	hnswBenchIndexes[key] = idx
	return idx
}

// BenchmarkHNSWBuild measures graph construction — the price paid once per
// dataset for sub-linear queries afterwards.
func BenchmarkHNSWBuild(b *testing.B) {
	d := hnswBenchData(b, 10_000)
	p := Params{Eps: hnswBenchEps, Tau: 5, Seed: 1, IndexBackend: "hnsw"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.NewIndex(d.Vectors, MetricCosine); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHNSWBuildGloVe measures graph construction at the shape of the
// benchmark's hnsw-glove workload: 2,000 GloVe-like 200-d points from the
// fixed corpus 2, where the distance kernel, not the graph bookkeeping,
// dominates the build.
func BenchmarkHNSWBuildGloVe(b *testing.B) {
	vecs := GloVeLike(2_000, 2).Vectors
	p := Params{Seed: 1, IndexBackend: "hnsw"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.NewIndex(vecs, MetricCosine); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHNSWRange runs a fixed 64-query workload per iteration against
// prebuilt indexes at two scales for both backends. Compare the n=10000 →
// n=100000 growth per backend: the exact scan is linear in n, the graph is
// not.
func BenchmarkHNSWRange(b *testing.B) {
	for _, backend := range []string{"hnsw", "brute"} {
		for _, n := range []int{10_000, 100_000} {
			b.Run(fmt.Sprintf("%s/n=%d", backend, n), func(b *testing.B) {
				d := hnswBenchData(b, n)
				idx := hnswBenchIndex(b, backend, n)
				// A spread of queries across the dataset, reused every
				// iteration so backends see identical workloads.
				queries := make([][]float32, 0, 64)
				for i := 0; len(queries) < 64; i += n / 64 {
					queries = append(queries, d.Vectors[i])
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, q := range queries {
						idx.RangeSearch(q, hnswBenchEps)
					}
				}
			})
		}
	}
}

// BenchmarkHNSWPredict measures out-of-sample assignment through a model
// fitted over the approximate index — one HNSW range query per vector.
func BenchmarkHNSWPredict(b *testing.B) {
	d := hnswBenchData(b, 10_000)
	model, err := Fit(context.Background(), d.Vectors[:9_000], MethodDBSCAN,
		WithEps(hnswBenchEps), WithTau(5), WithSeed(1), WithIndexBackend("hnsw"))
	if err != nil {
		b.Fatal(err)
	}
	batch := d.Vectors[9_000:9_100]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := model.PredictWithOptions(context.Background(), batch, PredictOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
