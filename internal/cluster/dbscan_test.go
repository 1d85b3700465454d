package cluster_test

// The tests in this package compare the cluster package's engine-shared
// machinery and its baselines against exact DBSCAN and DBSCAN++, which run
// on internal/core's LAF engines with the open gate. internal/core imports
// this package, so these tests live in the external test package; the
// tests that pin the wave engine and merger to the paper's traversal live
// beside that reference, in internal/core's reference_test.go.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lafdbscan/internal/cluster"
	"lafdbscan/internal/core"
	"lafdbscan/internal/dataset"
	"lafdbscan/internal/metrics"
)

// openGate runs the LAF engines as exact DBSCAN and DBSCAN++.
func openGate(eps float64, tau int) core.Config {
	return core.Config{Eps: eps, Tau: tau, Alpha: 1, Estimator: core.OpenGate, DisablePostProcessing: true}
}

// waveConfig is openGate on the wave engine.
func waveConfig(eps float64, tau, workers, wave int) core.Config {
	cfg := openGate(eps, tau)
	cfg.Workers, cfg.WaveSize = workers, wave
	return cfg
}

// runDBSCAN is a test helper for plain DBSCAN.
func runDBSCAN(t *testing.T, points [][]float32, eps float64, tau int) *cluster.Result {
	t.Helper()
	res, err := (&core.LAFDBSCAN{Points: points, Config: openGate(eps, tau)}).Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runDBSCANPP runs DBSCAN++ at sample fraction p with the given sample seed.
func runDBSCANPP(points [][]float32, eps float64, tau int, p float64, seed int64) (*cluster.Result, error) {
	cfg := openGate(eps, tau)
	cfg.Seed = seed
	return (&core.LAFDBSCANPP{Points: points, P: p, Config: cfg}).Run()
}

func TestDBSCANTwoBlobs(t *testing.T) {
	d := dataset.TwoBlobs(12, 1)
	res := runDBSCAN(t, d.Vectors, 0.3, 3)
	if res.NumClusters != 2 {
		t.Fatalf("clusters = %d, want 2", res.NumClusters)
	}
	// The 3 orthogonal noise points must be labeled noise.
	noise := 0
	for i, l := range res.Labels {
		if l == cluster.Noise {
			noise++
			if d.TrueLabels[i] != -1 {
				t.Errorf("blob point %d labeled noise", i)
			}
		}
	}
	if noise != 3 {
		t.Errorf("noise count = %d, want 3", noise)
	}
	// Within each blob all labels must agree.
	seen := map[int]int{}
	for i, l := range res.Labels {
		if l == cluster.Noise {
			continue
		}
		truth := d.TrueLabels[i]
		if prev, ok := seen[truth]; ok && prev != l {
			t.Fatalf("blob %d split across clusters %d and %d", truth, prev, l)
		}
		seen[truth] = l
	}
}

func TestDBSCANAgainstGroundTruthARI(t *testing.T) {
	d := dataset.GenerateMixture("m", dataset.MixtureConfig{
		N: 400, Dim: 48, Clusters: 6, MinSpread: 0.15, MaxSpread: 0.25,
		NoiseFrac: 0.1, Seed: 11,
	})
	res := runDBSCAN(t, d.Vectors, 0.5, 4)
	ari, err := metrics.ARI(d.TrueLabels, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.9 {
		t.Errorf("DBSCAN ARI vs generator truth = %v, want >= 0.9 on well-separated mixture", ari)
	}
}

func TestDBSCANAllNoiseWhenTauHuge(t *testing.T) {
	d := dataset.TwoBlobs(5, 2)
	res := runDBSCAN(t, d.Vectors, 0.3, 1000)
	for _, l := range res.Labels {
		if l != cluster.Noise {
			t.Fatal("expected everything noise")
		}
	}
	if res.NumClusters != 0 {
		t.Errorf("NumClusters = %d", res.NumClusters)
	}
}

func TestDBSCANSingleClusterWhenEpsHuge(t *testing.T) {
	d := dataset.TwoBlobs(5, 3)
	res := runDBSCAN(t, d.Vectors, 2.1, 1) // eps > max cosine distance
	if res.NumClusters != 1 {
		t.Fatalf("clusters = %d, want 1", res.NumClusters)
	}
	for _, l := range res.Labels {
		if l != 1 {
			t.Fatal("point not in the single cluster")
		}
	}
}

func TestDBSCANTauOneEveryPointCore(t *testing.T) {
	// With tau=1 every point is core (it is its own neighbor), so no noise.
	d := dataset.GloVeLike(80, 4)
	res := runDBSCAN(t, d.Vectors, 0.4, 1)
	for _, l := range res.Labels {
		if l == cluster.Noise {
			t.Fatal("tau=1 produced noise")
		}
	}
}

func TestDBSCANParamValidation(t *testing.T) {
	pts := [][]float32{{1, 0}}
	if _, err := (&core.LAFDBSCAN{Points: pts, Config: openGate(0, 1)}).Run(); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := (&core.LAFDBSCAN{Points: pts, Config: openGate(0.5, 0)}).Run(); err == nil {
		t.Error("tau=0 accepted")
	}
	if _, err := (&core.LAFDBSCAN{Points: nil, Config: openGate(0.5, 1)}).Run(); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestDBSCANRangeQueryCount(t *testing.T) {
	// Plain DBSCAN runs at most one range query per point, and exactly one
	// per non-border point.
	d := dataset.GloVeLike(120, 5)
	res := runDBSCAN(t, d.Vectors, 0.5, 4)
	if res.RangeQueries > 120 {
		t.Errorf("RangeQueries = %d > n", res.RangeQueries)
	}
	if res.RangeQueries == 0 {
		t.Error("no range queries recorded")
	}
	if res.SkippedQueries != 0 {
		t.Error("plain DBSCAN cannot skip queries")
	}
}

// Property: DBSCAN labelings are deterministic and every label is either
// noise or in [1, NumClusters].
func TestDBSCANLabelInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := dataset.GenerateMixture("p", dataset.MixtureConfig{
			N: 60 + r.Intn(60), Dim: 16, Clusters: 4,
			NoiseFrac: 0.2, Seed: seed,
		})
		eps := 0.3 + r.Float64()*0.5
		tau := 2 + r.Intn(4)
		res1, err := (&core.LAFDBSCAN{Points: d.Vectors, Config: openGate(eps, tau)}).Run()
		if err != nil {
			return false
		}
		res2, err := (&core.LAFDBSCAN{Points: d.Vectors, Config: openGate(eps, tau)}).Run()
		if err != nil {
			return false
		}
		for i, l := range res1.Labels {
			if l != res2.Labels[i] {
				return false
			}
			if l != cluster.Noise && (l < 1 || l > res1.NumClusters) {
				return false
			}
			if l == cluster.Undefined {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Core-point invariant: every point with >= tau neighbors must be in a
// cluster, and every cluster contains at least one core point.
func TestDBSCANCorePointInvariants(t *testing.T) {
	d := dataset.GenerateMixture("c", dataset.MixtureConfig{
		N: 250, Dim: 24, Clusters: 5, NoiseFrac: 0.25, Seed: 21,
	})
	eps, tau := 0.5, 4
	res := runDBSCAN(t, d.Vectors, eps, tau)
	countNeighbors := func(i int) int {
		c := 0
		for j := range d.Vectors {
			if cosDist(d.Vectors[i], d.Vectors[j]) < eps {
				c++
			}
		}
		return c
	}
	clusterHasCore := map[int]bool{}
	for i := range d.Vectors {
		isCore := countNeighbors(i) >= tau
		if isCore {
			if res.Labels[i] == cluster.Noise {
				t.Fatalf("core point %d labeled noise", i)
			}
			clusterHasCore[res.Labels[i]] = true
		}
	}
	for c := 1; c <= res.NumClusters; c++ {
		if !clusterHasCore[c] {
			t.Errorf("cluster %d has no core point", c)
		}
	}
}

func TestParallelDBSCANValidation(t *testing.T) {
	if _, err := (&core.LAFDBSCAN{Points: nil, Config: waveConfig(0.5, 3, -1, 0)}).Run(); err == nil {
		t.Error("empty dataset accepted")
	}
	d := dataset.TwoBlobs(5, 1)
	if _, err := (&core.LAFDBSCAN{Points: d.Vectors, Config: waveConfig(-1, 3, -1, 0)}).Run(); err == nil {
		t.Error("negative eps accepted")
	}
	if _, err := (&core.LAFDBSCAN{Points: d.Vectors, Config: waveConfig(0.5, 0, -1, 0)}).Run(); err == nil {
		t.Error("zero tau accepted")
	}
}

func cosDist(a, b []float32) float64 {
	var dot float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
	}
	return 1 - dot
}
