package cluster_test

import (
	"testing"

	"lafdbscan/internal/cluster"
	"lafdbscan/internal/core"
	"lafdbscan/internal/dataset"
	"lafdbscan/internal/metrics"
)

// evalDataset is a moderately hard mixture shared by the variant tests.
func evalDataset() *dataset.Dataset {
	return dataset.GenerateMixture("eval", dataset.MixtureConfig{
		N: 500, Dim: 32, Clusters: 6, MinSpread: 0.2, MaxSpread: 0.4,
		NoiseFrac: 0.2, SizeSkew: 1.0, Seed: 31,
	})
}

// groundTruth clusters with exact DBSCAN, the paper's reference.
func groundTruth(t *testing.T, d *dataset.Dataset, eps float64, tau int) *cluster.Result {
	t.Helper()
	res, err := (&core.LAFDBSCAN{Points: d.Vectors, Config: openGate(eps, tau)}).Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func ariAgainst(t *testing.T, truth, approx *cluster.Result) float64 {
	t.Helper()
	ari, err := metrics.ARI(truth.Labels, approx.Labels)
	if err != nil {
		t.Fatal(err)
	}
	return ari
}

func TestDBSCANPPTracksDBSCAN(t *testing.T) {
	d := evalDataset()
	const eps, tau = 0.5, 4
	truth := groundTruth(t, d, eps, tau)
	res, err := runDBSCANPP(d.Vectors, eps, tau, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ari := ariAgainst(t, truth, res); ari < 0.6 {
		t.Errorf("DBSCAN++ ARI = %v, want >= 0.6 at p=0.5", ari)
	}
	if res.RangeQueries > 260 {
		t.Errorf("DBSCAN++ ran %d range queries for a 50%% sample of 500", res.RangeQueries)
	}
}

func TestDBSCANPPFullSampleNearExact(t *testing.T) {
	d := evalDataset()
	const eps, tau = 0.5, 4
	truth := groundTruth(t, d, eps, tau)
	res, err := runDBSCANPP(d.Vectors, eps, tau, 1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	// With p=1 all cores are found; only border tie-breaks may differ.
	if ari := ariAgainst(t, truth, res); ari < 0.95 {
		t.Errorf("DBSCAN++ at p=1 ARI = %v, want >= 0.95", ari)
	}
}

func TestDBSCANPPValidation(t *testing.T) {
	d := dataset.TwoBlobs(4, 1)
	for _, p := range []float64{0, -0.5, 1.5} {
		if _, err := runDBSCANPP(d.Vectors, 0.3, 2, p, 0); err == nil {
			t.Errorf("sample fraction %v accepted", p)
		}
	}
}

func TestDBSCANPPSmallSampleStillRuns(t *testing.T) {
	d := dataset.TwoBlobs(30, 3)
	res, err := runDBSCANPP(d.Vectors, 0.3, 3, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != d.Len() {
		t.Fatal("wrong label count")
	}
}

func TestKNNBlockHighBudgetTracksDBSCAN(t *testing.T) {
	d := evalDataset()
	const eps, tau = 0.5, 4
	truth := groundTruth(t, d, eps, tau)
	res, err := (&cluster.KNNBlock{Points: d.Vectors, Eps: eps, Tau: tau,
		Branching: 10, LeavesRatio: 1.0, Seed: 1}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if ari := ariAgainst(t, truth, res); ari < 0.5 {
		t.Errorf("KNN-BLOCK full-budget ARI = %v, want >= 0.5", ari)
	}
}

func TestKNNBlockQualityDegradesWithLeafBudget(t *testing.T) {
	d := evalDataset()
	const eps, tau = 0.5, 4
	truth := groundTruth(t, d, eps, tau)
	full, err := (&cluster.KNNBlock{Points: d.Vectors, Eps: eps, Tau: tau,
		Branching: 10, LeavesRatio: 1.0, Seed: 1}).Run()
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := (&cluster.KNNBlock{Points: d.Vectors, Eps: eps, Tau: tau,
		Branching: 10, LeavesRatio: 0.01, Seed: 1}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if ariAgainst(t, truth, tiny) > ariAgainst(t, truth, full)+0.05 {
		t.Error("tiny leaf budget beat the full budget; recall knob inverted")
	}
}

func TestKNNBlockValidation(t *testing.T) {
	d := dataset.TwoBlobs(4, 1)
	if _, err := (&cluster.KNNBlock{Points: d.Vectors, Eps: 0.3, Tau: 2, Branching: 1}).Run(); err == nil {
		t.Error("branching=1 accepted")
	}
}

func TestBlockDBSCANTracksDBSCAN(t *testing.T) {
	d := evalDataset()
	const eps, tau = 0.5, 4
	truth := groundTruth(t, d, eps, tau)
	res, err := (&cluster.BlockDBSCAN{Points: d.Vectors, Eps: eps, Tau: tau, Base: 2, RNT: 10, Seed: 1}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if ari := ariAgainst(t, truth, res); ari < 0.6 {
		t.Errorf("BLOCK-DBSCAN ARI = %v, want >= 0.6", ari)
	}
}

func TestBlockDBSCANDefaultsApplied(t *testing.T) {
	d := dataset.TwoBlobs(10, 5)
	res, err := (&cluster.BlockDBSCAN{Points: d.Vectors, Eps: 0.3, Tau: 3}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 2 {
		t.Errorf("TwoBlobs clusters = %d, want 2", res.NumClusters)
	}
}

func TestBlockDBSCANValidation(t *testing.T) {
	d := dataset.TwoBlobs(4, 1)
	if _, err := (&cluster.BlockDBSCAN{Points: d.Vectors, Eps: 0.3, Tau: 2, Base: 0.9}).Run(); err == nil {
		t.Error("base <= 1 accepted")
	}
}

func TestBlockDBSCANUsesFewerQueriesOnDenseData(t *testing.T) {
	// Blocking pays off when many points share an eps/2 ball, i.e. on tight
	// clusters relative to eps.
	d := dataset.GenerateMixture("dense", dataset.MixtureConfig{
		N: 500, Dim: 32, Clusters: 4, MinSpread: 0.05, MaxSpread: 0.1,
		NoiseFrac: 0.05, Seed: 33,
	})
	const eps, tau = 0.5, 4
	truth := groundTruth(t, d, eps, tau)
	res, err := (&cluster.BlockDBSCAN{Points: d.Vectors, Eps: eps, Tau: tau, Seed: 1}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.RangeQueries >= truth.RangeQueries {
		t.Errorf("BLOCK-DBSCAN queries %d >= DBSCAN %d; blocking ineffective",
			res.RangeQueries, truth.RangeQueries)
	}
	if ari := ariAgainst(t, truth, res); ari < 0.9 {
		t.Errorf("dense-data ARI = %v, want >= 0.9", ari)
	}
}

func TestRhoApproxMatchesDBSCANAtRhoZero(t *testing.T) {
	d := evalDataset()
	const eps, tau = 0.5, 4
	truth := groundTruth(t, d, eps, tau)
	res, err := (&cluster.RhoApprox{Points: d.Vectors, Eps: eps, Tau: tau, Rho: 0}).Run()
	if err != nil {
		t.Fatal(err)
	}
	// rho=0 grid queries are exact, so the clustering must match exactly.
	if ari := ariAgainst(t, truth, res); ari < 0.999 {
		t.Errorf("rho=0 ARI = %v, want 1", ari)
	}
}

func TestRhoApproxRelaxedProducesValidLabeling(t *testing.T) {
	// At rho=1 the density criterion is so loose that quality collapses;
	// the paper accordingly reports only its running time (Table 4). The
	// labeling must still be structurally valid.
	d := evalDataset()
	const eps, tau = 0.5, 4
	res, err := (&cluster.RhoApprox{Points: d.Vectors, Eps: eps, Tau: tau, Rho: 1.0}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != d.Len() {
		t.Fatal("wrong label count")
	}
	for _, l := range res.Labels {
		if l == cluster.Undefined {
			t.Fatal("undefined label leaked")
		}
		if l != cluster.Noise && (l < 1 || l > res.NumClusters) {
			t.Fatalf("label %d out of range", l)
		}
	}
	// Relaxation can only merge, never split, so at most as many clusters
	// as exact DBSCAN finds plus rounding noise.
	truth := groundTruth(t, d, eps, tau)
	if res.NumClusters > truth.NumClusters {
		t.Errorf("rho=1 found %d clusters, exact %d; relaxation should merge",
			res.NumClusters, truth.NumClusters)
	}
}

func TestRhoApproxValidation(t *testing.T) {
	d := dataset.TwoBlobs(4, 1)
	if _, err := (&cluster.RhoApprox{Points: d.Vectors, Eps: 0.3, Tau: 2, Rho: -1}).Run(); err == nil {
		t.Error("negative rho accepted")
	}
}
