package lafdbscan

// Integration tests pinning the paper's headline claims at test scale.
// Where possible the assertions use range-query counts rather than wall
// time, so they stay robust on loaded CI machines; the full harness
// (internal/bench, run via `go test -bench .`) reports the wall-time shape.

import (
	"testing"
)

// claimData builds a shared dataset/estimator pair per test run.
func claimData(t *testing.T, n int) (*Dataset, *Dataset, Estimator) {
	t.Helper()
	full := MSLike(n, 81)
	train, test, err := Split(full, 0.8, 81)
	if err != nil {
		t.Fatal(err)
	}
	est, err := TrainRMIEstimator(train.Vectors, EstimatorConfig{
		TargetSize: test.Len(), MaxQueries: 300, Epochs: 20,
		Hidden: []int{48, 24}, Seed: 81,
	})
	if err != nil {
		t.Fatal(err)
	}
	return train, test, est
}

// Claim: LAF-DBSCAN reduces the number of range queries relative to DBSCAN
// (the mechanism behind its up-to-2.9x speedup) while keeping quality high.
func TestClaimLAFReducesQueriesAtHighQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	_, test, est := claimData(t, 1500)
	p := Params{Eps: 0.55, Tau: 5, Alpha: 1.2, Estimator: est, Seed: 81}
	truth, err := Cluster(test.Vectors, MethodDBSCAN, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Cluster(test.Vectors, MethodLAFDBSCAN, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.RangeQueries >= truth.RangeQueries {
		t.Errorf("LAF-DBSCAN ran %d queries, DBSCAN %d", res.RangeQueries, truth.RangeQueries)
	}
	ari, _ := ARI(truth.Labels, res.Labels)
	if ari < 0.7 {
		t.Errorf("LAF-DBSCAN ARI = %v, want >= 0.7 at alpha=1.2", ari)
	}
	t.Logf("queries %d -> %d (%.0f%% skipped), ARI %.3f, time %v -> %v",
		truth.RangeQueries, res.RangeQueries,
		100*float64(res.SkippedQueries)/float64(truth.RangeQueries),
		ari, truth.Elapsed, res.Elapsed)
}

// Claim: LAF also accelerates the sampling-based variant — LAF-DBSCAN++
// runs fewer range queries than DBSCAN++ at the same sample fraction with
// only small quality loss.
func TestClaimLAFAcceleratesDBSCANPP(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	_, test, est := claimData(t, 1500)
	p := Params{Eps: 0.55, Tau: 5, Alpha: 1.0, Estimator: est,
		SampleFraction: 0.4, Seed: 81}
	truth, err := Cluster(test.Vectors, MethodDBSCAN, p)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Cluster(test.Vectors, MethodDBSCANPP, p)
	if err != nil {
		t.Fatal(err)
	}
	laf, err := Cluster(test.Vectors, MethodLAFDBSCANPP, p)
	if err != nil {
		t.Fatal(err)
	}
	if laf.RangeQueries >= base.RangeQueries {
		t.Errorf("LAF-DBSCAN++ ran %d queries, DBSCAN++ %d", laf.RangeQueries, base.RangeQueries)
	}
	ariBase, _ := ARI(truth.Labels, base.Labels)
	ariLAF, _ := ARI(truth.Labels, laf.Labels)
	// The paper reports "tiny or no quality loss" with its fully trained
	// estimator; at this test's reduced training budget the loss is larger,
	// so the assertion only excludes a collapse.
	if ariLAF < 0.5 || ariLAF < ariBase-0.35 {
		t.Errorf("LAF-DBSCAN++ ARI %v collapsed vs DBSCAN++ %v", ariLAF, ariBase)
	}
	t.Logf("queries %d -> %d, ARI %.3f vs %.3f", base.RangeQueries, laf.RangeQueries, ariLAF, ariBase)
}

// Claim (Table 4): rho-approximate DBSCAN is slower than brute-force DBSCAN
// on high-dimensional data — the curse of dimensionality defeats the grid.
func TestClaimRhoApproxLosesInHighDimensions(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	d := MSLike(600, 82)
	p := Params{Eps: 0.55, Tau: 5, Rho: 1.0}
	truth, err := Cluster(d.Vectors, MethodDBSCAN, p)
	if err != nil {
		t.Fatal(err)
	}
	rho, err := Cluster(d.Vectors, MethodRhoApprox, p)
	if err != nil {
		t.Fatal(err)
	}
	// Generous slack: the claim is only "not faster".
	if rho.Elapsed < truth.Elapsed {
		t.Errorf("rho-approximate (%v) beat DBSCAN (%v) at d=768; expected the grid to degenerate",
			rho.Elapsed, truth.Elapsed)
	}
	t.Logf("rho-approx %v vs DBSCAN %v", rho.Elapsed, truth.Elapsed)
}

// Claim (Section 3.4): raising alpha monotonically increases skipped
// queries — the speed side of the trade-off dial.
func TestClaimAlphaDialsSkippedQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	_, test, est := claimData(t, 1000)
	prev := -1
	for _, alpha := range []float64{1.0, 2.0, 4.0, 8.0, 15.0} {
		res, err := Cluster(test.Vectors, MethodLAFDBSCAN, Params{
			Eps: 0.5, Tau: 3, Alpha: alpha, Estimator: est, Seed: 81,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.SkippedQueries < prev {
			t.Errorf("alpha=%v skipped %d < previous %d", alpha, res.SkippedQueries, prev)
		}
		prev = res.SkippedQueries
	}
}
