package lafdbscan

// Tests for the Euclidean-metric extension — the paper's stated future work
// ("our methods are easy to adapt to other distances"). On unit vectors
// Equation 1 makes the two metrics interchangeable, which pins down exactly
// what the extension must satisfy: clustering under Euclidean distance with
// the converted threshold must equal clustering under cosine distance.

import "testing"

func TestDBSCANMetricEquivalenceEquationOne(t *testing.T) {
	d := GenerateMixture("metric", MixtureConfig{
		N: 300, Dim: 24, Clusters: 5, MinSpread: 0.2, MaxSpread: 0.4,
		NoiseFrac: 0.2, Seed: 91,
	})
	const epsCos = 0.5
	cosRes, err := Cluster(d.Vectors, MethodDBSCAN, Params{Eps: epsCos, Tau: 4, Metric: MetricCosine})
	if err != nil {
		t.Fatal(err)
	}
	eucRes, err := Cluster(d.Vectors, MethodDBSCAN, Params{
		Eps: CosineToEuclidean(epsCos), Tau: 4, Metric: MetricEuclidean,
	})
	if err != nil {
		t.Fatal(err)
	}
	ari, err := ARI(cosRes.Labels, eucRes.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.999 {
		t.Errorf("Equation 1 equivalence broken: ARI = %v", ari)
	}
}

func TestLAFDBSCANEuclideanMetricEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	d := GenerateMixture("metric-e2e", MixtureConfig{
		N: 500, Dim: 32, Clusters: 6, MinSpread: 0.2, MaxSpread: 0.4,
		NoiseFrac: 0.25, Seed: 92,
	})
	train, test, err := Split(d, 0.8, 92)
	if err != nil {
		t.Fatal(err)
	}
	est, err := TrainRMIEstimator(train.Vectors, EstimatorConfig{
		TargetSize: test.Len(), Metric: MetricEuclidean,
		Hidden: []int{24, 12}, Epochs: 20, MaxQueries: 200, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	epsEuc := CosineToEuclidean(0.5)
	truth, err := Cluster(test.Vectors, MethodDBSCAN, Params{Eps: epsEuc, Tau: 4, Metric: MetricEuclidean})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Cluster(test.Vectors, MethodLAFDBSCAN, Params{
		Eps: epsEuc, Tau: 4, Alpha: 1.0, Estimator: est,
		Metric: MetricEuclidean, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ari, _ := ARI(truth.Labels, res.Labels)
	if ari < 0.5 {
		t.Errorf("Euclidean LAF-DBSCAN ARI = %v; extension not functional", ari)
	}
	if res.SkippedQueries == 0 {
		t.Error("Euclidean estimator never skipped a query")
	}
	t.Logf("euclidean e2e: ARI=%.3f skipped=%d", ari, res.SkippedQueries)
}

func TestConversionHelpers(t *testing.T) {
	if got := CosineToEuclidean(0.5); got != 1.0 {
		t.Errorf("CosineToEuclidean(0.5) = %v, want 1 (the paper's example)", got)
	}
	if got := EuclideanToCosine(1.0); got != 0.5 {
		t.Errorf("EuclideanToCosine(1.0) = %v, want 0.5", got)
	}
}
