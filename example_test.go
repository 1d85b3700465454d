package lafdbscan_test

import (
	"bytes"
	"context"
	"fmt"

	"lafdbscan"
)

// Fit/Predict is the model API: one clustering pays for an index, a core
// set and (for LAF methods) a trained estimator, and every later batch of
// vectors is assigned to the existing clusters in one range query per
// vector. Save/LoadModel make the whole thing survive process restarts.
func ExampleFit() {
	data := lafdbscan.MSLike(400, 1)
	train, incoming, err := lafdbscan.Split(data, 0.8, 42)
	if err != nil {
		panic(err)
	}

	ctx := context.Background()
	model, err := lafdbscan.Fit(ctx, train.Vectors, lafdbscan.MethodDBSCAN,
		lafdbscan.WithEps(0.55), lafdbscan.WithTau(5))
	if err != nil {
		panic(err)
	}

	labels, err := model.Predict(ctx, incoming.Vectors)
	if err != nil {
		panic(err)
	}

	// Round-trip through the versioned binary format: the loaded model
	// predicts identically to the fitted one.
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		panic(err)
	}
	loaded, err := lafdbscan.LoadModel(&buf)
	if err != nil {
		panic(err)
	}
	again, err := loaded.Predict(ctx, incoming.Vectors)
	if err != nil {
		panic(err)
	}
	same := true
	for i := range labels {
		same = same && labels[i] == again[i]
	}
	fmt.Println(len(labels) == incoming.Len(), same)
	// Output: true true
}

// The full pipeline: generate data, train the learned estimator on the 80%
// split, cluster the 20% split with LAF-DBSCAN. Cluster runs every method;
// the Method picks the algorithm and Params carries its knobs. The training budget here is
// documentation-sized so the example stays fast; real runs can drop the
// Hidden/Epochs/MaxQueries overrides to get the defaults. Examples always
// execute under go test (they cannot consult testing.Short), so this is
// what keeps the root package's -short runs quick.
func ExampleCluster() {
	data := lafdbscan.MSLike(400, 1)
	train, test, err := lafdbscan.Split(data, 0.8, 42)
	if err != nil {
		panic(err)
	}

	est, err := lafdbscan.TrainRMIEstimator(train.Vectors, lafdbscan.EstimatorConfig{
		TargetSize: test.Len(),
		Hidden:     []int{24, 12},
		Epochs:     8,
		MaxQueries: 120,
		Seed:       1,
	})
	if err != nil {
		panic(err)
	}
	res, err := lafdbscan.Cluster(test.Vectors, lafdbscan.MethodLAFDBSCAN, lafdbscan.Params{
		Eps: 0.55, Tau: 5, Alpha: 1.2, Estimator: est,
		Workers: lafdbscan.WorkersAuto, // parallel engine across all cores
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(len(res.Labels) == test.Len())
	// Output: true
}

// Comparing an approximate labeling against exact DBSCAN with the paper's
// quality metrics.
func ExampleARI() {
	truth := []int{1, 1, 2, 2, lafdbscan.Noise}
	pred := []int{7, 7, 9, 9, lafdbscan.Noise}
	ari, _ := lafdbscan.ARI(truth, pred)
	ami, _ := lafdbscan.AMI(truth, pred)
	fmt.Printf("ARI=%.1f AMI=%.1f\n", ari, ami)
	// Output: ARI=1.0 AMI=1.0
}

// Equation 1 of the paper: on unit vectors a cosine threshold of 0.5 equals
// a Euclidean threshold of 1.0.
func ExampleCosineToEuclidean() {
	fmt.Println(lafdbscan.CosineToEuclidean(0.5))
	// Output: 1
}

// Summarizing a labeling the way the paper's Table 2 does.
func ExampleStats() {
	labels := []int{1, 1, 1, 2, lafdbscan.Noise}
	s := lafdbscan.Stats(labels)
	fmt.Printf("clusters=%d noise=%.1f\n", s.NumClusters, s.NoiseRatio)
	// Output: clusters=2 noise=0.2
}
