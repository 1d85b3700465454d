// Quickstart: the full LAF-DBSCAN pipeline in one file.
//
// Generates a synthetic high-dimensional embedding dataset, splits it 8:2
// (the paper's protocol), trains the learned cardinality estimator on the
// training split, then clusters the test split three ways — exact DBSCAN,
// LAF-DBSCAN and LAF-DBSCAN++ — and compares time and quality.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"lafdbscan"
)

func main() {
	log.SetFlags(0)

	// 1. Data: a 768-dimensional passage-embedding-style dataset.
	data := lafdbscan.MSLike(2000, 1)
	train, test, err := lafdbscan.Split(data, 0.8, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset %s: %d train / %d test, %d dims\n",
		data.Name, train.Len(), test.Len(), test.Dim())

	// 2. Train the learned cardinality estimator (once; reusable across
	//    eps/tau settings because the radius is a model input).
	start := time.Now()
	est, err := lafdbscan.TrainRMIEstimator(train.Vectors, lafdbscan.EstimatorConfig{
		TargetSize: test.Len(),
		Seed:       1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("estimator trained in %v (one-time cost, excluded below)\n\n",
		time.Since(start).Round(time.Millisecond))

	// 3. Cluster the test split.
	params := lafdbscan.Params{Eps: 0.55, Tau: 5, Alpha: 1.5, Estimator: est, SampleFraction: 0.4}

	//    Cluster runs any method; each reads the Params fields it needs.
	truth, err := lafdbscan.Cluster(test.Vectors, lafdbscan.MethodDBSCAN, params)
	if err != nil {
		log.Fatal(err)
	}
	report("DBSCAN (ground truth)", truth, truth)

	for _, m := range []lafdbscan.Method{lafdbscan.MethodLAFDBSCAN, lafdbscan.MethodLAFDBSCANPP} {
		res, err := lafdbscan.Cluster(test.Vectors, m, params)
		if err != nil {
			log.Fatal(err)
		}
		report(res.Algorithm, res, truth)
	}

	// 4. Fit once, predict forever: the model API retains the fitted
	//    artifacts (cores, index, estimator), so assigning new
	//    points to the existing clusters costs one range query each
	//    instead of a full re-clustering.
	model, err := lafdbscan.Fit(context.Background(), test.Vectors, lafdbscan.MethodLAFDBSCAN,
		lafdbscan.WithEps(0.55), lafdbscan.WithTau(5), lafdbscan.WithAlpha(1.5),
		lafdbscan.WithEstimator(est))
	if err != nil {
		log.Fatal(err)
	}
	incoming := train.Vectors[:200]
	start = time.Now()
	labels, err := model.Predict(context.Background(), incoming)
	if err != nil {
		log.Fatal(err)
	}
	s := lafdbscan.Stats(labels)
	fmt.Printf("\nmodel: %d clusters, %d cores; predicted %d incoming points in %v (%d assigned, %.2f noise)\n",
		model.NumClusters(), model.NumCores(), len(incoming),
		time.Since(start).Round(time.Millisecond), len(incoming)-s.NumNoise, s.NoiseRatio)
}

func report(name string, res, truth *lafdbscan.Result) {
	stats := lafdbscan.Stats(res.Labels)
	fmt.Printf("%-22s %8v  clusters=%-4d noise=%.2f queries=%-5d skipped=%-5d",
		name, res.Elapsed.Round(time.Millisecond), res.NumClusters,
		stats.NoiseRatio, res.RangeQueries, res.SkippedQueries)
	if res != truth {
		ari, _ := lafdbscan.ARI(truth.Labels, res.Labels)
		ami, _ := lafdbscan.AMI(truth.Labels, res.Labels)
		fmt.Printf("  ARI=%.3f AMI=%.3f speedup=%.2fx",
			ari, ami, truth.Elapsed.Seconds()/res.Elapsed.Seconds())
	}
	fmt.Println()
}
