// Word-embedding concept discovery: the GloVe-style scenario. Word vectors
// trained on tweets form angular clusters of related words (topics, named
// entities, spam patterns); density clustering surfaces them without fixing
// the number of concepts in advance, and noise points are simply rare
// words.
//
// The example also demonstrates LAF's speed-quality dial: the same
// clustering runs at several error factors alpha, showing time falling and
// divergence from exact DBSCAN growing as alpha rises — the mechanism
// behind the paper's trade-off curves (Figures 2 and 3).
//
//	go run ./examples/words
package main

import (
	"fmt"
	"log"
	"time"

	"lafdbscan"
)

func main() {
	log.SetFlags(0)

	vocab := lafdbscan.GloVeLike(3000, 11)
	train, words, err := lafdbscan.Split(vocab, 0.8, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("vocabulary: %d word vectors (%d dims), %d reserved for training\n",
		words.Len(), words.Dim(), train.Len())

	est, err := lafdbscan.TrainRMIEstimator(train.Vectors, lafdbscan.EstimatorConfig{
		TargetSize: words.Len(), Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}

	base := lafdbscan.Params{Eps: 0.5, Tau: 4, Estimator: est}
	truth, err := lafdbscan.Cluster(words.Vectors, lafdbscan.MethodDBSCAN, base)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexact DBSCAN: %d concepts, %v\n\n",
		truth.NumClusters, truth.Elapsed.Round(time.Millisecond))

	fmt.Printf("%-8s %10s %10s %9s %8s %8s\n",
		"alpha", "time", "speedup", "concepts", "ARI", "AMI")
	for _, alpha := range []float64{1.0, 1.5, 2.5, 4.0, 8.0} {
		p := base
		p.Alpha = alpha
		res, err := lafdbscan.Cluster(words.Vectors, lafdbscan.MethodLAFDBSCAN, p)
		if err != nil {
			log.Fatal(err)
		}
		ari, _ := lafdbscan.ARI(truth.Labels, res.Labels)
		ami, _ := lafdbscan.AMI(truth.Labels, res.Labels)
		fmt.Printf("%-8.1f %10v %9.2fx %9d %8.3f %8.3f\n",
			alpha, res.Elapsed.Round(time.Millisecond),
			truth.Elapsed.Seconds()/res.Elapsed.Seconds(),
			res.NumClusters, ari, ami)
	}
	fmt.Println("\nhigher alpha => more skipped range queries => faster, lower fidelity")
}
