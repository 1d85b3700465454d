// Passage deduplication: the MS MARCO-style scenario that motivates the
// paper. Dense passage retrieval corpora contain groups of near-duplicate
// passages whose embeddings form tight angular clusters; density clustering
// finds those groups so an index can keep one representative per group.
//
// This example clusters 768-dimensional passage-style embeddings with
// LAF-DBSCAN, then reports the duplicate groups found, their sizes, and how
// much smaller a deduplicated index would be — comparing the learned
// pipeline's cost against exact DBSCAN.
//
//	go run ./examples/passages
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"lafdbscan"
)

func main() {
	log.SetFlags(0)

	// A passage corpus with heavy-tailed duplicate-group sizes: a few
	// boilerplate passages repeated many times plus a long tail of small
	// groups — the SizeSkew knob of the generator.
	corpus := lafdbscan.GenerateMixture("passages", lafdbscan.MixtureConfig{
		N: 2500, Dim: 768, Clusters: 60,
		MinSpread: 0.1, MaxSpread: 0.5,
		NoiseFrac: 0.4, // unique passages that belong to no duplicate group
		SizeSkew:  1.5,
		Seed:      7,
	})
	train, index, err := lafdbscan.Split(corpus, 0.8, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus: %d passages to index, %d for estimator training\n",
		index.Len(), train.Len())

	est, err := lafdbscan.TrainRMIEstimator(train.Vectors, lafdbscan.EstimatorConfig{
		TargetSize: index.Len(), Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Near-duplicates sit within cosine distance 0.4 of each other; a group
	// needs at least 3 members to be worth deduplicating.
	params := lafdbscan.Params{Eps: 0.4, Tau: 3, Alpha: 1.5, Estimator: est}

	res, err := lafdbscan.Cluster(index.Vectors, lafdbscan.MethodLAFDBSCAN, params)
	if err != nil {
		log.Fatal(err)
	}
	truth, err := lafdbscan.Cluster(index.Vectors, lafdbscan.MethodDBSCAN, params)
	if err != nil {
		log.Fatal(err)
	}

	stats := lafdbscan.Stats(res.Labels)
	sizes := make([]int, 0, len(stats.Sizes))
	saved := 0
	for _, sz := range stats.Sizes {
		sizes = append(sizes, sz)
		saved += sz - 1 // keep one representative per group
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))

	ari, _ := lafdbscan.ARI(truth.Labels, res.Labels)
	fmt.Printf("\nLAF-DBSCAN found %d duplicate groups in %v (DBSCAN: %v, %.2fx)\n",
		res.NumClusters, res.Elapsed.Round(time.Millisecond),
		truth.Elapsed.Round(time.Millisecond),
		truth.Elapsed.Seconds()/res.Elapsed.Seconds())
	fmt.Printf("agreement with exact DBSCAN: ARI=%.3f\n", ari)
	fmt.Printf("range queries: %d executed, %d skipped by the estimator\n",
		res.RangeQueries, res.SkippedQueries)
	top := sizes
	if len(top) > 5 {
		top = top[:5]
	}
	fmt.Printf("largest duplicate groups: %v\n", top)
	fmt.Printf("index shrinks by %d passages (%.1f%%) after deduplication\n",
		saved, 100*float64(saved)/float64(index.Len()))
}
