// Package lafdbscan is a Go implementation of LAF, the Learned Accelerator
// Framework for angular-distance-based high-dimensional DBSCAN (Wang &
// Wang, EDBT 2023, arXiv:2302.03136), together with the full clustering
// zoo of the paper's evaluation.
//
// LAF accelerates DBSCAN-like algorithms by placing a learned cardinality
// estimator in front of every range query: points predicted to be non-core
// or noise ("stop points") skip their query entirely, and a post-processing
// pass repairs clusters that false-negative predictions split apart.
//
// # Quick start
//
// Fit a reusable model once, then assign incoming vectors to its clusters
// at the cost of one range query each — the same economics the paper
// applies to single runs, extended across requests:
//
//	data := lafdbscan.MSLike(4000, 1)      // 768-dim synthetic embeddings
//	train, test, _ := lafdbscan.Split(data, 0.8, 42)
//
//	est, _ := lafdbscan.TrainRMIEstimator(train.Vectors, lafdbscan.EstimatorConfig{
//		TargetSize: test.Len(),
//	})
//	model, _ := lafdbscan.Fit(ctx, test.Vectors, lafdbscan.MethodLAFDBSCAN,
//		lafdbscan.WithEps(0.55), lafdbscan.WithTau(5),
//		lafdbscan.WithAlpha(2.0), lafdbscan.WithEstimator(est))
//	fmt.Println(model.NumClusters(), model.NumCores())
//
//	labels, _ := model.Predict(ctx, incoming) // O(one range query) per vector
//	_ = model.SaveFile("clusters.lafm")       // survives process restarts
//
// # Evolving data
//
// A fitted model is not frozen: Insert and Remove evolve the clustering
// online with incremental-DBSCAN semantics — new points within Eps of
// enough neighbors become core and may merge clusters, removals demote
// cores and split clusters exactly — at the cost of the changed
// neighborhoods only, with labels bit-identical to re-clustering from
// scratch for the traversal engines:
//
//	_, _ = model.Insert(ctx, newVectors) // promotions, merges
//	_, _ = model.Remove(ctx, []int{3})   // demotions, splits
//
// All model methods are safe for concurrent use: predictions proceed
// concurrently, mutations serialize behind a write lock, and a reader
// never observes a half-applied update.
//
// Cluster runs one method over a flat Params value and returns only the
// Result. Its labels are bit-identical to Fit with the same knobs: it runs
// the same engines and discards the fitted artifacts:
//
//	res, _ := lafdbscan.Cluster(test.Vectors, lafdbscan.MethodLAFDBSCAN, lafdbscan.Params{
//		Eps: 0.55, Tau: 5, Alpha: 2.0, Estimator: est,
//	})
//	fmt.Println(res.NumClusters, res.Elapsed)
//
// All algorithms expect unit-normalized vectors and interpret Eps as a
// cosine distance (1 - cosine similarity, bounded in [0, 2]).
package lafdbscan
