// Package index provides the range-query and KNN engines the clustering
// algorithms are built on: a (parallel) brute-force scanner used by DBSCAN,
// DBSCAN++ and the LAF variants, a cover tree used by BLOCK-DBSCAN, a
// k-means tree used by KNN-BLOCK DBSCAN, and the sparse grid behind
// ρ-approximate DBSCAN.
//
// The backend registry (backend.go) names the two indexes a model can be
// built on, "brute" and "hnsw" (internal/index/hnsw). Both answer under
// cosine and Euclidean distance and both mutate in place. The cover tree,
// the k-means tree and the grid are built directly by their baselines:
// the cover tree is exact only under a true metric, so BLOCK-DBSCAN builds
// it under Euclidean distance.
//
// All engines operate over a slice of points identified by integer ids.
// Range semantics follow the paper: a range query with radius eps returns
// the ids of points with d(q, p) < eps (strict), including the query point
// itself when it is part of the indexed set.
//
// Three layers sit on top of the per-query engines:
//
//   - the pool (batch.go): a shared worker pool (ForEach) that parallelizes
//     across queries instead of inside them — the right grain for the
//     clustering drivers;
//   - the wave driver (wave.go): BatchRangeSearchFunc, the one way to run a
//     batch of queries, streams them in bounded waves over the pool and
//     hands each result to a callback, so the live set is
//     O(WaveSize·avg|N|) regardless of dataset size; the wave barrier is
//     also the cancellation and progress point;
//   - the dynamic layer (dynamic.go): the DynamicIndex contract (Insert
//     and DeleteMany) behind online model maintenance, implemented by the
//     two backends a model mutates — BruteForce and hnsw.Graph — with
//     compacting id semantics matching the point slice itself. The grid
//     and the trees are static.
//
// RangeSearcher, the contract the wave driver and the engines query
// through, is RangeSearch and Len.
package index
