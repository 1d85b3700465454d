// Package index provides the range-query and KNN engines the clustering
// algorithms are built on: a (parallel) brute-force scanner used by DBSCAN,
// DBSCAN++ and the LAF variants, a cover tree used by BLOCK-DBSCAN, a
// k-means tree used by KNN-BLOCK DBSCAN, and the sparse grid behind
// ρ-approximate DBSCAN.
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
//   - the dynamic layer (dynamic.go): the DynamicIndex insert/delete
//     contract behind online model maintenance — native mutation for
//     BruteForce and Grid, a rebuild-threshold overlay for the trees — with
//     compacting id semantics matching the point slice itself.
package index
