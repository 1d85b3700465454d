// Package index provides the range-query and KNN engines the clustering
// algorithms are built on: a brute-force scanner used by DBSCAN,
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
//     across queries, never inside one — the only place a scan uses more
//     than one core;
//   - the wave driver (wave.go): BatchRangeSearchFunc, the one way to run a
//     batch of queries, streams them in bounded waves over the pool, one
//     tile of four queries per claim (a BruteForce scores a tile's queries
//     against each row in one pass), and hands each result to a callback,
//     so the live set is O(WaveSize·avg|N|) regardless of dataset size;
//     the wave barrier is also the cancellation and progress point.
//     BatchSelfSearchFunc runs the same waves for queries that are indexed
//     points, as a fit's are: on a unit-cosine BruteForce over those very
//     rows each ε-pair is scored once, by the earlier query's tile, and
//     carried forward to the later query, so the live set is
//     O(WaveSize·avg|N|) plus the carried pairs, at most half the ε-pairs
//     among the queried points, 4 B each (8 B while a pair waits for a
//     later wave);
//   - the dynamic layer (dynamic.go): the DynamicIndex contract (Insert
//     and DeleteMany) behind online model maintenance, implemented by the
//     two backends a model mutates — BruteForce and hnsw.Graph — with
//     compacting id semantics matching the point slice itself. The grid
//     and the trees are static.
//
// RangeSearcher, the contract the wave driver and the engines query
// through, is RangeSearch and Len.
package index
