// Package core implements the paper's contribution: LAF, the Learned
// Accelerator Framework for angular-distance DBSCAN-like clustering, and
// the two algorithms built on it, LAF-DBSCAN (Algorithm 1) and
// LAF-DBSCAN++.
//
// LAF is a plugin with three parts:
//
//  1. A cardinality-estimation gate placed before every range query: when
//     the estimator predicts fewer than α·τ neighbors, the point is treated
//     as a "stop point" (non-core or noise) and its range query is skipped.
//  2. A partial-neighbor map E recording, for every predicted stop point,
//     the subset of its true neighbors discovered for free — every executed
//     range query that finds a predicted stop point registers the querying
//     point as its neighbor (Algorithm 2, UpdatePartialNeighbors).
//  3. A post-processing pass (Algorithm 3) that treats any entry of E with
//     at least τ partial neighbors as a detected false negative and merges
//     the clusters its neighbors were split into.
//
// The error factor α tunes the speed/quality trade-off: larger α predicts
// more stop points (faster, lower quality), smaller α fewer (slower,
// higher quality).
//
// LAF wraps the original algorithms rather than replacing them, so the
// engines here are also the repository's exact DBSCAN and DBSCAN++: with
// OpenGate as the estimator every point passes the gate, no query is
// skipped, E stays empty and part 3 has nothing to repair. Each engine has
// a sequential implementation (the paper's formulation, and the reference
// every label-equality test compares against) and a wave implementation
// for Config.Workers != 0.
package core
