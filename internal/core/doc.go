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
//     point as its neighbor (Algorithm 2, UpdatePartialNeighbors). E is a
//     cluster.PartialNeighbors: a stop mask and one row of finders per
//     point, the form model maintenance keeps current too.
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
// skipped, E stays empty and part 3 has nothing to repair. Each algorithm
// has one engine, and both share one discovery pass (gate → wave → fold)
// over a pool of Config.Workers workers; the worker count changes speed,
// never the result. The engines gate every point before any query runs, so
// E is the complete map rather than Algorithm 2's visit-order-dependent
// one (parallel.go says why). The paper's point-by-point traversal lives
// on in reference_test.go as the reference the engine tests compare
// against.
package core
