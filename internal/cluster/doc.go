// Package cluster holds the clustering result type, the machinery the
// engines share, and the three approximate baselines of the paper's
// evaluation: KNN-BLOCK DBSCAN, BLOCK-DBSCAN and ρ-approximate DBSCAN.
// Exact DBSCAN (the ground truth) and the sampling-based DBSCAN++ run on
// internal/core's LAF engines with core.OpenGate, the gate that admits
// every point; the LAF-enhanced variants run on the same engines with a
// learned estimator.
//
// All algorithms consume unit-normalized vectors and a cosine-distance
// threshold Eps; baselines that natively need Euclidean distance (the cover
// tree and the grid) convert thresholds with Equation 1 of the paper.
//
// The shared machinery makes a labeling a pure function of order-free
// facts: WaveMerger folds core flags, core-core ε-edges and border stubs
// out of wave-streamed range queries (the memory-bounded parallel engine);
// ClusterCoresAndAssign and its union-find variant are the DBSCAN++ tail;
// ResolveCanonical and RenumberAscending re-derive the canonical labeling
// from a maintained core set and core-adjacency graph (the resolution side
// of incremental Insert/Remove on fitted models); and DeriveForest produces
// the engine-invariant cluster forest every driver reports.
package cluster
