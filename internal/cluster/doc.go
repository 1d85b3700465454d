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
// facts: PartialNeighbors is LAF's partial-neighbor map E, dense over
// point ids, as the engines build it and model maintenance keeps it;
// WaveMerger folds core flags, core-core ε-edges and border stubs out of
// range query results (the memory-bounded wave engines of both
// algorithms; DBSCAN++ numbers its sampled cores off the merger's forest);
// ResolveCanonical re-derives the canonical labeling from a maintained core
// set and core-adjacency graph (the resolution side of incremental
// Insert/Remove on fitted models); RenumberAscending is every engine's and
// every model's last step, numbering clusters 1..k and counting them; and
// DeriveForest derives the engine-invariant cluster forest from a finished
// labeling and core set where a fitted model reports it.
package cluster
