// Package vecmath provides the dense float32 vector kernels used across the
// LAF-DBSCAN repository: dot products, norms, normalization and the angular
// (cosine) and Euclidean distance functions the paper's clustering
// algorithms are built on.
//
// Vectors are []float32 to match the memory profile of neural embeddings;
// the distance functions accumulate in float64 so that 768-dimensional sums
// keep enough precision for threshold comparisons near the DBSCAN radius.
// The threshold test CosineUnitLess accumulates in float32 and recomputes
// in float64 only the pairs its rounding-error bound (CosineUnitBound)
// cannot place on one side of the threshold, so its decisions are the
// float64 ones. The one-to-many scan kernel AppendCosineUnitRange and the
// HNSW neighbor heuristic both decide through it.
package vecmath
