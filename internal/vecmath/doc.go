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
//
// The float64 kernels of the estimator's neural network (internal/nn) live
// here too (train.go): Affine16, a dense layer's forward pass over one
// block of 16 output rows, reading the weights in Interleave4's layout;
// AddScaled4 and AddScaled, its weight-gradient update; and AdamStep,
// Adam's parameter step over the summed per-worker gradients.
//
// The two dot products under every cosine distance, Dot (float64
// accumulators) and the fast pass's float32 one, and the four training
// kernels are AVX2 assembly on amd64 CPUs that have it (kernel_amd64.s).
// Each performs the Go loop's floating-point operations in the Go loop's
// order, one accumulator or one element per vector lane and no fused
// multiply-add, so its result is the Go loop's bit for bit and every
// label, query count, graph and trained weight is the same on any host.
// Elsewhere, and in builds with the standard purego tag, the Go loops run.
package vecmath
