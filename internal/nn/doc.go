// Package nn is a small, dependency-free feed-forward neural network
// library: dense layers, ReLU/sigmoid/identity activations, mean-squared
// error, and a minibatch Adam training loop that computes gradients and
// applies the update data-parallel. The inner loops run on
// internal/vecmath's training kernels (AVX2 where the CPU has it); they
// keep one summation order per output, so every weight is the same bits
// a row-at-a-time Go implementation produces. Training backpropagates
// tiles of four samples: the forward pass reads each packed weight once
// for the four (vecmath.Affine8x4), and each gradient row takes the
// tile's live samples in one pass (vecmath.AddScaledTile), in sample
// order. BackwardMSE is the tile of one. Fit's workers stay with it for
// the whole call: it publishes each phase of a batch (gradients, then
// Adam) in an atomic sequence word, and a waiter polls for a fixed 500 µs
// before it parks. The worker count, and so where a batch is split, is
// min(GOMAXPROCS, 8), so the trained weights' low bits can depend on the
// host's core count. It exists because the paper's cardinality estimator
// (a three-stage RMI of fully-connected regressors) needs a trainable
// deep model and this repository is stdlib-only.
package nn
