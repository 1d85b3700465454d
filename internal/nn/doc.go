// Package nn is a small, dependency-free feed-forward neural network
// library: dense layers, ReLU/sigmoid/identity activations, mean-squared
// error, and a minibatch Adam training loop that computes gradients and
// applies the update data-parallel. The inner loops run on
// internal/vecmath's training kernels (AVX2 where the CPU has it); they
// keep one summation order per output, so every weight is the same bits
// a row-at-a-time Go implementation produces. It exists because the
// paper's cardinality estimator (a three-stage RMI of fully-connected
// regressors) needs a trainable deep model and this repository is
// stdlib-only.
package nn
