// Test- and bench-only oracle for the train engine: the original
// per-sample scalar backprop loop (allocation per trace, no blocking, no
// threads, no SIMD). train_backprop must match it bit for bit for a
// single-block batch under scalar dispatch on x86-64 and within tolerance
// otherwise (train_engine_test); the benches time it as the pre-engine
// reference.
#pragma once

#include "pmlp/datasets/dataset.hpp"
#include "pmlp/mlp/backprop.hpp"
#include "pmlp/mlp/float_mlp.hpp"

namespace pmlp::oracles {

/// Train `net` in place with the same update rule as mlp::train_backprop.
mlp::BackpropReport train_backprop_naive(mlp::FloatMlp& net,
                                         const datasets::Dataset& train,
                                         const mlp::BackpropConfig& cfg);

}  // namespace pmlp::oracles
