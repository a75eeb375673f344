// Test-only oracle for Eq. 4 inference, QReLU(sum s * ((m (.) x) << k) + b):
// the naive walk over every connection of an ApproxMlp, fully pruned ones
// included, one int64 accumulator per neuron in connection order, fresh
// activation vectors per layer. CompiledNet's block loop (every lane
// width, every ISA, predict, predict_batch and both accuracy overloads)
// must match it bit for bit (eval_engine_test), and the refine oracle
// scores its trials through it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pmlp/core/approx_mlp.hpp"
#include "pmlp/datasets/dataset.hpp"

namespace pmlp::oracles {

/// First-maximum argmax over integer logits (std::max_element's tie rule):
/// a later class wins only when strictly greater.
[[nodiscard]] int argmax_first(std::span<const std::int64_t> logits);

/// Eq. 4 integer inference; returns the output layer's accumulators.
/// Throws std::invalid_argument when `x` is not n_inputs() codes wide.
[[nodiscard]] std::vector<std::int64_t> forward_naive(
    const core::ApproxMlp& net, std::span<const std::uint8_t> x);

/// argmax_first of forward_naive.
[[nodiscard]] int predict_naive(const core::ApproxMlp& net,
                                std::span<const std::uint8_t> x);

/// Fraction of `d` that predict_naive classifies correctly (0 when empty).
[[nodiscard]] double accuracy_naive(const core::ApproxMlp& net,
                                    const datasets::QuantizedDataset& d);

}  // namespace pmlp::oracles
