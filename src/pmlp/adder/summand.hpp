// Structural description of the multi-operand addition inside one bespoke
// neuron (paper Fig. 1 / Fig. 3). Each connection contributes one summand
//
//     s * ((m (.) x) << k)
//
// where only the bit positions set in the mask m are actual wires; everything
// else is a hard-wired constant that folds into the neuron's bias term at
// design time. This module computes, for a neuron:
//   * the accumulator width required to hold every reachable sum,
//   * the per-column count of *variable* bits entering the adder tree,
//   * the folded design-time constant (bias + two's-complement corrections
//     + sign-extension ones of negative summands).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace pmlp::adder {

/// One connection's summand, structurally: sign * ((mask (.) x) << shift)
/// with x an unsigned `input_width`-bit activation.
struct SummandSpec {
  std::uint32_t mask = 0;  ///< retained activation bits (paper's m)
  int input_width = 4;     ///< bits of the incoming activation
  int shift = 0;           ///< pow2 weight exponent k (left shift)
  int sign = +1;           ///< pow2 weight sign s (-1 or +1)

  /// Largest value (m (.) x) << shift can take (all retained bits = 1).
  [[nodiscard]] std::int64_t max_value() const noexcept;
  /// Occupied bit columns as a bit set: bit c set => a variable wire in
  /// column c of the adder tree. Identical for both signs (see below).
  [[nodiscard]] std::uint64_t occupancy() const noexcept;
  /// Number of variable bits (wires) this summand feeds into the tree.
  [[nodiscard]] int wire_count() const noexcept;
  /// True when the mask retains no bit (the connection is fully pruned).
  [[nodiscard]] bool is_pruned() const noexcept { return effective_mask() == 0; }
  /// Mask truncated to input_width bits.
  [[nodiscard]] std::uint32_t effective_mask() const noexcept;
};

/// The whole neuron-level addition: all incoming summands plus the trained
/// integer bias (paper's b).
struct NeuronAdderSpec {
  std::vector<SummandSpec> summands;
  std::int64_t bias = 0;
};

/// Bits per adder-tree column, one entry per column of a 64-bit word. The
/// accumulator width W never exceeds 62, so columns [W, 64) stay zero.
using ColumnHeights = std::array<int, 64>;

/// Range/width analysis plus design-time constant folding for a neuron.
struct NeuronStructure {
  int acc_width = 0;               ///< two's-complement accumulator width W
  std::int64_t min_sum = 0;        ///< smallest reachable accumulator value
  std::int64_t max_sum = 0;        ///< largest reachable accumulator value
  std::uint64_t folded_constant = 0;  ///< K mod 2^W: bias + corrections
  /// Variable-bit column heights; constant K excluded.
  ColumnHeights variable_heights{};
  /// Heights including the set bits of the folded constant K.
  [[nodiscard]] ColumnHeights total_heights() const noexcept;
};

/// Analyze the neuron: compute W, the folded constant and column heights.
/// Allocates nothing; throws std::invalid_argument when W would exceed 62.
///
/// Negative summands are realized as two's complement at width W:
///   -(v) mod 2^W = (~v mod 2^W) + 1,
/// whose *variable* bits sit in exactly the same columns as the positive
/// summand (each retained bit, inverted), while the ones at the non-retained
/// columns and the trailing +1 are design-time constants folded into K —
/// precisely the paper's observation that "the '1' from all two's complement
/// negations may be accumulated in the constant bias term".
[[nodiscard]] NeuronStructure analyze_neuron(const NeuronAdderSpec& spec);

}  // namespace pmlp::adder
