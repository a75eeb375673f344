// Full-adder-count area model for multi-operand adder trees (paper §III-C,
// Eq. 2). The paper's estimator: per reduction round, every three bits in a
// column cost one FA, leaving one sum bit in that column and one carry in the
// next; rounds repeat until every column holds at most two bits; the final
// two rows go through a carry-propagate adder. Only FAs are assumed.
//
// This is the only implementation of the estimator: the GA's per-evaluation
// area objective and ApproxMlp::fa_area price through estimate_adder, and
// the adder variants (variants.hpp) reuse analyze_neuron and
// reduce_columns. netlist::build_column_adder applies the same per-round
// rule to wires; its constant folding can only remove cells, and
// NeuronCost.NetlistAdderCellsBoundedByFaModel checks that bound.
#pragma once

#include <cstdint>
#include <span>

#include "pmlp/adder/summand.hpp"

namespace pmlp::adder {

/// FA cost of reducing one column-height profile.
struct ReductionCost {
  int fa_reduction = 0;  ///< FAs spent in the 3:2 reduction stages
  int fa_cpa = 0;        ///< FAs of the final carry-propagate adder
  int stages = 0;        ///< number of reduction rounds

  [[nodiscard]] int total_fa() const { return fa_reduction + fa_cpa; }
};

/// Complete cost of one neuron's multi-operand adder.
struct AdderCost : ReductionCost {
  int acc_width = 0;     ///< accumulator width W used
  std::uint64_t folded_constant = 0;  ///< design-time constant added (mod 2^W)
};

/// Reduce column heights with FAs only, in place: `heights[c]` bits enter
/// column c; on return every column holds at most two. Carries out of the
/// last column drop (mod 2^W arithmetic).
[[nodiscard]] ReductionCost reduce_columns(std::span<int> heights) noexcept;

/// Full neuron estimate: analyze_neuron, then reduce_columns over its
/// total heights. Allocates nothing.
[[nodiscard]] AdderCost estimate_adder(const NeuronAdderSpec& spec);

}  // namespace pmlp::adder
