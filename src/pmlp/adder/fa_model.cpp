#include "pmlp/adder/fa_model.hpp"

#include <algorithm>

namespace pmlp::adder {

ReductionCost reduce_columns(std::span<int> heights) noexcept {
  ReductionCost cost;
  const auto tall = [](int h) { return h > 2; };
  while (std::ranges::any_of(heights, tall)) {
    int carry = 0;
    for (int& h : heights) {
      const int fa = h / 3;  // each FA eats 3 bits, emits 1 sum + 1 carry
      cost.fa_reduction += fa;
      h += carry - 2 * fa;  // untouched bits + sum bits + carries in
      carry = fa;
    }
    ++cost.stages;  // the last column's carries drop (mod 2^W)
  }

  // Final carry-propagate adder over the remaining <=2 rows: one FA per
  // column from the least-significant column still holding two bits up to
  // the accumulator MSB (a ripple chain must propagate that far).
  int first_two = -1;
  int last_any = -1;
  for (int c = 0; c < static_cast<int>(heights.size()); ++c) {
    const int h = heights[static_cast<std::size_t>(c)];
    if (h == 2 && first_two < 0) first_two = c;
    if (h > 0) last_any = c;
  }
  if (first_two >= 0) cost.fa_cpa = last_any - first_two + 1;
  return cost;
}

AdderCost estimate_adder(const NeuronAdderSpec& spec) {
  const NeuronStructure s = analyze_neuron(spec);
  ColumnHeights heights = s.total_heights();
  return {reduce_columns(std::span(heights).first(
              static_cast<std::size_t>(s.acc_width))),
          s.acc_width, s.folded_constant};
}

}  // namespace pmlp::adder
