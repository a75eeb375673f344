#include "pmlp/adder/variants.hpp"

#include <algorithm>

#include "pmlp/bitops/bitops.hpp"

namespace pmlp::adder {

VariantCost ripple_accumulate_cost(const NeuronAdderSpec& spec) {
  const NeuronStructure st = analyze_neuron(spec);
  VariantCost cost;
  // Add summands one at a time into a running accumulator of width W:
  // each addition is a ripple CPA spanning from the summand's lowest
  // occupied column to the accumulator MSB (carries must propagate).
  const int W = st.acc_width;
  bool have_acc = false;
  auto add_operand = [&](std::uint64_t occupancy) {
    if (occupancy == 0) return;
    if (!have_acc) {
      have_acc = true;  // first operand is just wires
      return;
    }
    const int lo = std::countr_zero(occupancy);
    const int span = W - lo;
    // One FA per spanned column except the first (a HA suffices there).
    if (span >= 1) {
      cost.half_adders += 1;
      cost.full_adders += span - 1;
    }
    cost.stages += 1;
  };
  for (const auto& s : spec.summands) {
    add_operand(s.occupancy() & bitops::low_mask(W));
  }
  add_operand(st.folded_constant);
  return cost;
}

VariantCost csa_with_ha_cost(const NeuronAdderSpec& spec) {
  const NeuronStructure st = analyze_neuron(spec);
  ColumnHeights heights = st.total_heights();
  const std::span<int> cols =
      std::span(heights).first(static_cast<std::size_t>(st.acc_width));
  VariantCost cost;

  const auto tall = [](int h) { return h > 2; };
  while (std::ranges::any_of(cols, tall)) {
    int carry = 0;
    for (int& h : cols) {
      const int fa = h / 3;
      // Wallace-style: a leftover pair is compressed at once by a HA.
      const int ha = h - 3 * fa == 2 ? 1 : 0;
      cost.full_adders += fa;
      cost.half_adders += ha;
      h += carry - 2 * fa - ha;  // sums stay, pairs halve, carries arrive
      carry = fa + ha;
    }
    cost.stages += 1;
  }
  // Final CPA over the <=2 rows: no column is tall, so no rounds run.
  cost.full_adders += reduce_columns(cols).fa_cpa;
  return cost;
}

VariantCost fa_only_cost(const NeuronAdderSpec& spec) {
  const AdderCost c = estimate_adder(spec);
  VariantCost out;
  out.full_adders = c.total_fa();
  out.stages = c.stages;
  return out;
}

}  // namespace pmlp::adder
