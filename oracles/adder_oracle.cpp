#include "adder_oracle.hpp"

#include <algorithm>
#include <stdexcept>

#include "pmlp/bitops/bitops.hpp"

namespace pmlp::oracles {

adder::AdderCost reduce_columns_naive(std::vector<int> heights,
                                      std::vector<int>* final_heights) {
  adder::AdderCost cost;
  cost.acc_width = static_cast<int>(heights.size());

  auto needs_reduction = [](const std::vector<int>& h) {
    return std::any_of(h.begin(), h.end(), [](int v) { return v > 2; });
  };
  while (needs_reduction(heights)) {
    std::vector<int> next(heights.size(), 0);
    for (std::size_t c = 0; c < heights.size(); ++c) {
      const int h = heights[c];
      const int fa = h / 3;
      cost.fa_reduction += fa;
      next[c] += h - 3 * fa + fa;  // untouched bits + sum bits
      // Carries out of the MSB column drop (mod 2^W).
      if (fa > 0 && c + 1 < heights.size()) next[c + 1] += fa;
    }
    heights = std::move(next);
    ++cost.stages;
  }

  int first_two = -1;
  int last_any = -1;
  for (std::size_t c = 0; c < heights.size(); ++c) {
    if (heights[c] == 2 && first_two < 0) first_two = static_cast<int>(c);
    if (heights[c] > 0) last_any = static_cast<int>(c);
  }
  if (first_two >= 0) cost.fa_cpa = last_any - first_two + 1;
  if (final_heights != nullptr) *final_heights = std::move(heights);
  return cost;
}

adder::AdderCost estimate_adder_naive(const adder::NeuronAdderSpec& spec) {
  std::int64_t pos_max = 0;
  std::int64_t neg_max = 0;
  for (const auto& s : spec.summands) {
    (s.sign >= 0 ? pos_max : neg_max) += s.max_value();
  }
  const int W = std::max({bitops::bit_width_signed(pos_max + spec.bias),
                          bitops::bit_width_signed(-neg_max + spec.bias), 2});
  if (W > 62) {
    throw std::invalid_argument("estimate_adder_naive: width > 62");
  }

  std::vector<int> heights(static_cast<std::size_t>(W), 0);
  std::uint64_t constant = bitops::to_twos_complement(spec.bias, W);
  for (const auto& s : spec.summands) {
    const std::uint64_t occ = s.occupancy() & bitops::low_mask(W);
    for (int c : bitops::set_bit_positions(occ)) {
      heights[static_cast<std::size_t>(c)] += 1;
    }
    if (s.sign < 0 && !s.is_pruned()) {
      constant = (constant + (~occ & bitops::low_mask(W)) + 1) &
                 bitops::low_mask(W);
    }
  }
  for (int c : bitops::set_bit_positions(constant)) {
    heights[static_cast<std::size_t>(c)] += 1;
  }

  adder::AdderCost cost = reduce_columns_naive(std::move(heights));
  cost.folded_constant = constant;
  return cost;
}

}  // namespace pmlp::oracles
