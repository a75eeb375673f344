#include "pmlp/adder/summand.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "pmlp/bitops/bitops.hpp"

namespace pmlp::adder {

using bitops::low_mask;
using bitops::popcount;

std::uint32_t SummandSpec::effective_mask() const noexcept {
  return mask & static_cast<std::uint32_t>(low_mask(input_width));
}

std::int64_t SummandSpec::max_value() const noexcept {
  // x (.) m is maximized with every retained bit set, i.e. the mask itself.
  return static_cast<std::int64_t>(effective_mask()) << shift;
}

std::uint64_t SummandSpec::occupancy() const noexcept {
  return static_cast<std::uint64_t>(effective_mask()) << shift;
}

int SummandSpec::wire_count() const noexcept {
  return popcount(effective_mask());
}

ColumnHeights NeuronStructure::total_heights() const noexcept {
  ColumnHeights h = variable_heights;
  for (std::uint64_t k = folded_constant; k != 0; k &= k - 1) {
    ++h[static_cast<std::size_t>(std::countr_zero(k))];
  }
  return h;
}

NeuronStructure analyze_neuron(const NeuronAdderSpec& spec) {
  NeuronStructure out;

  // --- Range analysis: every x bit is free, so the positive part is
  // maximized at mask-all-ones, the negative part at the same.
  std::int64_t pos_max = 0;
  std::int64_t neg_max = 0;  // magnitude of most negative contribution
  for (const auto& s : spec.summands) {
    if (s.sign >= 0) {
      pos_max += s.max_value();
    } else {
      neg_max += s.max_value();
    }
  }
  out.max_sum = pos_max + spec.bias;
  out.min_sum = -neg_max + spec.bias;
  // A sum can also land anywhere between; width must hold both extremes.
  const int w_hi = bitops::bit_width_signed(out.max_sum);
  const int w_lo = bitops::bit_width_signed(out.min_sum);
  out.acc_width = std::max({w_hi, w_lo, 2});
  if (out.acc_width > 62) {
    throw std::invalid_argument("analyze_neuron: accumulator width > 62");
  }

  // --- Column heights of variable bits and design-time constant folding.
  const int W = out.acc_width;
  std::uint64_t constant = bitops::to_twos_complement(spec.bias, W);
  for (const auto& s : spec.summands) {
    const std::uint64_t occ = s.occupancy() & low_mask(W);
    for (std::uint64_t bits = occ; bits != 0; bits &= bits - 1) {
      ++out.variable_heights[static_cast<std::size_t>(std::countr_zero(bits))];
    }
    if (s.sign < 0 && !s.is_pruned()) {
      // ~v has constant ones wherever v has no variable bit; plus the +1.
      const std::uint64_t const_ones = ~occ & low_mask(W);
      constant = (constant + const_ones + 1) & low_mask(W);
    }
  }
  out.folded_constant = constant;
  return out;
}

}  // namespace pmlp::adder
