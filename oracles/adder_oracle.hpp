// Test-only oracle for the FA-count area model (paper Eq. 2): the range
// analysis, constant folding and 3:2 reduction written with per-neuron
// height vectors and a fresh next-round vector per stage, as the model was
// first implemented. adder::estimate_adder (fixed-size, in-place heights)
// must match it field for field (adder_test).
#pragma once

#include <cstdint>
#include <vector>

#include "pmlp/adder/fa_model.hpp"

namespace pmlp::oracles {

/// 3:2-reduce `heights` (bits per column) with FAs, then price the CPA.
/// Returns the cost with acc_width = heights.size() and the heights left
/// after reduction (each <= 2) in `final_heights`.
adder::AdderCost reduce_columns_naive(
    std::vector<int> heights, std::vector<int>* final_heights = nullptr);

/// Range analysis + constant folding + reduction for one neuron.
adder::AdderCost estimate_adder_naive(const adder::NeuronAdderSpec& spec);

}  // namespace pmlp::oracles
