// Test-only oracle for the refine engine: the original greedy refinement
// loop, which re-runs a full naive Eq. 4 accuracy pass (eq4_oracle) over
// the training set for every candidate edit. refine_greedy must match it
// bit for bit: the same decisions, reports (minus the engine-only
// diagnostics) and final parameters. It shares only the bias-candidate
// rule with the library.
#pragma once

#include "pmlp/core/approx_mlp.hpp"
#include "pmlp/core/refine.hpp"
#include "pmlp/datasets/dataset.hpp"

namespace pmlp::oracles {

core::RefineReport refine_greedy_naive(core::ApproxMlp& net,
                                       const datasets::QuantizedDataset& train,
                                       const core::RefineConfig& cfg);

}  // namespace pmlp::oracles
