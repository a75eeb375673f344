// The right half of Fig. 2: hardware evaluation of the evolved circuits.
// Every estimated-Pareto candidate is "synthesized" (netlist built), priced
// against the EGFET library, functionally cross-checked against the Eq. 4
// behavioural model, and re-scored on the *test* set; the true
// accuracy-area Pareto front is then extracted from the evaluated designs.
#pragma once

#include <optional>
#include <span>

#include "pmlp/core/trainer.hpp"
#include "pmlp/hwmodel/cells.hpp"
#include "pmlp/hwmodel/power.hpp"

namespace pmlp::core {

struct HwEvaluatedPoint {
  ApproxMlp model;
  double test_accuracy = 0.0;
  long fa_area = 0;                     ///< training-time proxy, for reference
  hwmodel::CircuitCost cost;            ///< netlist area/power/delay
  bool functional_match = true;         ///< netlist == Eq. 4 on checked samples
};

struct HardwareAnalysisConfig {
  /// Samples cross-checked between netlist and behavioural model
  /// (0 disables the equivalence check; negative checks the whole set).
  int equivalence_samples = 64;
};

/// Build/price/verify every candidate at the given supply library. The
/// candidates fan out over the borrowed `pool` (null = serial, the
/// default); output order and every result are bit-identical for any pool.
[[nodiscard]] std::vector<HwEvaluatedPoint> evaluate_hardware(
    std::span<const EstimatedPoint> candidates,
    const datasets::QuantizedDataset& test, const hwmodel::CellLibrary& lib,
    const HardwareAnalysisConfig& cfg = {}, ThreadPool* pool = nullptr);

/// Non-dominated subset on (1 - test_accuracy, netlist area).
[[nodiscard]] std::vector<HwEvaluatedPoint> true_pareto(
    std::vector<HwEvaluatedPoint> points);

/// Paper Table II selection rule: the smallest-area design whose test
/// accuracy loss versus `baseline_accuracy` is at most `max_loss` (5%).
[[nodiscard]] std::optional<HwEvaluatedPoint> best_within_loss(
    std::span<const HwEvaluatedPoint> points, double baseline_accuracy,
    double max_loss);

}  // namespace pmlp::core
