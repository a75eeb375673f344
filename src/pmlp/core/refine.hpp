// Greedy post-GA refinement (an extension beyond the paper): given a trained
// approximate MLP, try clearing mask bits one at a time — cheapest-first by
// the FA-count gain of the removal — keeping every change that does not push
// training accuracy below a floor. This squeezes the last FAs out of each
// Pareto point before synthesis; bench_ablation quantifies the benefit.
//
// refine_greedy runs on the incremental RefineEngine (refine_engine.hpp):
// memoized per-sample forward state, delta updates from the mutated layer
// only, and an early-aborted accuracy scan. refine_greedy_naive is the
// original full-re-evaluation loop, kept as the bit-identical reference
// oracle (refine_engine_test compares the two). refine_front fans the
// per-Pareto-point refinement out over a borrowed ThreadPool; one engine per
// point, per-index output slots, bit-identical to the serial loop for any
// pool size.
#pragma once

#include "pmlp/core/approx_mlp.hpp"
#include "pmlp/core/trainer.hpp"
#include "pmlp/datasets/dataset.hpp"

namespace pmlp::core {

struct RefineConfig {
  /// Lowest acceptable training accuracy (absolute, e.g. baseline - 0.05).
  double accuracy_floor = 0.0;
  /// Maximum full passes over all remaining mask bits.
  int max_passes = 3;
  /// Also try rounding biases toward fewer set bits (cheaper constants).
  bool refine_biases = true;
};

struct RefineReport {
  long bits_cleared = 0;
  long biases_simplified = 0;
  long fa_before = 0;
  long fa_after = 0;
  double accuracy_before = 0.0;
  double accuracy_after = 0.0;
  int passes = 0;
  /// Candidate edits evaluated (identical between engine and naive paths).
  long trials = 0;
  /// Trials the engine rejected before a full dataset scan (0 on the naive
  /// path — it always scans everything). Diagnostic only; decisions are
  /// unaffected.
  long early_aborts = 0;
};

/// Refine `net` in place against `train`; returns what changed. Runs on the
/// incremental RefineEngine; bit-identical to refine_greedy_naive.
RefineReport refine_greedy(ApproxMlp& net,
                           const datasets::QuantizedDataset& train,
                           const RefineConfig& cfg);

/// The original one-full-accuracy()-per-trial implementation, kept as the
/// reference oracle for the engine (and for perf comparisons). Identical
/// decisions, reports (minus early_aborts) and final parameters.
RefineReport refine_greedy_naive(ApproxMlp& net,
                                 const datasets::QuantizedDataset& train,
                                 const RefineConfig& cfg);

/// Aggregate accounting of one refine_front call (summed point reports) —
/// surfaced as the flow's refine-stage counters and by run_bench.sh as the
/// refine_stage block of BENCH_table3.json.
struct RefineFrontReport {
  long points = 0;
  long trials = 0;
  long early_aborts = 0;
  long bits_cleared = 0;
  long biases_simplified = 0;
  [[nodiscard]] double early_abort_rate() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(early_aborts) /
                             static_cast<double>(trials);
  }
};

/// The flow's post-GA refinement stage (shared by FlowEngine and the
/// benches): greedily refine every estimated-Pareto point in place and
/// refresh its train_accuracy / fa_area. Each point's accuracy floor is
///   max(point accuracy - max_point_loss,
///       baseline_train_accuracy - max_total_loss).
/// Points fan out over the borrowed `pool` (null = serial, the default);
/// results are bit-identical for any pool.
RefineFrontReport refine_front(std::span<EstimatedPoint> front,
                               const datasets::QuantizedDataset& train,
                               double baseline_train_accuracy,
                               double max_point_loss, double max_total_loss,
                               ThreadPool* pool = nullptr);

}  // namespace pmlp::core
