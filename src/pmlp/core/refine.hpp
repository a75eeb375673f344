// Greedy post-GA refinement (an extension beyond the paper): given a trained
// approximate MLP, walk every connection in layer, neuron and input order
// and try clearing its retained mask bits one at a time, lowest bit first,
// then try rounding the neuron's bias to fewer set bits. Every edit that
// keeps training accuracy above a floor stays. This squeezes the last FAs
// out of each Pareto point before synthesis; bench_ablation quantifies the
// benefit.
//
// refine_greedy runs on the incremental RefineEngine (refine_engine.hpp):
// sample-blocked memoized forward state, per-block delta updates from the
// edited layer only, and an early-aborted accuracy scan. Its decisions are
// bit-identical to the naive one-full-accuracy()-per-trial loop, which
// refine_engine_test keeps as its oracle. refine_front fans the per-point
// refinement out over a borrowed ThreadPool; one engine per point, every
// engine reading one shared SamplePlanes of the training set, per-index
// output slots, bit-identical to the serial loop for any pool size.
#pragma once

#include "pmlp/core/approx_mlp.hpp"
#include "pmlp/core/eval_engine.hpp"
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
  /// Rejected trials, each of which the engine stopped before the end of
  /// its scan (RefineEngineStats::early_aborts; 0 on the naive path, which
  /// always scans everything). Diagnostic only; decisions are unaffected.
  long early_aborts = 0;
  /// Trials whose edit moved a QReLU shift (engine only). Diagnostic.
  long shift_trials = 0;
};

/// The bias the greedy loop tries for neuron (l, o): the current bias with
/// its magnitude rounded to at most two set bits (e.g. 0b0110111 ->
/// 0b0111000), or the current bias itself when rounding leaves the
/// BitConfig range (1983 -> 2048 would not fit a 12-bit bias, and clamping
/// instead could yield MORE set bits, defeating the pass).
[[nodiscard]] std::int64_t bias_candidate(const ApproxMlp& net, int l, int o);

/// Refine `net` in place against `train`; returns what changed. Runs on the
/// incremental RefineEngine; bit-identical to the naive loop.
RefineReport refine_greedy(ApproxMlp& net, const SamplePlanes& train,
                           const RefineConfig& cfg);
/// The same, laying `train` out as SamplePlanes first.
RefineReport refine_greedy(ApproxMlp& net,
                           const datasets::QuantizedDataset& train,
                           const RefineConfig& cfg);

/// Aggregate accounting of one refine_front call (summed point reports) —
/// surfaced as the flow's refine-stage counters and as perfbench's traced
/// `refine.*` figures.
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
/// The training set is laid out as SamplePlanes once and shared by every
/// point's engine. Points fan out over the borrowed `pool` (null = serial,
/// the default); results are bit-identical for any pool.
RefineFrontReport refine_front(std::span<EstimatedPoint> front,
                               const datasets::QuantizedDataset& train,
                               double baseline_train_accuracy,
                               double max_point_loss, double max_total_loss,
                               ThreadPool* pool = nullptr);

}  // namespace pmlp::core
