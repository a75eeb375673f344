// End-to-end convenience flow (the whole Fig. 2 pipeline as a library
// call): dataset -> gradient-trained float MLP -> quantized bespoke
// baseline [2] -> GA-AxC training -> optional greedy refinement ->
// gate-level pricing/verification -> Table II design pick.
//
// run_flow()/build_baseline() are thin wrappers over the staged FlowEngine
// (flow_engine.hpp), which additionally offers per-stage timings, progress
// callbacks and checkpoint/resume. The bench binaries and examples are thin
// wrappers over these entry points.
#pragma once

#include <optional>
#include <string>

#include "pmlp/core/hardware_analysis.hpp"
#include "pmlp/core/refine.hpp"
#include "pmlp/core/trainer.hpp"
#include "pmlp/datasets/dataset.hpp"
#include "pmlp/mlp/backprop.hpp"

namespace pmlp::core {

struct FlowConfig {
  double train_fraction = 0.7;     ///< stratified split (paper §V-A)
  std::uint64_t split_seed = 1;
  mlp::BackpropConfig backprop;    ///< float/gradient training
  TrainerConfig trainer;           ///< GA-AxC; trainer.n_threads is the
                                   ///< flow's one thread setting (0 = auto)
                                   ///< and trainer.problem.eval_cache_capacity
                                   ///< the genome memo-cache size (0 = off) —
                                   ///< both bit-identical for any setting
  bool refine = true;              ///< greedy post-GA refinement extension
  double refine_max_point_loss = 0.01;
  double report_max_loss = 0.05;   ///< Table II selection bound
  HardwareAnalysisConfig hardware; ///< equivalence-check depth
};

/// The Fig. 2 stages, in pipeline order.
enum class FlowStage {
  kSplit,     ///< stratified split + input quantization
  kBackprop,  ///< gradient-trained float reference
  kBaseline,  ///< quantized bespoke baseline [2] + 1 V pricing
  kGa,        ///< GA-AxC hardware-aware training (NSGA-II)
  kRefine,    ///< greedy post-GA refinement (optional)
  kHardware,  ///< netlist build + pricing + equivalence per candidate
  kSelect,    ///< true Pareto + Table II pick
};
inline constexpr int kNumFlowStages = 7;

/// Stable lower-case stage name ("split", "backprop", ...).
[[nodiscard]] const char* flow_stage_name(FlowStage stage);

/// Checkpoint artifact file committed when the stage completes (the LAST
/// file for multi-artifact stages, so its existence implies the whole stage
/// is on disk). nullptr for kSelect, which is derived and never
/// checkpointed. This is how campaign workers and `campaign status` read a
/// flow's progress from the checkpoint tree alone.
[[nodiscard]] const char* flow_stage_artifact(FlowStage stage);

/// Wall-time / work accounting of one executed (or reloaded) stage —
/// TrainingResult-style counters at flow granularity.
struct StageReport {
  FlowStage stage = FlowStage::kSplit;
  double wall_seconds = 0.0;  ///< compute time, or checkpoint-load time
  bool reused = false;        ///< loaded from checkpoint / injected artifact
  long items = 0;             ///< stage-specific work count: samples split,
                              ///< GA evaluations, candidates priced, ...
};

/// Output of the split stage: the paper's 70/30 stratified split with
/// 4-bit-quantized copies (what training and hardware actually consume).
struct SplitArtifacts {
  datasets::Dataset train_raw;
  datasets::Dataset test_raw;
  datasets::QuantizedDataset train;
  datasets::QuantizedDataset test;
};

/// Output of the baseline stage: the exact bespoke quantized baseline [2],
/// its 1 V netlist pricing and its accuracy on both split halves.
struct BaselinePricing {
  mlp::QuantMlp net;
  hwmodel::CircuitCost cost;
  double train_accuracy = 0.0;
  double test_accuracy = 0.0;
};

/// Everything produced up to (and including) the baseline.
struct BaselineArtifacts {
  datasets::Dataset train_raw;
  datasets::Dataset test_raw;
  datasets::QuantizedDataset train;
  datasets::QuantizedDataset test;
  mlp::FloatMlp float_net;
  mlp::QuantMlp baseline;
  hwmodel::CircuitCost baseline_cost;     ///< bespoke netlist at 1 V
  double baseline_train_accuracy = 0.0;
  double baseline_test_accuracy = 0.0;
};

/// Split/quantize a normalized dataset, train and quantize the baseline,
/// and price its bespoke circuit at 1 V.
[[nodiscard]] BaselineArtifacts build_baseline(const datasets::Dataset& data,
                                               const mlp::Topology& topology,
                                               const FlowConfig& cfg);

/// Full flow result.
struct FlowResult {
  BaselineArtifacts baseline;
  TrainingResult training;
  /// Backprop-stage report from the TrainEngine (zeros when the stage was
  /// injected or reloaded from a checkpoint — this process never trained).
  mlp::BackpropReport backprop;
  /// Refine-stage counters (zeros when the stage was disabled, injected or
  /// reloaded from a checkpoint — the counters are not checkpointed).
  RefineFrontReport refine;
  std::vector<HwEvaluatedPoint> evaluated;  ///< all candidates, priced
  std::vector<HwEvaluatedPoint> front;      ///< true Pareto subset
  /// Table II pick: min-area design within report_max_loss of the
  /// baseline's test accuracy (nullopt if none qualified).
  std::optional<HwEvaluatedPoint> best;
  double area_reduction = 0.0;   ///< baseline/best (0 if no pick)
  double power_reduction = 0.0;
  /// Per-stage wall times, pipeline order (refine omitted when disabled).
  std::vector<StageReport> stages;
};

/// Run the complete pipeline on a normalized dataset.
[[nodiscard]] FlowResult run_flow(const datasets::Dataset& data,
                                  const mlp::Topology& topology,
                                  const FlowConfig& cfg);

}  // namespace pmlp::core
