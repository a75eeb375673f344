// The framework of Fig. 2: discrete genetic-based hardware-aware training.
// Runs NSGA-II over the chromosome space (masks, signs, exponents, biases),
// returns the estimated accuracy-area Pareto set of approximate MLPs, and
// (together with hardware_analysis.hpp) the hardware-evaluated true front.
#pragma once

#include <optional>
#include <string>

#include "pmlp/core/problem.hpp"

namespace pmlp::core {

class ThreadPool;

struct TrainerConfig {
  nsga2::Config ga;        ///< population/generations/operators
  BitConfig bits;          ///< weight/input/activation/bias widths
  ProblemConfig problem;   ///< loss bound + doping
  /// The one thread setting: 0 = all hardware threads, 1 = serial, N = N
  /// workers. A FlowEngine builds one pool from it and lends that pool to
  /// its backprop, GA, refine and hardware stages; the pool-less
  /// train_ga_* overloads build their own. Results are bit-identical for
  /// any setting.
  int n_threads = 0;
};

/// One point of the estimated Pareto set (training-time objectives).
struct EstimatedPoint {
  ApproxMlp model;
  double train_accuracy = 0.0;
  long fa_area = 0;
};

/// GA-stage output. The wall/throughput counters here are the template for
/// the FlowEngine's per-stage StageReport accounting (flow.hpp): the GA
/// stage's report carries `evaluations` as its work-item count, and a
/// checkpointed TrainingResult round-trips these counters verbatim so a
/// resumed run reports the original training cost.
struct TrainingResult {
  std::vector<EstimatedPoint> estimated_pareto;  ///< sorted by area ascending
  long evaluations = 0;
  double wall_seconds = 0.0;
  double baseline_train_accuracy = 0.0;
  // Evaluation-engine perf counters for this run (see eval_engine.hpp).
  /// End-to-end trainer throughput: individuals scored per second, cache
  /// hits included. Compiled-inference-only throughput is
  /// evals_per_second * (1 - cache_hit_rate).
  double evals_per_second = 0.0;
  long cache_hits = 0;          ///< memo-cache short-circuits
  double cache_hit_rate = 0.0;  ///< hits / lookups (0 when cache off)
  /// SIMD ISA the batched kernels dispatched to ("avx2"/"neon"/"scalar")
  /// and the layer-sweep block size, so eval_throughput figures compare
  /// across machines. Runtime machine metadata, NOT serialized with
  /// checkpoints (a resumed artifact describes the training, not the host);
  /// empty on a TrainingResult loaded from disk.
  std::string simd_isa;
  int eval_block = 0;
};

/// Train approximate MLPs for `topology` on `train`, evaluating fitness on
/// the borrowed `pool` (null = serial; cfg.n_threads is not read).
/// `baseline` supplies the accuracy reference for the 10% bound and the
/// doped seeds (pass the quantized bespoke baseline [2]).
[[nodiscard]] TrainingResult train_ga_axc(
    const mlp::Topology& topology, const datasets::QuantizedDataset& train,
    std::optional<mlp::QuantMlp> baseline, const TrainerConfig& cfg,
    ThreadPool* pool);

/// As above, on a pool of cfg.n_threads workers built for this call.
[[nodiscard]] TrainingResult train_ga_axc(
    const mlp::Topology& topology, const datasets::QuantizedDataset& train,
    std::optional<mlp::QuantMlp> baseline, const TrainerConfig& cfg);

/// Accuracy-only GA training (single objective, no approximations): the
/// "Exec.Time GA" reference column of Table III. Masks are pinned to
/// all-ones; area is ignored (objective 2 constant). Pool as train_ga_axc.
[[nodiscard]] TrainingResult train_ga_accuracy_only(
    const mlp::Topology& topology, const datasets::QuantizedDataset& train,
    const TrainerConfig& cfg, ThreadPool* pool);

/// As above, on a pool of cfg.n_threads workers built for this call.
[[nodiscard]] TrainingResult train_ga_accuracy_only(
    const mlp::Topology& topology, const datasets::QuantizedDataset& train,
    const TrainerConfig& cfg);

}  // namespace pmlp::core
