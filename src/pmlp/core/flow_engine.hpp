// Staged FlowEngine: the Fig. 2 pipeline decomposed into named stages
// (split/quantize -> backprop -> baseline pricing -> GA-AxC -> refine ->
// hardware analysis -> selection) with typed input/output artifacts,
// per-stage wall-time counters, an optional progress callback, and
// checkpoint/resume through the versioned artifact formats of
// serialize.hpp.
//
// Checkpointing: point the engine at a directory and every completed stage
// persists its artifact; a later engine constructed with the same dataset
// and config resumes from whatever is on disk and reproduces the original
// FlowResult bit-identically (all artifacts round-trip exactly; doubles are
// stored as hexfloats). The directory holds:
//
//   meta.txt            dataset digest + config fingerprint guard
//   train_raw.ds        pmlp-dataset v1        (split stage)
//   test_raw.ds         pmlp-dataset v1
//   train.qds           pmlp-quant-dataset v1
//   test.qds            pmlp-quant-dataset v1
//   float_net.txt       pmlp-float-mlp v1      (backprop stage)
//   baseline.txt        pmlp-baseline v1       (baseline stage)
//   ga_front.txt        pmlp-training v1       (GA stage)
//   refined_front.txt   pmlp-training v1       (refine stage)
//   evaluated.txt       pmlp-evaluated v1      (hardware stage)
//   ga_state.txt        pmlp-ga-state v1       (in-progress GA scratch,
//                                              only with ga.checkpoint_every
//                                              > 0; deleted when ga_front
//                                              commits)
//
// The fingerprint covers everything that changes results; the bit-identical
// knobs (trainer.n_threads, eval-cache capacity, ga.checkpoint_every) are
// excluded, so a run may be resumed with a different parallelism setting.
// If a stage has to be recomputed (its artifact is missing), every
// downstream stage is also recomputed and its artifact overwritten, so a
// checkpoint directory is always a consistent set. The selection stage is
// derived (cheap) and never checkpointed.
//
// Threads: the engine builds one ThreadPool from trainer.n_threads the first
// time its backprop, GA, refine or hardware stage computes, and lends it to
// each of them; a run that only reloads artifacts starts no threads.
//
// Crash safety: every artifact commits via fsync'd temp file + rename with
// a trailing crc32 checksum footer (serialize.hpp), so a SIGKILL at any
// instant leaves either the old or the new complete artifact. On reload a
// corrupt artifact (torn write from an unclean filesystem, bit rot) is
// detected by its footer, quarantined to `<name>.corrupt-N` and the stage
// recomputed — only meta.txt damage is fatal, because it guards against
// resuming onto the wrong dataset/config.
//
// Adoption: adopt_upstream() hands the engine the split, float net and
// baseline of another flow with the same upstream_fingerprint() (same
// dataset, topology, split, backprop config and bit widths), which are
// bit-identical to what its own first three stages would compute. The
// campaign uses it so that GA seeds of one dataset train one baseline, and
// the benches to reuse one trained baseline across many GA runs. The three
// stages are reported as reused with 0 s wall and an empty BackpropReport,
// like a checkpoint reload. A checkpointing engine commits each adopted
// artifact that its own stage would have written (missing on disk, or
// downstream of one that was), so its directory stays a complete checkpoint
// and its later stages reload or recompute exactly as if it had run the
// three stages itself. An adopted artifact already on disk is not re-read,
// so a corrupt one is quarantined only by the next engine that loads it.
// read_upstream() reads the three artifacts from another flow's checkpoint
// without writing or quarantining anything there.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>

#include "pmlp/core/flow.hpp"
#include "pmlp/core/thread_pool.hpp"

namespace pmlp::core {

// The stage artifact types (SplitArtifacts, BaselinePricing) live in
// flow.hpp next to BaselineArtifacts; their serializers in serialize.hpp.

/// Called right after each stage completes (or reloads from checkpoint).
using StageCallback = std::function<void(const StageReport&)>;

/// The outputs of the split, backprop and baseline stages, as one flow hands
/// them to another with the same upstream fingerprint.
struct UpstreamArtifacts {
  SplitArtifacts split;
  mlp::FloatMlp float_net;
  BaselinePricing baseline;
};

/// Digest of everything the split, backprop and baseline stages read: the
/// dataset, topology, split, backprop config and bit widths. Flows with
/// equal values compute bit-identical upstream artifacts.
[[nodiscard]] std::uint64_t upstream_fingerprint(
    const datasets::Dataset& data, const mlp::Topology& topology,
    const FlowConfig& cfg);

class FlowEngine {
 public:
  /// `data` must be normalized ([0,1] features). It may be empty when the
  /// upstream is adopted (adopt_upstream()).
  FlowEngine(datasets::Dataset data, mlp::Topology topology, FlowConfig cfg);

  /// Enable checkpointing under `dir` (created on first use). Throws
  /// std::runtime_error from the next stage run if the directory holds a
  /// checkpoint for a different dataset or config.
  FlowEngine& set_checkpoint_dir(std::string dir);
  FlowEngine& set_progress(StageCallback cb);

  /// Take over the first three stages from a flow with the same
  /// upstream_fingerprint() (see the header). Must be called before any
  /// stage ran; throws std::logic_error otherwise, and std::runtime_error
  /// on a checkpoint meta mismatch or a failed artifact commit.
  FlowEngine& adopt_upstream(UpstreamArtifacts up);

  /// The upstream artifacts that this engine's flow committed under `dir`,
  /// whose meta.txt must name this engine's dataset and config. Reads only:
  /// nothing under `dir` is written or quarantined. nullopt when any file
  /// is missing, damaged or foreign.
  [[nodiscard]] std::optional<UpstreamArtifacts> read_upstream(
      const std::string& dir) const;

  // Lazy stage access: each accessor runs (or checkpoint-loads) the
  // pipeline up to the stage producing the artifact.
  const SplitArtifacts& split();
  const mlp::FloatMlp& float_net();
  const BaselinePricing& baseline();
  /// Assembled copy of the first three stages' outputs (compat with the
  /// original build_baseline()). The rvalue overload moves the artifacts
  /// out instead of copying (for throwaway engines); the engine must not
  /// be used afterwards.
  [[nodiscard]] BaselineArtifacts baseline_artifacts() &;
  [[nodiscard]] BaselineArtifacts baseline_artifacts() &&;

  /// Run every remaining stage and assemble the FlowResult (including the
  /// per-stage reports). The engine keeps its artifacts, so repeated calls
  /// return the same result without recomputing. The rvalue overload moves
  /// the artifacts into the result instead of deep-copying them (use
  /// `std::move(engine).run()` when the engine is done after).
  FlowResult run() &;
  FlowResult run() &&;

  /// Run (or checkpoint-load) exactly one stage: the earliest one whose
  /// artifact is not yet available. Returns the stage that ran, or nullopt
  /// once the pipeline is complete (run() is then a cheap assembly). The
  /// campaign loop (campaign.hpp) interleaves many flows' stages with it.
  std::optional<FlowStage> advance();

  /// Reports of every stage executed so far, in execution order.
  [[nodiscard]] const std::vector<StageReport>& stages() const {
    return stages_;
  }

  [[nodiscard]] const mlp::Topology& topology() const { return topology_; }
  [[nodiscard]] const FlowConfig& config() const { return config_; }

 private:
  struct Selection {
    std::vector<HwEvaluatedPoint> front;
    std::optional<HwEvaluatedPoint> best;
    double area_reduction = 0.0;
    double power_reduction = 0.0;
  };

  void ensure_checkpoint();
  [[nodiscard]] BaselineArtifacts assemble_baseline(bool move_out);
  [[nodiscard]] FlowResult assemble(bool move_out);
  [[nodiscard]] std::string path(const char* file) const;
  [[nodiscard]] std::uint64_t config_fingerprint() const;
  /// True when checkpointing is on, no upstream stage recomputed and every
  /// one of `files` exists: the stage reloads instead of computing.
  [[nodiscard]] bool reloadable(
      std::initializer_list<const char*> files) const;
  // Commit a stage's artifacts (no-ops without a checkpoint directory).
  void commit_split() const;
  void commit_float_net() const;
  void commit_baseline() const;
  void report(FlowStage stage, double wall_seconds, bool reused, long items);
  /// The flow's pool, built on first use; null when trainer.n_threads
  /// resolves to 1.
  [[nodiscard]] ThreadPool* pool();

  void stage_split();
  void stage_backprop();
  void stage_baseline();
  void stage_ga();
  void stage_refine();
  void stage_hardware();
  void stage_select();

  datasets::Dataset data_;
  mlp::Topology topology_;
  FlowConfig config_;
  std::string checkpoint_dir_;  ///< empty = checkpointing off
  StageCallback progress_;

  bool checkpoint_ready_ = false;
  /// Once any stage recomputes, downstream artifacts on disk are stale:
  /// stop loading and overwrite them instead.
  bool upstream_recomputed_ = false;

  std::optional<SplitArtifacts> split_;
  std::optional<mlp::FloatMlp> float_net_;
  /// TrainEngine report of a backprop stage executed in this process
  /// (zeros when the stage was reloaded, injected or adopted — not
  /// checkpointed).
  mlp::BackpropReport backprop_report_;
  std::optional<BaselinePricing> pricing_;
  std::optional<TrainingResult> training_;
  bool refined_ = false;
  /// Counters of a refine stage executed in this process (zeros when the
  /// stage was reloaded from a checkpoint or disabled).
  RefineFrontReport refine_report_;
  std::optional<std::vector<HwEvaluatedPoint>> evaluated_;
  std::optional<Selection> selection_;
  std::unique_ptr<ThreadPool> pool_;

  std::vector<StageReport> stages_;
};

/// Machine-readable FlowResult report (stages, baseline, counters, every
/// evaluated/front point, the Table II pick): one JSON object.
void write_flow_report_json(const FlowResult& result,
                            const std::string& dataset_name,
                            const mlp::Topology& topology, std::ostream& os);

/// Minimal JSON string escaping, quotes included (shared by the flow and
/// campaign report writers).
void json_escape(const std::string& s, std::ostream& os);

}  // namespace pmlp::core
