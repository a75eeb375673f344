// Multi-dataset campaign runner: one process drives N independent
// FlowEngines (dataset x seed x config grid) over a SINGLE shared ThreadPool
// with a global stage-aware scheduler, instead of one-flow-at-a-time
// binaries that each spawn their own worker forest.
//
// Scheduling model. Every flow is decomposed into its pipeline stages
// (FlowEngine::advance() runs exactly one pending stage); each stage is one
// task on the shared pool, and a completed stage re-enqueues the flow's next
// stage at the BACK of the pool's FIFO queue. With W workers that yields
// round-robin fairness across flows at stage granularity — the same
// global-fairness-over-independent-work-items shape as HOTS-style iterative
// schedulers — and bounds the campaign's thread count at W regardless of the
// number of flows. Inside the campaign every flow runs its stages serially
// (TrainerConfig::n_threads is forced to 1), so N flows never oversubscribe
// to N x n_threads workers; since every stage is bit-identical for any
// thread count, each flow's result is exactly what an independent run_flow()
// call would produce.
//
// Leaders and followers. Flows with the same
// FlowEngine::upstream_fingerprint() (dataset, topology, split, backprop
// config, bit widths — typically the GA seeds of one dataset) would compute
// bit-identical split, backprop and baseline stages, so the campaign
// computes them once. run() groups the flows by that key: the first of each
// group in add_flow() order is its leader and is submitted at start; the
// others are followers and stay parked. When the leader's baseline stage
// completes (computed or reloaded), each follower gets a copy of the
// leader's upstream artifacts, and is submitted at the back of the queue,
// where its first step adopts them (FlowEngine::adopt_upstream()). Adopted
// stages are reported as reused with 0 s wall through the same rollups and
// progress callback. A leader that fails or is stopped before its baseline
// releases its followers without artifacts: they compute their own
// upstream, or end kPending on a stop. No worker ever blocks on another
// flow, and no parked flow outlives run().
//
// Checkpointing. With a checkpoint_root, flow `name` persists under
// `<root>/<name>/` through the ordinary FlowEngine artifact formats, so a
// killed campaign restarts cheaply: a later run with the same specs reloads
// every completed stage bit-identically and recomputes only what is missing.
// A follower commits each adopted artifact that its own directory lacks, so
// every flow directory is a complete checkpoint, byte-identical to one the
// flow would have written alone — usable by a lone FlowEngine,
// `campaign --worker`, `campaign status` and `verify-rtl` — and its later
// stages reload or recompute exactly as if it had run the three upstream
// stages itself. The distributed CampaignWorker (worker.hpp) does not share
// upstream stages: each worker process computes its flow's own.
//
// Failure isolation. A flow that throws (corrupt checkpoint, bad artifact,
// ...) is recorded as failed with its error message; the remaining flows run
// to completion.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pmlp/core/flow_engine.hpp"

namespace pmlp::core {

/// One independent flow of the campaign grid.
struct CampaignFlowSpec {
  /// Unique within the campaign; also the checkpoint subdirectory name, so
  /// it must be a valid path component ("Cardio_s2").
  std::string name;
  std::string dataset;  ///< display name for reports
  datasets::Dataset data;
  mlp::Topology topology;
  /// Per-flow flow config. trainer.n_threads is ignored inside a campaign
  /// (flows share the campaign pool and run their stages serially); results
  /// are unchanged because every stage is bit-identical for any setting.
  FlowConfig config;
};

enum class CampaignFlowStatus {
  kPending,  ///< never started: the campaign never ran, or request_stop()
             ///< hit before any of the flow's stages executed
  kDone,
  kFailed,   ///< threw; see `error` — other flows are unaffected
  kStopped,  ///< request_stop() hit it mid-pipeline; checkpoint is resumable
};

[[nodiscard]] const char* campaign_flow_status_name(CampaignFlowStatus s);

/// Outcome of one flow (per-flow slice of the CampaignResult).
struct CampaignFlowOutcome {
  std::string name;
  std::string dataset;
  mlp::Topology topology;
  CampaignFlowStatus status = CampaignFlowStatus::kPending;
  std::string error;                 ///< non-empty iff kFailed
  std::optional<FlowResult> result;  ///< set iff kDone
  /// Wall span from the flow's first scheduled stage to its completion
  /// (includes time interleaved with other flows' stages).
  double wall_seconds = 0.0;
};

/// Per-stage aggregate over every flow of the campaign.
struct CampaignStageRollup {
  double wall_seconds = 0.0;  ///< summed stage walls (compute or reload)
  long items = 0;             ///< summed stage work counters
  int executed = 0;           ///< stage runs, reloads included
  int reused = 0;             ///< of which reloaded or adopted from another
                              ///< flow
};

struct CampaignResult {
  std::vector<CampaignFlowOutcome> flows;  ///< add_flow() order
  double wall_seconds = 0.0;       ///< campaign wall clock
  double stage_wall_seconds = 0.0;  ///< summed per-stage wall spans over all
                                    ///< flows (exceeds wall_seconds when
                                    ///< flows overlap workers)
  /// Indexed by static_cast<int>(FlowStage).
  std::array<CampaignStageRollup, kNumFlowStages> stages{};
  int n_threads = 1;  ///< actual shared-pool worker count
  int completed = 0;
  int failed = 0;
  int stopped = 0;
  int pending = 0;  ///< stopped before any stage ran
  [[nodiscard]] bool all_ok() const {
    return failed == 0 && stopped == 0 && pending == 0;
  }
  [[nodiscard]] double flows_per_second() const {
    return wall_seconds > 0.0 ? completed / wall_seconds : 0.0;
  }
};

/// Progress event: one stage of one flow completed (or reloaded).
struct CampaignProgress {
  std::size_t flow_index = 0;
  const std::string& flow_name;
  StageReport stage;
  int flows_done = 0;  ///< done + failed + stopped so far
  int flows_total = 0;
};
/// Invoked from worker threads, serialized by the runner (never
/// concurrently). Throwing from the callback fails the current flow.
using CampaignCallback = std::function<void(const CampaignProgress&)>;

struct CampaignConfig {
  /// Shared-pool worker count: 0 = all hardware threads, N = N workers.
  /// This is the campaign's TOTAL thread budget — flows never spawn pools
  /// of their own.
  int n_threads = 0;
  /// Per-flow checkpoint subdirectories live under this root (created on
  /// demand); empty disables checkpointing.
  std::string checkpoint_root;
};

class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignConfig cfg);
  ~CampaignRunner();

  CampaignRunner(const CampaignRunner&) = delete;
  CampaignRunner& operator=(const CampaignRunner&) = delete;

  /// Register a flow; returns its index (reported order). Throws
  /// std::invalid_argument on an empty or duplicate name.
  std::size_t add_flow(CampaignFlowSpec spec);

  CampaignRunner& set_progress(CampaignCallback cb);

  /// Stop scheduling new stages (in-flight stages finish). Flows that have
  /// not completed are reported kStopped (or kPending if never started);
  /// their checkpoints remain resumable. Safe from any thread, including
  /// the progress callback.
  void request_stop();

  /// Run every flow to completion (or failure) and aggregate. One-shot:
  /// a runner cannot be reused after run() returns.
  [[nodiscard]] CampaignResult run();

 private:
  struct FlowState;

  void step(std::size_t index);
  /// Submit every parked follower of `leader`, each with a copy of the
  /// leader's upstream artifacts when `adopt`.
  void release_followers(FlowState& leader, bool adopt);
  void finish_flow(FlowState& st, CampaignFlowStatus status,
                   const std::string& error);

  CampaignConfig cfg_;
  CampaignCallback progress_;
  std::vector<std::unique_ptr<FlowState>> flows_;
  struct Impl;  ///< scheduler state, live during run()
  std::unique_ptr<Impl> impl_;
};

/// Machine-readable campaign report: totals, per-stage rollups and one full
/// flow report (write_flow_report_json) per completed flow.
void write_campaign_report_json(const CampaignResult& result,
                                std::ostream& os);

}  // namespace pmlp::core
