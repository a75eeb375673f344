// One campaign scheduler for a dataset x seed x config grid of FlowEngines.
// CampaignRunner drives it in one process; CampaignWorker (worker.hpp) drives
// the same loop over a checkpoint tree that any number of worker processes
// drain together.
//
// The loop. run() starts resolve_n_threads(n_threads) lanes. Each lane
// claims a flow, takes one step and hands the flow back. A step runs the
// flow's pipeline (FlowEngine::advance()) up to and including its next
// computed stage; stages that reload from a checkpoint ride along, and the
// last step assembles the FlowResult. Claims sweep the flows round-robin
// from the one after the last taken, so a flow that finished a step waits
// until every other flow had its turn. Every flow runs its stages serially
// (TrainerConfig::n_threads is forced to 1), so the lanes are the
// campaign's whole thread budget; since every stage is bit-identical for
// any thread count, each flow's result is exactly what an independent
// run_flow() call would produce. A stage that throws fails only its flow.
// A ClaimSource says what may be claimed and what a step leaves behind:
//   - in memory (CampaignRunner): every flow keeps one engine;
//   - lease tree (CampaignWorker): a claim takes the flow's lease file and
//     steps a fresh engine reloaded from the tree.
//
// Leaders and followers. Flows with the same upstream_fingerprint()
// (dataset, topology, split, backprop config, bit widths — typically the GA
// seeds of one dataset) would compute bit-identical split, backprop and
// baseline stages, so the campaign computes them once. run() groups the
// flows by that key: the first of each group in add_flow() order leads it.
// A follower is not claimed until its leader's baseline exists or the
// leader has ended without one. It then adopts the leader's three upstream
// artifacts (FlowEngine::adopt_upstream()) before its first stage: from
// memory in a CampaignRunner, read-only from the leader's checkpoint
// directory in a tree. Adopted stages are reported as reused with 0 s wall
// through the same rollups and progress callback. A follower whose leader
// ended without a baseline, or whose leader's files do not load, computes
// its own upstream.
//
// Checkpointing. With a checkpoint_root, flow `name` persists under
// `<root>/<name>/` through the ordinary FlowEngine artifact formats, so a
// killed campaign restarts cheaply: a later run with the same specs reloads
// every completed stage bit-identically and recomputes only what is missing.
// A follower commits each adopted artifact that its own directory lacks, so
// every flow directory is a complete checkpoint, byte-identical to one the
// flow would have written alone — usable by a lone FlowEngine,
// `campaign --worker`, `campaign status` and `verify-rtl`. A completed flow
// gets a `done.txt` marker.
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
  /// (flows run their stages serially on the campaign's lanes); results
  /// are unchanged because every stage is bit-identical for any setting.
  FlowConfig config;
};

enum class CampaignFlowStatus {
  kPending,  ///< never started: the campaign never ran, or request_stop()
             ///< hit before any of the flow's stages executed
  kDone,
  kFailed,   ///< threw (in a tree: max_failures times); see `error` —
             ///< other flows are unaffected
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
  std::optional<FlowResult> result;  ///< set iff this run completed it
  /// Wall span from the flow's first scheduled stage to its completion
  /// (includes time interleaved with other flows' stages).
  double wall_seconds = 0.0;
};

/// Per-stage aggregate over every flow of the campaign.
struct CampaignStageRollup {
  double wall_seconds = 0.0;  ///< summed stage walls (compute or reload)
  long items = 0;             ///< summed stage work counters
  int executed = 0;           ///< stage runs, reloads included (a flow's
                              ///< reload of a stage counts once)
  int reused = 0;             ///< of which reloaded or adopted from another
                              ///< flow
};

struct CampaignResult {
  std::vector<CampaignFlowOutcome> flows;  ///< add_flow() order
  double wall_seconds = 0.0;       ///< campaign wall clock
  double stage_wall_seconds = 0.0;  ///< summed per-stage wall spans over all
                                    ///< flows (exceeds wall_seconds when
                                    ///< flows overlap lanes)
  /// Indexed by static_cast<int>(FlowStage).
  std::array<CampaignStageRollup, kNumFlowStages> stages{};
  int n_threads = 1;  ///< lanes: flows stepped at once
  int completed = 0;
  int failed = 0;
  int stopped = 0;
  int pending = 0;  ///< stopped before any stage ran
  /// Lease-tree runs only (CampaignWorker): the worker's identity, leases
  /// acquired, claim attempts lost to another worker, stale leases stolen.
  std::string worker_id;
  int claims = 0;
  int claim_conflicts = 0;
  int leases_stolen = 0;
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
  int flows_done = 0;  ///< flows this run finished (done or failed) so far
  int flows_total = 0;
};
/// Invoked from the lanes, serialized by the loop (never concurrently).
/// Throwing from the callback fails the current step of the flow.
using CampaignCallback = std::function<void(const CampaignProgress&)>;

struct CampaignConfig {
  /// Lanes: 0 = all hardware threads, N = N flows stepped at once. This is
  /// the campaign's TOTAL thread budget — flows never spawn pools of their
  /// own.
  int n_threads = 0;
  /// Per-flow checkpoint subdirectories live under this root (created on
  /// demand); empty disables checkpointing.
  std::string checkpoint_root;
};

/// What the loop may claim and what a step leaves behind. This base class
/// is the in-memory backend: every flow keeps its engine, may always be
/// taken, and ends as its steps leave it; the loop hands upstreams over.
/// The lease tree of CampaignWorker overrides it. Lanes call the members
/// concurrently, but take() only under the loop's lock.
class ClaimSource {
 public:
  enum class Take { kTaken, kBusy, kEnded };

  ClaimSource() = default;
  ClaimSource(const ClaimSource&) = delete;
  ClaimSource& operator=(const ClaimSource&) = delete;
  virtual ~ClaimSource() = default;

  /// True when each claim steps a fresh engine reloaded from the checkpoint
  /// and a leader hands its upstream over through its directory.
  bool fresh_engines = false;
  /// Jittered exponential backoff between sweeps that took nothing.
  double backoff_initial_s = 1.0;
  double backoff_max_s = 1.0;

  /// Try to take flow `i`, which no lane holds, for one step: kEnded when
  /// it is finished for good, kBusy when it is not claimable now.
  virtual Take take(std::size_t) { return Take::kTaken; }
  /// Hand back flow `i` after a step that left it `status` (kPending: more
  /// to run; kDone; kFailed with `error`). Returns the status the flow is
  /// left in: kPending when the source may offer it again.
  virtual CampaignFlowStatus release(std::size_t, CampaignFlowStatus status,
                                     const std::string& /*error*/) {
    return status;
  }
  /// After the lanes stop: add the source's view to `result`, whose flows
  /// this run did not finish are still kPending or kStopped.
  virtual void report(CampaignResult& /*result*/) const {}
};

class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignConfig cfg);
  virtual ~CampaignRunner();

  CampaignRunner(const CampaignRunner&) = delete;
  CampaignRunner& operator=(const CampaignRunner&) = delete;

  /// Register a flow; returns its index (reported order). Throws
  /// std::invalid_argument on an empty or duplicate name.
  std::size_t add_flow(CampaignFlowSpec spec);

  CampaignRunner& set_progress(CampaignCallback cb);

  /// Stop claiming (in-flight steps end after their current stage). Flows
  /// that have not completed are reported kStopped (or kPending if never
  /// started); their checkpoints remain resumable. Safe from any thread,
  /// the progress callback and a signal handler (one atomic store).
  void request_stop();

  /// Run every flow to completion (or failure) and aggregate. One-shot:
  /// a runner cannot be reused after run() returns. Throws what the claim
  /// source throws (an unusable checkpoint tree); stage failures are
  /// contained per flow.
  [[nodiscard]] CampaignResult run();

 protected:
  /// The backend run() claims from, for flows `specs` whose leaders are
  /// `leader` (leader[i] == i for a leader). The default is in-memory.
  virtual std::unique_ptr<ClaimSource> make_source(
      const std::vector<CampaignFlowSpec>& specs,
      const std::vector<std::size_t>& leader);

 private:
  struct Impl;  ///< the loop
  std::unique_ptr<Impl> impl_;
};

/// Machine-readable campaign report: totals, per-stage rollups and one full
/// flow report (write_flow_report_json) per completed flow.
void write_campaign_report_json(const CampaignResult& result,
                                std::ostream& os);

}  // namespace pmlp::core
