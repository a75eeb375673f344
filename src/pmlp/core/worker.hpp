// Crash-safe distributed campaign workers: N independent `pmlp campaign
// --worker` processes drain ONE checkpoint tree cooperatively, with no
// coordinator, no IPC and no shared state beyond the tree itself.
//
// Protocol. The campaign coordinator (`pmlp campaign --checkpoint DIR`)
// writes a manifest (`campaign.txt`) describing the dataset x seed grid;
// any number of workers then join with `--worker --checkpoint DIR`. A
// CampaignWorker runs the campaign loop (campaign.hpp) over the tree: each
// lane claims one flow at a time through a per-flow lease file
// (`claim.lock`, created with O_CREAT|O_EXCL — the filesystem arbitrates,
// exactly one creator wins), runs one step on a fresh engine reloaded from
// the tree, releases the lease and moves on round-robin, so a killed worker
// forfeits at most one stage per lane. A follower is not claimed until its
// leader has committed `baseline.txt` or is marked failed or done; it then
// adopts the leader's split, float net and baseline, read-only from the
// leader's directory, or computes its own if any of them fails to load.
//
// Liveness. One heartbeat thread per worker refreshes a monotonic counter
// in `beat.txt` (tmp+rename, per-worker temp name) of every lease the
// worker holds. Other workers judge a lease stale when the (claim, beat)
// pair has not changed for `lease_timeout_s` on THEIR OWN monotonic clock —
// no cross-host clock comparison — or immediately when the claim names a
// pid on their host that no longer exists. A stale lease is stolen by
// renaming `claim.lock` aside (atomic: exactly one thief wins the rename)
// and re-claiming fresh.
//
// Safety does NOT depend on mutual exclusion. Every stage is a
// bit-identical recompute committed via fsync+rename (serialize.hpp), so
// the worst a lease race can cause — two workers running the same stage —
// wastes one stage of CPU and commits the same bytes twice. Leases are a
// throughput optimization; correctness comes from idempotence + atomic
// commits. The one guarded window is lease fencing: a worker whose claim
// disappears (stolen after a heartbeat stall) stops beating and never
// writes terminal markers, so it cannot clobber the new owner's
// bookkeeping.
//
// Failure handling. A flow whose step throws gets its failure count
// bumped in `failures.txt`; after `max_failures` consecutive failed claims
// the flow is marked terminally failed (`failed.txt`) and the rest of the
// grid keeps draining — one poisoned checkpoint never wedges the campaign.
// A completed flow is marked with `done.txt`. `pmlp campaign status`
// renders all of this from the tree alone.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pmlp/core/campaign.hpp"

namespace pmlp::core {

// ---------------------------------------------------------------- manifest

/// One row of the campaign grid as persisted in the tree manifest.
struct CampaignManifestFlow {
  std::string name;     ///< checkpoint subdirectory ("Cardio_s2")
  std::string dataset;  ///< Table I dataset name
  std::uint64_t seed = 1;
};

/// The dataset x seed grid plus the shared GA budget, persisted as
/// `campaign.txt` at the tree root so workers (and `campaign status`) can
/// reconstruct every flow spec from the tree alone.
struct CampaignManifest {
  int population = 80;
  int generations = 200;
  /// ga.checkpoint_every for workers (generation-level GA checkpointing;
  /// 0 = off). Outside the config fingerprint, so it may differ between
  /// runs over the same tree.
  int ga_checkpoint = 0;
  std::vector<CampaignManifestFlow> flows;
};

/// Commit `campaign.txt` under `root` (crash-safe, checksum-footed).
void save_campaign_manifest(const CampaignManifest& m,
                            const std::string& root);

/// Load `root`/campaign.txt. Throws std::runtime_error when missing or
/// unreadable, std::invalid_argument when malformed/corrupt.
[[nodiscard]] CampaignManifest load_campaign_manifest(const std::string& root);

/// Commit the terminal `done.txt` marker in `flow_dir` (crash-safe,
/// checksum-footed). An empty `worker_id` (an in-memory CampaignRunner,
/// which has no lease identity) is written as `-`.
void write_done_marker(const std::string& flow_dir,
                       const std::string& worker_id);

// ------------------------------------------------------------------ leases
// Low-level lease primitives, exposed for the failure-matrix tests (which
// forge foreign claims and race real workers against them).

namespace lease {

/// Parsed claim.lock contents. `raw` is the exact file text — staleness is
/// judged on raw (claim, beat) snapshots, never on parsed fields.
struct ClaimInfo {
  std::string worker;
  std::string host;
  long pid = -1;
  std::string raw;
};

/// Atomically create `claim.lock` in `flow_dir` (O_CREAT|O_EXCL — the
/// filesystem picks exactly one winner among racing workers). The file is
/// create-once: it is NEVER rewritten, so a fresh claim can never be
/// silently overwritten by a stalled previous owner. Returns false when
/// the lock already exists. Throws std::runtime_error on real I/O errors.
bool try_claim(const std::string& flow_dir, const std::string& worker_id);

/// Read and parse claim.lock; nullopt when absent (racing a release) or
/// unparsable mid-steal.
[[nodiscard]] std::optional<ClaimInfo> read_claim(const std::string& flow_dir);

/// Publish heartbeat `count` to beat.txt (tmp+rename; the temp name embeds
/// the worker id so concurrent writers never collide on the temp file).
void write_beat(const std::string& flow_dir, const std::string& worker_id,
                long count);

/// Raw beat.txt text ("" when absent) — the second half of the staleness
/// snapshot.
[[nodiscard]] std::string read_beat_raw(const std::string& flow_dir);

/// True when the claim names a pid on THIS host that no longer exists —
/// the same-host fast path that reclaims a SIGKILLed worker's lease
/// without waiting out the timeout.
[[nodiscard]] bool claim_owner_dead_locally(const ClaimInfo& claim);

/// Steal a stale lease: rename claim.lock to a quarantine name derived
/// from `thief_id`. The rename is atomic — among racing thieves exactly
/// one succeeds; the rest observe ENOENT and return false. The winner
/// still has to try_claim() afterwards (and may lose THAT race too).
bool steal_claim(const std::string& flow_dir, const std::string& thief_id);

/// Release our lease: remove beat.txt and claim.lock iff claim.lock still
/// names `worker_id` (it may have been stolen while we stalled).
void release_claim(const std::string& flow_dir, const std::string& worker_id);

}  // namespace lease

// ------------------------------------------------------------------ worker

/// A CampaignConfig (n_threads = lanes, each holding at most one lease;
/// checkpoint_root = the tree) plus the lease protocol's knobs.
struct WorkerConfig : CampaignConfig {
  /// Unique worker identity; "" derives "<host>-<pid>-<random hex>".
  std::string worker_id;
  /// Lease with an unchanged (claim, beat) snapshot for this long is
  /// stale and may be stolen.
  double lease_timeout_s = 10.0;
  /// Heartbeat refresh period; at most lease_timeout_s / 2.
  double heartbeat_s = 1.0;
  /// Consecutive failed claims (>= 1) before a flow is marked failed.
  int max_failures = 3;
  /// Jittered exponential backoff (> 0) while every claimable flow is held
  /// by a live owner.
  double backoff_initial_s = 0.05;
  double backoff_max_s = 1.0;
};

/// One cooperating drain process: the campaign loop over a checkpoint tree.
/// Specs come from the manifest (the CLI reconstructs them, datasets
/// loaded), in its order. run() returns when every flow is terminal or on
/// request_stop(). Its result holds every flow as the tree sees it then (a
/// flow another worker finished is kDone without a result), the stages this
/// worker ran, and its lease counters.
class CampaignWorker : public CampaignRunner {
 public:
  /// Throws std::invalid_argument on an empty checkpoint_root or on knobs
  /// outside the ranges WorkerConfig states.
  CampaignWorker(std::vector<CampaignFlowSpec> specs, WorkerConfig cfg);

  [[nodiscard]] const std::string& worker_id() const {
    return worker_.worker_id;
  }

 protected:
  std::unique_ptr<ClaimSource> make_source(
      const std::vector<CampaignFlowSpec>& specs,
      const std::vector<std::size_t>& leader) override;

 private:
  WorkerConfig worker_;
};

// ------------------------------------------------------------------ status

/// Observed state of one flow, read from the tree alone (no processes
/// consulted).
struct FlowStatusRow {
  std::string name;
  int stages_done = 0;    ///< checkpointed stage artifacts present
  int stages_total = 0;   ///< checkpointed stages expected (6)
  std::string next_stage; ///< first missing stage; "-" when all present
  bool done = false;      ///< done.txt present
  bool failed = false;    ///< failed.txt present (terminal)
  std::string owner;      ///< claim.lock worker id; "" unclaimed
  /// Seconds since the newer of claim.lock/beat.txt changed (file mtime);
  /// < 0 when unclaimed.
  double heartbeat_age_s = -1.0;
  int failures = 0;       ///< failures.txt counter
  std::string error;      ///< last recorded failure message
};

struct CampaignStatusReport {
  CampaignManifest manifest;
  std::vector<FlowStatusRow> flows;  ///< manifest order
  int done = 0;
  int failed = 0;
  int claimed = 0;
};

/// Render grid progress from the checkpoint tree alone (manifest + per-flow
/// artifacts/markers/leases). Throws like load_campaign_manifest.
[[nodiscard]] CampaignStatusReport read_campaign_status(
    const std::string& root);

void write_campaign_status_table(const CampaignStatusReport& s,
                                 std::ostream& os);
void write_campaign_status_json(const CampaignStatusReport& s,
                                std::ostream& os);

}  // namespace pmlp::core
