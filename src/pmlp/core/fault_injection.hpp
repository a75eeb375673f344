// Test-only fault injection for the crash-safety test matrix (worker kill
// smoke, quarantine tests, stale-lease takeover). Faults are armed through
// environment variables, read once per process; with none set every hook is
// a no-op (a single branch on a cached bool). NEVER armed in production —
// the knobs exist so tests and CI can kill a worker at an exact stage
// boundary, stall its heartbeats past the lease timeout, or corrupt a
// chosen artifact right after its commit, and then prove the protocol
// recovers.
//
//   PMLP_FAULT_KILL_STAGE=<stage>      _exit(137) right after the named
//                                      stage's artifact commits (the stage
//                                      boundary) in a campaign
//   PMLP_FAULT_KILL_GA_GEN=<n>         _exit(137) right after the GA
//                                      generation checkpoint for next
//                                      generation <n> commits (mid-stage
//                                      kill inside the GA)
//   PMLP_FAULT_HEARTBEAT_STALL=1       the worker's heartbeat thread stops
//                                      refreshing leases (the worker stays
//                                      alive: exercises stale-lease
//                                      takeover + fencing)
//   PMLP_FAULT_CORRUPT=<file>          truncate artifact <file> (basename)
//                                      in half right after its atomic
//                                      commit -> a later loader must
//                                      detect, quarantine and recompute
#pragma once

#include <atomic>
#include <string>

namespace pmlp::core {

class FaultInjector {
 public:
  /// Process-wide injector, env-armed on first use.
  static const FaultInjector& instance();

  /// _exit(137) if PMLP_FAULT_KILL_STAGE names `stage` ("split", "ga", ...).
  void maybe_kill_at_stage(const char* stage) const;

  /// _exit(137) if PMLP_FAULT_KILL_GA_GEN equals `next_generation`.
  void maybe_kill_at_ga_checkpoint(int next_generation) const;

  /// True when PMLP_FAULT_HEARTBEAT_STALL is set: heartbeats must stop.
  [[nodiscard]] bool heartbeat_stalled() const { return heartbeat_stall_; }

  /// Truncate `path` in half if PMLP_FAULT_CORRUPT matches its basename.
  /// Fires once per process (the recomputed artifact must then survive).
  void maybe_corrupt_artifact(const std::string& path) const;

  /// Any fault armed? (Cheap guard for hot paths.)
  [[nodiscard]] bool armed() const { return armed_; }

 private:
  FaultInjector();

  bool armed_ = false;
  std::string kill_stage_;
  int kill_ga_gen_ = -1;
  bool heartbeat_stall_ = false;
  std::string corrupt_file_;
  mutable std::atomic<bool> corrupted_once_{false};
};

}  // namespace pmlp::core
