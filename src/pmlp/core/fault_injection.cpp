#include "pmlp/core/fault_injection.hpp"

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>

namespace pmlp::core {
namespace fs = std::filesystem;

FaultInjector::FaultInjector() {
  if (const char* s = std::getenv("PMLP_FAULT_KILL_STAGE")) {
    kill_stage_ = s;
  }
  if (const char* s = std::getenv("PMLP_FAULT_KILL_GA_GEN")) {
    kill_ga_gen_ = std::atoi(s);
  }
  if (const char* s = std::getenv("PMLP_FAULT_HEARTBEAT_STALL")) {
    heartbeat_stall_ = s[0] != '\0' && s[0] != '0';
  }
  if (const char* s = std::getenv("PMLP_FAULT_CORRUPT")) {
    corrupt_file_ = s;
  }
  armed_ = !kill_stage_.empty() || kill_ga_gen_ >= 0 || heartbeat_stall_ ||
           !corrupt_file_.empty();
}

const FaultInjector& FaultInjector::instance() {
  static const FaultInjector injector;
  return injector;
}

void FaultInjector::maybe_kill_at_stage(const char* stage) const {
  if (!armed_ || kill_stage_.empty()) return;
  // _exit, not exit: simulate SIGKILL — no destructors, no stream flushes,
  // no lease release. Everything not already fsync'd+renamed is lost.
  if (kill_stage_ == stage) _exit(137);
}

void FaultInjector::maybe_kill_at_ga_checkpoint(int next_generation) const {
  if (!armed_ || kill_ga_gen_ < 0) return;
  if (kill_ga_gen_ == next_generation) _exit(137);
}

void FaultInjector::maybe_corrupt_artifact(const std::string& path) const {
  if (!armed_ || corrupt_file_.empty()) return;
  if (fs::path(path).filename().string() != corrupt_file_) return;
  // Once per process, also when several campaign lanes commit at once.
  if (corrupted_once_.exchange(true)) return;
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (!ec) fs::resize_file(path, size / 2, ec);
}

}  // namespace pmlp::core
