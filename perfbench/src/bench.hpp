// Shared declarations of the repository benchmark (see README.md for the
// workloads and every metric's definition).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measurement budget of one run
  bool trace = false;     ///< per-layer (traced) run instead of end-to-end
  std::string workdir;    ///< scratch directory, removed by the caller
  std::string trace_file;  ///< Chrome trace-event JSON of a traced run
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the correctness verdict, the operation counts and
/// the metrics of the requested mode.
struct Outcome {
  bool correct = true;
  long attempted = 0;  ///< flows trained + sign-off points + serve requests
  long failed = 0;     ///< failed flows + failed sign-off points + err replies
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< one line per failed check

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  }
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Run one workload end to end (or traced) and collect its outcome.
[[nodiscard]] Outcome run_workload(const Options& opts);

}  // namespace perfbench
