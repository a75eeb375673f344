// Benchmark entry point:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--trace-file <path>]
//
// Prints one human-readable line per metric, then, as the last line of
// standard output, one JSON object with the keys correct, attempted, failed
// and metrics. Exits 1 when a correctness check fails, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir> "
               "[--trace-file <path>]\n",
               why);
  std::exit(2);
}

void print_json(const perfbench::Outcome& o) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              o.correct ? "true" : "false", o.attempted, o.failed);
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    const auto& m = o.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opts.workload = value;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(opts.seconds > 0.0)) {
        usage("--seconds must be a positive number");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opts.trace = value == "1";
      have_trace = true;
    } else if (key == "--workdir") {
      opts.workdir = value;
    } else if (key == "--trace-file") {
      opts.trace_file = value;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) usage("every option takes a value");
  bool known = false;
  for (const auto& name : perfbench::workload_names()) {
    known = known || name == opts.workload;
  }
  if (!known) usage("unknown or missing --workload");
  if (!have_seed || !have_trace || opts.workdir.empty()) {
    usage("--seed, --trace and --workdir are required");
  }

  perfbench::Outcome outcome;
  try {
    outcome = perfbench::run_workload(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    std::filesystem::remove_all(opts.workdir);
    return 1;
  }
  std::filesystem::remove_all(opts.workdir);
  for (const auto& problem : outcome.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", problem.c_str());
  }
  for (const auto& m : outcome.metrics) {
    std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::fflush(stdout);
  print_json(outcome);
  return outcome.correct ? 0 : 1;
}
