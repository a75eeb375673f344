// pmlp — command-line front end for the printed-MLP GA-AxC framework.
//
// Subcommands (kCommands below declares each one's arguments, accepted
// options and handler; kOptions declares every option with its value kind
// and help; `pmlp` with no arguments prints the usage generated from both):
//
//   list, metrics, baseline     Table I datasets, dataset diagnostics, the
//                               exact bespoke baseline
//   run, resume, train          one staged FlowEngine flow: train, refine,
//                               price, pick the Table II point, save it.
//                               resume continues a --checkpoint; train is
//                               the legacy alias of run (no progress lines)
//   campaign                    a dataset x seed grid of flows stepped on
//                               --threads lanes; bit-identical to
//                               independent runs, resumable from --checkpoint
//   campaign --worker           drain a campaign tree as one crash-safe
//                               distributed worker: the same campaign loop
//                               over per-flow lease files (stale leases
//                               reclaimed; the grid comes from the tree's
//                               manifest)
//   campaign status             grid progress from the tree alone
//   serve                       batched classify server on a localhost TCP
//                               line protocol over a saved front or a
//                               campaign tree; `reload` hot-swaps it
//   classify                    one feature vector through a saved model
//                               (the offline reference for serve answers)
//   evaluate, export            re-score a saved model; Verilog DUT plus a
//                               self-checking testbench
//   export-rtl, verify-rtl      verified RTL export of a whole front or one
//                               model (oracle == gate-level sim == emitted
//                               Verilog); verify-rtl also runs every
//                               testbench under iverilog/verilator
//
// Options may come before or after the subcommand; a repeated option keeps
// its last value. Argument errors (unknown option, an option the subcommand
// does not take, a bad value, a wrong argument count) exit 2; runtime
// failures exit 1. SIGINT/SIGTERM stop campaign, worker and serve
// gracefully.
//
// Datasets are the synthetic paper suite by default. Set PMLP_UCI_DIR to a
// directory holding the real UCI files (breast-cancer-wisconsin.data,
// cardio.csv, pendigits.tra, winequality-{red,white}.csv) and every
// subcommand loads the real data instead (core::suite validates the shape
// against Table I).
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <string>
#include <vector>

#include "pmlp/core/campaign.hpp"
#include "pmlp/core/eval_engine.hpp"
#include "pmlp/core/flow_engine.hpp"
#include "pmlp/core/rtl_export.hpp"
#include "pmlp/core/serialize.hpp"
#include "pmlp/core/serve.hpp"
#include "pmlp/core/suite.hpp"
#include "pmlp/core/thread_pool.hpp"
#include "pmlp/core/worker.hpp"
#include "pmlp/datasets/metrics.hpp"
#include "pmlp/hwmodel/power.hpp"
#include "pmlp/mlp/topology.hpp"
#include "pmlp/netlist/opt.hpp"
#include "pmlp/netlist/testbench.hpp"
#include "pmlp/netlist/verilog.hpp"

namespace {

using namespace pmlp;
namespace fs = std::filesystem;

/// Usage-level argument errors throw this; main() maps it to exit code 2
/// (runtime failures exit 1) instead of letting anything escape uncaught.
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

// ------------------------------------------------------------ option table

/// What an option's value must be; parse_value() checks each kind. kDir is
/// a path that must not be an existing non-directory.
enum Kind { kSwitch, kNonNeg, kPositive, kTcpPort, kSeconds, kText, kDir };

enum Opt : int {
  kThreads, kCache, kCheckpoint, kJson, kSaveFront, kDatasets, kSeeds,
  kResume, kGaCheckpoint, kWorker, kWorkerId, kLeaseTimeout, kHeartbeat,
  kMaxFailures, kPort, kBatch, kRtlVectors, kRtlRandom, kRequireSim,
  kOptCount
};

struct OptionRow {
  Opt id;
  const char* name;
  Kind kind;
  const char* metavar;  ///< value placeholder in usage ("" for kSwitch)
  const char* help;
};

/// Every option, in Opt order. The only place an option name is spelled.
constexpr OptionRow kOptions[] = {
    {kThreads, "--threads", kNonNeg, "N",
     "worker threads (0 = all hardware threads, the default; bit-identical)"},
    {kCache, "--cache", kNonNeg, "N",
     "genome memo-cache entries (0 = off; default 4096; bit-identical)"},
    {kCheckpoint, "--checkpoint", kDir, "DIR",
     "persist every stage under DIR; a rerun continues bit-identically"},
    {kJson, "--json", kText, "FILE", "machine-readable report (- = stdout)"},
    {kSaveFront, "--save-front", kDir, "DIR",
     "save every true-Pareto model plus index.tsv in DIR"},
    {kDatasets, "--datasets", kText, "A,B,C", "Table I subset (default all)"},
    {kSeeds, "--seeds", kPositive, "K",
     "GA seeds 1..K per dataset (default 1)"},
    {kResume, "--resume", kSwitch, "", "continue an existing --checkpoint"},
    {kGaCheckpoint, "--ga-checkpoint", kNonNeg, "K",
     "save the GA state every K generations (0 = off; bit-identical)"},
    {kWorker, "--worker", kSwitch, "", "drain an existing campaign tree"},
    {kWorkerId, "--worker-id", kText, "ID",
     "stable worker identity (default <host>-<pid>-<random>)"},
    {kLeaseTimeout, "--lease-timeout", kSeconds, "S",
     "seconds without a beat before a lease may be stolen (default 10)"},
    {kHeartbeat, "--heartbeat", kSeconds, "S",
     "lease refresh period, at most half the lease timeout (default 1)"},
    {kMaxFailures, "--max-failures", kPositive, "N",
     "failed claims in a row before a flow is marked failed (default 3)"},
    {kPort, "--port", kTcpPort, "N", "TCP port (default 0 = OS-assigned)"},
    {kBatch, "--batch", kPositive, "N", "max requests per batch (default 64)"},
    {kRtlVectors, "--rtl-vectors", kNonNeg, "N",
     "recorded dataset vectors per point (default 64)"},
    {kRtlRandom, "--rtl-random", kNonNeg, "N",
     "LFSR random vectors per point (default 64)"},
    {kRequireSim, "--require-sim", kSwitch, "",
     "a missing simulator fails (exit 1) instead of skipping"},
};
constexpr bool in_opt_order(int i = 0) {
  return i == kOptCount || (kOptions[i].id == i && in_opt_order(i + 1));
}
static_assert(std::size(kOptions) == kOptCount && in_opt_order());

constexpr std::uint32_t opts(std::initializer_list<Opt> list) {
  std::uint32_t mask = 0;
  for (const Opt o : list) mask |= 1u << o;
  return mask;
}

/// Accepted by every subcommand: the global performance knobs.
constexpr std::uint32_t kGlobalOpts = opts({kThreads, kCache});

/// Option values as parsed; a repeated option keeps its last value.
struct Options {
  std::array<bool, kOptCount> set{};
  std::array<std::string, kOptCount> text;  ///< the value as given
  std::array<double, kOptCount> number{};   ///< numeric kinds

  template <class T>
  T get(Opt o, T fallback) const {
    return set[o] ? static_cast<T>(number[o]) : fallback;
  }
};

constexpr long kIntMax = std::numeric_limits<int>::max();

/// Parse a decimal long or a double in lo..hi; anything else (garbage,
/// overflow, NaN) is a usage error "<what> '<value>' is not <expects>".
template <class T>
T parse_number(const std::string& what, const std::string& value, T lo, T hi,
               const std::string& expects) {
  errno = 0;
  char* end = nullptr;
  const T v = std::is_integral_v<T>
                  ? static_cast<T>(std::strtol(value.c_str(), &end, 10))
                  : static_cast<T>(std::strtod(value.c_str(), &end));
  if (value.empty() || *end != '\0' || errno == ERANGE || !(v >= lo) ||
      !(v <= hi)) {
    throw UsageError(what + " '" + value + "' is not " + expects);
  }
  return v;
}

/// Check `value` against the row's kind; returns the numeric value (0 for
/// text and paths).
double parse_value(const OptionRow& row, const std::string& value) {
  const std::string name = row.name;
  switch (row.kind) {
    case kNonNeg:
      return parse_number(name, value, 0L, kIntMax, "a non-negative int");
    case kPositive:
      return parse_number(name, value, 1L, kIntMax, "a positive int");
    case kTcpPort:
      return parse_number(name, value, 0L, 65535L, "a TCP port in 0..65535");
    case kSeconds:
      return parse_number(name, value,
                          std::numeric_limits<double>::denorm_min(), HUGE_VAL,
                          "positive seconds");
    case kDir: {
      // A file in place of the directory would otherwise surface as a raw
      // filesystem error only after minutes of training.
      std::error_code ec;
      if (fs::exists(value, ec) && !fs::is_directory(value, ec)) {
        throw UsageError(name + " path '" + value +
                         "' exists and is not a directory");
      }
      return 0.0;
    }
    default: return 0.0;
  }
}

std::string option_usage(const OptionRow& o) {
  return *o.metavar ? std::string(o.name) + " " + o.metavar : o.name;
}

// ------------------------------------------------------------ shared helpers

/// Validate a dataset argument up front: an unknown name is a usage error
/// (exit 2, message lists the valid choices). Runtime invalid_argument
/// throws from corrupt artifacts etc. stay runtime failures (exit 1).
void require_dataset(const std::string& name) {
  try {
    (void)core::find_paper_spec(name);
  } catch (const std::invalid_argument& e) {
    throw UsageError(e.what());
  }
}

/// The --json report sink; write() does nothing when --json was not given.
/// "-" writes to stdout. A FILE is opened up front, so an unwritable path
/// fails before the expensive run, not after it; writes go to FILE.tmp and
/// write() renames onto FILE, so a failed (or killed) run never clobbers a
/// previous report, and an unwritten sink removes its temp file.
class JsonSink {
 public:
  explicit JsonSink(const std::string& path) : path_(path) {
    if (path_.empty() || to_stdout()) return;
    tmp_ = path_ + ".tmp";
    os_.open(tmp_);
    if (!os_) throw UsageError("cannot write --json file '" + path_ + "'");
  }
  ~JsonSink() {
    if (tmp_.empty()) return;
    os_.close();
    std::error_code ec;
    fs::remove(tmp_, ec);
  }
  JsonSink(const JsonSink&) = delete;
  JsonSink& operator=(const JsonSink&) = delete;

  /// Where human-readable output goes: stdout, unless the report does.
  std::ostream& text() { return to_stdout() ? discard_ : std::cout; }

  /// Emit the report into the sink and install it; throws on a short write.
  template <class Emit>
  void write(const Emit& emit) {
    if (to_stdout()) emit(std::cout);
    if (tmp_.empty()) return;
    emit(os_);
    os_.close();  // flushes; a short write leaves the stream failed
    if (!os_) throw std::runtime_error("short write to " + tmp_);
    fs::rename(tmp_, path_);
    tmp_.clear();
    std::cerr << "wrote " << path_ << "\n";
  }

 private:
  bool to_stdout() const { return path_ == "-"; }

  std::string path_;
  std::string tmp_;  ///< "" once installed, or for stdout / no --json
  std::ofstream os_;
  std::ostream discard_{nullptr};  ///< no buffer: drops everything
};

/// Routes SIGINT/SIGTERM to target.request_stop() (one atomic store) while
/// in scope: in-flight stages finish, checkpoints and leases are released
/// cleanly, and the tree stays resumable.
template <class Target>
class StopOnSignal {
 public:
  explicit StopOnSignal(Target& target) {
    target_.store(&target);
    for (const int sig : {SIGINT, SIGTERM}) std::signal(sig, &stop);
  }
  ~StopOnSignal() {
    for (const int sig : {SIGINT, SIGTERM}) std::signal(sig, SIG_DFL);
    target_.store(nullptr);
  }
  StopOnSignal(const StopOnSignal&) = delete;
  StopOnSignal& operator=(const StopOnSignal&) = delete;

 private:
  static void stop(int) { if (Target* t = target_.load()) t->request_stop(); }
  static inline std::atomic<Target*> target_{nullptr};
};

/// A parsed command line.
struct Invocation {
  int (*handler)(const Invocation&) = nullptr;  ///< null: no subcommand
  std::string name;               ///< the command row's name
  std::vector<std::string> args;  ///< positionals after the command words
  Options opts;
};

core::FlowConfig default_flow(int pop, int gens, const Options& o) {
  core::FlowConfig cfg;
  cfg.backprop.epochs = 150;
  cfg.trainer.ga.population = pop;
  cfg.trainer.ga.generations = gens;
  cfg.trainer.n_threads = o.get(kThreads, 0);
  auto& cache = cfg.trainer.problem.eval_cache_capacity;
  cache = o.get(kCache, cache);
  return cfg;
}

/// "stage NAME: W s, N items[ (reused)]", the core of every progress line.
std::string stage_line(const core::StageReport& r) {
  std::ostringstream os;
  os << "stage " << core::flow_stage_name(r.stage) << ": " << r.wall_seconds
     << " s, " << r.items << " items" << (r.reused ? " (reused)" : "");
  return os.str();
}

/// Positional pop/gens: a garbled or non-positive value is a usage error.
int int_arg(const Invocation& in, std::size_t i, const char* what, int def) {
  if (i >= in.args.size()) return def;
  return static_cast<int>(
      parse_number(what, in.args[i], 1L, kIntMax, "a positive int"));
}

// ---------------------------------------------------------------- handlers

int cmd_list(const Invocation&) {
  std::cout << "dataset        topology   samples  classes  baseline-acc "
               "(paper)\n";
  for (const auto& row : mlp::paper_table1()) {
    const auto spec = core::find_paper_spec(row.dataset);
    std::cout << std::left << std::setw(15) << row.dataset << std::right
              << row.topology.to_string() << "   " << spec.n_samples
              << "     " << spec.n_classes << "        " << row.accuracy
              << "\n";
  }
  return 0;
}

int cmd_metrics(const Invocation& in) {
  const std::string& dataset = in.args[0];
  require_dataset(dataset);
  const auto d = core::load_paper_dataset(dataset);
  const auto m = datasets::compute_metrics(d);
  std::cout << dataset << ": " << d.size() << " samples, " << d.n_features
            << " features, " << d.n_classes << " classes\n";
  std::cout << "class priors:";
  for (double p : m.class_priors) std::cout << ' ' << p;
  std::cout << "\nnearest-centroid accuracy: " << m.nearest_centroid_accuracy
            << "\nper-feature Fisher scores:";
  for (double f : m.fisher_scores) std::cout << ' ' << f;
  std::cout << "\ntop-3 feature signal share: " << m.top3_signal_share
            << "\n";
  return 0;
}

int cmd_baseline(const Invocation& in) {
  const std::string& dataset = in.args[0];
  require_dataset(dataset);
  const auto& row = mlp::paper_row(dataset);
  core::FlowEngine engine(core::load_paper_dataset(dataset), row.topology,
                          default_flow(8, 1, in.opts));
  const auto artifacts = engine.baseline_artifacts();
  std::cout << dataset << " exact bespoke baseline [2]:\n"
            << "  accuracy  " << artifacts.baseline_test_accuracy
            << " (paper " << row.accuracy << ")\n"
            << "  area      " << artifacts.baseline_cost.area_cm2()
            << " cm2 (paper " << row.area_cm2 << ")\n"
            << "  power     " << artifacts.baseline_cost.power_mw()
            << " mW (paper " << row.power_mw << ")\n";
  return 0;
}

/// Publish the front atomically, like the --json JsonSink (tmp sibling +
/// rename, see core::save_front_dir).
void save_front(const core::FlowResult& result, const std::string& dir) {
  std::vector<core::FrontEntry> entries;
  for (const auto& p : result.front) {
    entries.push_back({"", p.test_accuracy, p.cost.area_cm2(),
                       p.cost.power_mw(), p.functional_match, p.model});
  }
  core::save_front_dir(entries, dir);
  std::cerr << "saved " << result.front.size() << " front designs + index to "
            << dir << "\n";
}

/// run / resume / train.
int cmd_run(const Invocation& in) {
  const std::string& dataset = in.args[0];
  require_dataset(dataset);
  const int pop = int_arg(in, 1, "population", 80);
  const int gens = int_arg(in, 2, "generations", 200);
  const std::string model_out = in.args.size() > 3 ? in.args[3] : "";
  const std::string& checkpoint = in.opts.text[kCheckpoint];
  const auto& row = mlp::paper_row(dataset);
  JsonSink json(in.opts.text[kJson]);  // fail an unwritable --json up front
  if (in.name == "resume" && !fs::exists(fs::path(checkpoint) / "meta.txt")) {
    throw UsageError("no checkpoint found in " + checkpoint);
  }
  std::cerr << "training " << dataset << " " << row.topology.to_string()
            << " with NSGA-II " << pop << "x" << gens << "...\n";
  if (const auto uci = core::find_uci_file(dataset); !uci.empty()) {
    std::cerr << "using real UCI data from " << uci << " (PMLP_UCI_DIR)\n";
  }

  core::FlowEngine engine(core::load_paper_dataset(dataset), row.topology,
                          default_flow(pop, gens, in.opts));
  if (!checkpoint.empty()) engine.set_checkpoint_dir(checkpoint);
  if (in.name != "train") {
    engine.set_progress([](const core::StageReport& r) {
      std::cerr << "  " << stage_line(r) << "\n";
    });
  }
  const auto result = engine.run();

  std::ostream& out = json.text();
  out << "baseline: acc " << result.baseline.baseline_test_accuracy << ", "
      << result.baseline.baseline_cost.area_cm2() << " cm2, "
      << result.baseline.baseline_cost.power_mw() << " mW\n";
  // samples_per_second is runtime metadata, zero when the backprop stage
  // was reused from a checkpoint (this process never trained for it).
  if (result.backprop.samples_per_second > 0.0) {
    out << "train engine: " << result.backprop.samples_per_second
        << " samples/s (" << result.backprop.simd_isa << " dispatch, block "
        << result.backprop.block << ", " << result.backprop.threads
        << " threads)\n";
  }
  out << "GA engine: " << result.training.evaluations << " evals in "
      << result.training.wall_seconds << " s ("
      << result.training.evals_per_second << " evals/s, cache hit rate "
      << result.training.cache_hit_rate << ")\n";
  // simd_isa is runtime metadata, empty when the GA stage was reused from
  // a checkpoint (this process never ran the kernels for it).
  if (!result.training.simd_isa.empty()) {
    out << "eval kernels: " << result.training.simd_isa << " dispatch, block "
        << result.training.eval_block << " samples\n";
  }
  if (result.refine.trials > 0) {
    out << "refine engine: " << result.refine.trials << " trials on "
        << result.refine.points << " points (early-abort rate "
        << result.refine.early_abort_rate() << "), "
        << result.refine.bits_cleared << " bits cleared, "
        << result.refine.biases_simplified << " biases simplified\n";
  }
  out << "true Pareto front (" << result.front.size() << " points):\n";
  out << "  acc       area-cm2   power-mW   verified\n";
  for (const auto& p : result.front) {
    out << "  " << p.test_accuracy << "   " << p.cost.area_cm2() << "   "
        << p.cost.power_mw() << "   " << (p.functional_match ? "yes" : "NO")
        << "\n";
  }
  json.write([&](std::ostream& os) {
    core::write_flow_report_json(result, dataset, row.topology, os);
  });
  const std::string& front_dir = in.opts.text[kSaveFront];
  if (!front_dir.empty()) save_front(result, front_dir);

  if (!result.best) {
    out << "no design within 5% loss at this budget; raise gens\n";
    return 1;
  }
  out << "pick (min area within 5% loss): acc " << result.best->test_accuracy
      << ", " << result.best->cost.area_cm2() << " cm2 ("
      << result.area_reduction << "x), " << result.best->cost.power_mw()
      << " mW (" << result.power_reduction << "x)\n";
  if (!model_out.empty()) {
    core::save_model_file(result.best->model, model_out);
    out << "saved " << model_out << "\n";
  }
  return 0;
}

/// Split a --datasets CSV into validated Table I names ("" = all five).
/// Unknown names throw listing the valid choices (exit 2 via UsageError).
std::vector<std::string> campaign_dataset_names(const std::string& csv) {
  std::vector<std::string> names;
  if (csv.empty()) {
    for (const auto& row : mlp::paper_table1()) names.push_back(row.dataset);
    return names;
  }
  std::string token;
  std::istringstream is(csv);
  while (std::getline(is, token, ',')) {
    if (token.empty()) {
      throw UsageError("--datasets has an empty entry in '" + csv + "'");
    }
    require_dataset(token);
    if (std::find(names.begin(), names.end(), token) != names.end()) {
      throw UsageError("duplicate dataset '" + token + "' in --datasets");
    }
    names.push_back(token);
  }
  return names;
}

/// The flow specs of a campaign grid, shared by the in-process runner and
/// the workers. Each dataset is loaded once; the seed grid shares copies.
std::vector<core::CampaignFlowSpec> campaign_specs(
    const core::CampaignManifest& manifest, const Options& o) {
  std::map<std::string, datasets::Dataset> loaded;
  std::vector<core::CampaignFlowSpec> specs;
  for (const auto& f : manifest.flows) {
    auto [data, fresh] = loaded.try_emplace(f.dataset);
    if (fresh) data->second = core::load_paper_dataset(f.dataset);
    auto& spec = specs.emplace_back(core::CampaignFlowSpec{
        f.name, f.dataset, data->second, core::paper_topology(f.dataset),
        default_flow(manifest.population, manifest.generations, o)});
    spec.config.trainer.ga.seed = f.seed;
    spec.config.trainer.ga.checkpoint_every = manifest.ga_checkpoint;
  }
  return specs;
}

/// Run a campaign — in-process or as one worker of a tree — with progress
/// on stderr, then print its flow summary and write its --json report.
/// Exit 0 when every flow of the grid is done.
int run_campaign(core::CampaignRunner& runner, JsonSink& json) {
  runner.set_progress([](const core::CampaignProgress& p) {
    std::cerr << "  [" << p.flow_name << "] " << stage_line(p.stage) << "  ("
              << p.flows_done << "/" << p.flows_total << " flows done)\n";
  });
  const StopOnSignal<core::CampaignRunner> stop_on_signal(runner);
  const auto result = runner.run();

  std::ostream& out = json.text();
  out << "campaign: " << result.completed << "/" << result.flows.size()
      << " flows in " << result.wall_seconds << " s wall ("
      << result.stage_wall_seconds << " s of summed stage wall on "
      << result.n_threads << " lanes, " << result.flows_per_second()
      << " flows/s)\n";
  if (!result.worker_id.empty()) {
    out << "worker " << result.worker_id << ": " << result.claims
        << " claims (" << result.claim_conflicts << " conflicts, "
        << result.leases_stolen << " stale leases reclaimed)\n";
  }
  out << "  flow                 status    wall-s    front  "
         "pick-acc   area-red\n";
  for (const auto& f : result.flows) {
    out << "  " << std::left << std::setw(20) << f.name << std::right << " "
        << campaign_flow_status_name(f.status) << "  " << f.wall_seconds;
    if (f.result) {
      out << "  " << f.result->front.size() << "  ";
      if (f.result->best) {
        out << f.result->best->test_accuracy << "  "
            << f.result->area_reduction << "x";
      } else {
        out << "-  -";
      }
    } else if (!f.error.empty()) {
      out << "  " << f.error;
    }
    out << "\n";
  }
  json.write(
      [&](std::ostream& os) { core::write_campaign_report_json(result, os); });
  for (const auto& f : result.flows) {
    if (f.status == core::CampaignFlowStatus::kFailed) {
      std::cerr << "flow " << f.name << " FAILED: " << f.error << "\n";
    }
  }
  return result.all_ok() ? 0 : 1;
}

int cmd_campaign(const Invocation& in) {
  const int pop = int_arg(in, 0, "population", 80);
  const int gens = int_arg(in, 1, "generations", 200);
  const auto names = campaign_dataset_names(in.opts.text[kDatasets]);
  const std::string& checkpoint = in.opts.text[kCheckpoint];
  const int seeds = in.opts.get(kSeeds, 1);
  JsonSink json(in.opts.text[kJson]);
  if (in.opts.set[kResume] && checkpoint.empty()) {
    throw UsageError("--resume requires --checkpoint DIR");
  }
  if (in.opts.set[kResume] && !fs::is_directory(checkpoint)) {
    throw UsageError("--resume: no campaign checkpoint found in '" +
                     checkpoint + "'");
  }

  core::CampaignManifest manifest;
  manifest.population = pop;
  manifest.generations = gens;
  manifest.ga_checkpoint = in.opts.get(kGaCheckpoint, 0);
  for (const auto& name : names) {
    for (int seed = 1; seed <= seeds; ++seed) {
      manifest.flows.push_back({name + "_s" + std::to_string(seed), name,
                                static_cast<std::uint64_t>(seed)});
    }
  }
  core::CampaignConfig ccfg;
  ccfg.n_threads = in.opts.get(kThreads, 0);
  ccfg.checkpoint_root = checkpoint;
  core::CampaignRunner runner(ccfg);
  for (auto& spec : campaign_specs(manifest, in.opts)) {
    runner.add_flow(std::move(spec));
  }
  if (!checkpoint.empty()) {
    // The manifest makes the tree self-describing: `--worker` processes
    // and `campaign status` reconstruct the grid from it alone.
    core::save_campaign_manifest(manifest, checkpoint);
  }
  std::cerr << "campaign: " << manifest.flows.size() << " flows ("
            << names.size() << " datasets x " << seeds << " seeds), NSGA-II "
            << pop << "x" << gens << ", "
            << core::resolve_n_threads(ccfg.n_threads) << " lanes\n";
  return run_campaign(runner, json);
}

/// `pmlp campaign --worker --checkpoint DIR`: join an existing campaign
/// tree as one crash-safe distributed drain process. The grid comes from
/// the tree's manifest; pop/gens positionals are rejected so two workers
/// can never disagree about the flow configs (the config fingerprint would
/// catch it, but at the cost of a poisoned flow). --threads N steps N
/// flows at once, each serially. The exit code reflects the whole tree,
/// not just this worker's share of it.
int cmd_campaign_worker(const Invocation& in) {
  const std::string& checkpoint = in.opts.text[kCheckpoint];
  JsonSink json(in.opts.text[kJson]);
  auto manifest = core::load_campaign_manifest(checkpoint);
  manifest.ga_checkpoint = in.opts.get(kGaCheckpoint, manifest.ga_checkpoint);
  core::WorkerConfig wcfg;
  wcfg.n_threads = in.opts.get(kThreads, 0);
  wcfg.checkpoint_root = checkpoint;
  wcfg.worker_id = in.opts.text[kWorkerId];
  wcfg.lease_timeout_s = in.opts.get(kLeaseTimeout, wcfg.lease_timeout_s);
  wcfg.heartbeat_s = in.opts.get(kHeartbeat, wcfg.heartbeat_s);
  wcfg.max_failures = in.opts.get(kMaxFailures, wcfg.max_failures);
  auto specs = campaign_specs(manifest, in.opts);
  std::optional<core::CampaignWorker> worker;
  try {
    worker.emplace(std::move(specs), wcfg);
  } catch (const std::invalid_argument& e) {
    throw UsageError(e.what());  // e.g. a heartbeat too slow for the lease
  }
  std::cerr << "worker " << worker->worker_id() << ": joining campaign tree "
            << checkpoint << " (" << manifest.flows.size()
            << " flows, lease timeout " << wcfg.lease_timeout_s
            << " s, heartbeat " << wcfg.heartbeat_s << " s)\n";
  return run_campaign(*worker, json);
}

/// `pmlp campaign status --checkpoint DIR`: grid progress from the tree
/// alone — no worker processes are consulted, so it works mid-campaign,
/// post-crash, or on a finished tree.
int cmd_campaign_status(const Invocation& in) {
  JsonSink json(in.opts.text[kJson]);
  const auto status = core::read_campaign_status(in.opts.text[kCheckpoint]);
  core::write_campaign_status_table(status, json.text());
  json.write(
      [&](std::ostream& os) { core::write_campaign_status_json(status, os); });
  return 0;
}

/// The codes of the first `n` samples of `test` (all when it has fewer).
std::vector<std::uint8_t> first_codes(const datasets::QuantizedDataset& test,
                                      std::size_t n) {
  const std::size_t len = std::min(n, test.size()) * test.n_features;
  return {test.codes.begin(),
          test.codes.begin() + static_cast<std::ptrdiff_t>(len)};
}

/// Rebuild evaluation data exactly as the training flow splits it.
datasets::QuantizedDataset test_split(const std::string& dataset,
                                      const Options& o) {
  core::FlowEngine engine(core::load_paper_dataset(dataset),
                          core::paper_topology(dataset), default_flow(8, 1, o));
  return engine.split().test;
}

/// A model fed a dataset of another width is an argument error: throw it
/// (exit 2) before any output file is opened.
void require_width(const std::string& dataset,
                   const datasets::QuantizedDataset& test,
                   const core::ApproxMlp& model) {
  if (model.topology().n_inputs() != test.n_features) {
    throw UsageError("dataset " + dataset + " has " +
                     std::to_string(test.n_features) +
                     " features but the model expects " +
                     std::to_string(model.topology().n_inputs()));
  }
}

int cmd_evaluate(const Invocation& in) {
  const std::string& model_path = in.args[0];
  const std::string& dataset = in.args[1];
  require_dataset(dataset);
  const auto model = core::load_model_file(model_path);
  const auto test = test_split(dataset, in.opts);
  require_width(dataset, test, model);
  const double acc = core::accuracy(model, test);

  const auto nl = netlist::optimize(
      netlist::build_bespoke_mlp(model.to_bespoke_desc("m")).nl);
  const auto& lib = hwmodel::CellLibrary::egfet_1v();
  const auto cost = nl.cost(lib);
  const auto cost06 = nl.cost(lib.at_voltage(0.6));
  const auto zone = [](const auto& c) {
    return hwmodel::zone_name(
        hwmodel::classify_feasibility(c.area_cm2(), c.power_mw()));
  };
  std::cout << model_path << " on " << dataset << ":\n"
            << "  accuracy " << acc << "\n"
            << "  area     " << cost.area_cm2() << " cm2\n"
            << "  power    " << cost.power_mw() << " mW @1.0V ("
            << zone(cost) << "), " << cost06.power_mw() << " mW @0.6V ("
            << zone(cost06) << ")\n";
  return 0;
}

int cmd_serve(const Invocation& in) {
  const std::string& dir = in.args[0];
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    throw UsageError("serve: front directory '" + dir +
                     "' does not exist or is not a directory");
  }
  core::ServeConfig cfg;
  cfg.n_threads = in.opts.get(kThreads, cfg.n_threads);
  cfg.max_batch = in.opts.get(kBatch, cfg.max_batch);
  cfg.port = in.opts.get(kPort, cfg.port);
  core::FrontServer server(dir, cfg);  // bad artifacts -> runtime, exit 1
  server.listen();
  // The one machine-parseable stdout line: clients scrape the actual port.
  std::cout << "listening 127.0.0.1 " << server.port() << "\n" << std::flush;
  std::cerr << "serving " << server.models().size() << " models from " << dir
            << " (pool of " << server.pool_size() << " workers, batch "
            << cfg.max_batch << "); `stop` or SIGINT shuts down\n";
  const StopOnSignal<core::FrontServer> stop_on_signal(server);
  server.serve_forever();
  const auto stats = server.stats();
  std::cerr << "served " << stats.requests << " requests in " << stats.batches
            << " batches (max batch " << stats.max_batch << ", avg fill "
            << stats.batch_fill() << ") over " << stats.connections
            << " connections, " << stats.reloads << " reloads\n";
  return 0;
}

/// Offline reference for serve answers: classify one quantized feature
/// vector through the same CompiledNet path the server executes.
int cmd_classify(const Invocation& in) {
  const auto model = core::load_model_file(in.args[0]);
  const core::CompiledNet net(model);
  const std::size_t n_codes = in.args.size() - 1;
  if (static_cast<int>(n_codes) != net.n_inputs()) {
    throw UsageError("classify: model expects " +
                     std::to_string(net.n_inputs()) + " feature codes, got " +
                     std::to_string(n_codes));
  }
  const long max_code = (1L << model.bits().input_bits) - 1;
  std::vector<std::uint8_t> codes;
  for (std::size_t i = 1; i < in.args.size(); ++i) {
    codes.push_back(static_cast<std::uint8_t>(
        parse_number("classify: feature code", in.args[i], 0L, max_code,
                  "in the input range 0.." + std::to_string(max_code))));
  }
  core::EvalWorkspace ws;
  std::cout << net.predict(codes, ws) << "\n";
  return 0;
}

/// Write `path` through `emit`. A failed open or a stream left bad after
/// the final flush throws "cannot write <path>" (a runtime failure).
template <class Emit>
void write_file(const std::string& path, const Emit& emit) {
  std::ofstream os(path);
  if (os) emit(os);
  os.close();
  if (!os) throw std::runtime_error("cannot write " + path);
}

int cmd_export(const Invocation& in) {
  const std::string& prefix = in.args[2];
  require_dataset(in.args[1]);
  const auto model = core::load_model_file(in.args[0]);
  const auto test = test_split(in.args[1], in.opts);
  require_width(in.args[1], test, model);

  // One build: optimize(BespokeCircuit) keeps the I/O bus metadata valid
  // across the rewrite, so the optimized DUT is also the circuit the
  // testbench's golden predictions come from.
  // Modules are named after the prefix's basename, so the same model
  // exported into any directory gives the same module names.
  const std::string name = fs::path(prefix).filename().string();
  const auto circuit = netlist::optimize(
      netlist::build_bespoke_mlp(model.to_bespoke_desc(name)));
  write_file(prefix + ".v", [&](std::ostream& os) {
    netlist::emit_verilog(circuit.nl, name, os);
  });
  const std::size_t n_vec = std::min<std::size_t>(test.size(), 64);
  const auto codes = first_codes(test, n_vec);
  const auto expected = circuit.predict_batch(codes, n_vec);
  netlist::TestbenchOptions tb;
  tb.dut_name = name;
  tb.hex_file = name + "_tb.hex";
  write_file(prefix + "_tb.v", [&](std::ostream& tb_os) {
    write_file(prefix + "_tb.hex", [&](std::ostream& hex_os) {
      netlist::emit_testbench(circuit, test.n_features, codes, expected, tb,
                              tb_os, hex_os);
    });
  });
  std::cout << "wrote " << prefix << ".v (" << circuit.nl.gates().size()
            << " cells), " << prefix << "_tb.v and " << prefix
            << "_tb.hex (" << n_vec << " vectors)\n";
  return 0;
}

/// Derive a Table I dataset name from a campaign-tree front entry path
/// ("<dataset>_s<seed>/front_NNN.model" -> "<dataset>"). Empty when the
/// entry is not tree-shaped or the prefix is not a known dataset.
std::string dataset_from_entry(const std::string& file) {
  const auto slash = file.find('/');
  const auto us = file.rfind("_s", slash);
  if (slash == std::string::npos || us == std::string::npos || us == 0 ||
      us + 2 == slash ||
      file.find_first_not_of("0123456789", us + 2) != slash) {
    return "";
  }
  const std::string dataset = file.substr(0, us);
  try {
    (void)core::find_paper_spec(dataset);
  } catch (const std::invalid_argument&) {
    return "";
  }
  return dataset;
}

/// export-rtl / verify-rtl: verified RTL export of a saved front (directory)
/// or a single .model file. The dataset argument selects the recorded
/// stimulus; "-" (the default) derives it per point from a campaign tree's
/// flow names (random-only stimulus when nothing matches).
int cmd_rtl(const Invocation& in) {
  const std::string& input = in.args[0];
  const std::string dataset = in.args.size() > 1 ? in.args[1] : "-";
  const std::string outdir = in.args.size() > 2
                                 ? in.args[2]
                                 : fs::path(input).filename().string() + "_rtl";
  const bool with_sim = in.name == "verify-rtl";
  const bool require_sim = in.opts.set[kRequireSim];
  if (dataset != "-") require_dataset(dataset);
  core::RtlExportOptions rtl;
  rtl.max_recorded_vectors = in.opts.get(kRtlVectors, rtl.max_recorded_vectors);
  rtl.random_vectors = in.opts.get(kRtlRandom, rtl.random_vectors);

  // Recorded-stimulus test splits, resolved lazily per dataset actually
  // referenced (a mixed-dataset campaign tree needs several).
  std::map<std::string, datasets::QuantizedDataset> splits;
  auto recorded_for = [&](const std::string& ds,
                          const core::ApproxMlp& model) {
    if (ds.empty()) return std::vector<std::uint8_t>{};
    auto [it, fresh] = splits.try_emplace(ds);
    if (fresh) it->second = test_split(ds, in.opts);
    require_width(ds, it->second, model);
    return first_codes(it->second, rtl.max_recorded_vectors);
  };

  std::vector<core::RtlPointSpec> specs;
  std::error_code ec;
  if (fs::is_directory(input, ec)) {
    for (const auto& e : core::load_front_any(input)) {
      std::string name = e.file;
      if (name.ends_with(".model")) name.resize(name.size() - 6);
      std::replace(name.begin(), name.end(), '/', '_');
      specs.push_back({name, e.model,
                       recorded_for(dataset != "-" ? dataset
                                                   : dataset_from_entry(e.file),
                                    e.model)});
    }
  } else {
    const auto model = core::load_model_file(input);
    const std::string stem = fs::path(input).stem().string();
    specs.push_back({stem.empty() ? "model" : stem, model,
                     recorded_for(dataset == "-" ? "" : dataset, model)});
  }

  const auto report = with_sim ? core::verify_rtl(specs, outdir, rtl)
                               : core::export_rtl(specs, outdir, rtl);

  for (const auto& p : report.points) {
    std::cout << p.name << ": " << p.gates << " cells (-" << p.gates_removed
              << "), " << p.n_recorded << "+" << p.n_random
              << " vectors, oracle==gate-sim==emitted";
    if (with_sim) {
      std::cout << ", sim " << core::rtl_sim_outcome_name(p.sim);
      if (p.sim == core::RtlSimOutcome::kFail) {
        std::cout << " (" << p.sim_errors << " errors)";
      }
    }
    std::cout << "\n";
  }
  std::cerr << "wrote " << report.manifest_file << " ("
            << report.points.size() << " points)\n";

  if (with_sim) {
    if (report.simulator.empty()) {
      std::cerr << (require_sim
                        ? "error: no Verilog simulator found "
                          "(iverilog/verilator) and --require-sim is set\n"
                        : "no Verilog simulator found (iverilog/verilator); "
                          "simulation skipped\n");
    }
    if (!report.all_passed(require_sim)) {
      for (const auto& p : report.points) {
        if (p.sim == core::RtlSimOutcome::kFail ||
            p.sim == core::RtlSimOutcome::kError) {
          std::cerr << "--- " << p.name << " simulator log ---\n"
                    << p.sim_log << "\n";
        }
      }
      return 1;
    }
  }
  return 0;
}

// ----------------------------------------------------------- command table

struct CommandRow {
  const char* name;
  const char* synopsis;  ///< positional arguments, for usage()
  int min_args;
  int max_args;           ///< -1 = unbounded
  std::uint32_t options;  ///< accepted options besides kGlobalOpts
  bool needs_checkpoint;
  int (*handler)(const Invocation&);
  const char* note = "";  ///< why extra arguments are refused, if not obvious
};

constexpr std::uint32_t kRunOpts = opts({kCheckpoint, kJson, kSaveFront});
constexpr std::uint32_t kRtlOpts = opts({kRtlVectors, kRtlRandom});
constexpr const char* kRunArgs = "<dataset> [pop] [gens] [model-out]";
constexpr const char* kRtlArgs = "<front|model> [dataset|-] [outdir]";

/// Every subcommand. "campaign status" is named by its second word and
/// "campaign --worker" by the --worker switch.
constexpr CommandRow kCommands[] = {
    {"list", "", 0, 0, 0, false, cmd_list},
    {"metrics", "<dataset>", 1, 1, 0, false, cmd_metrics},
    {"baseline", "<dataset>", 1, 1, 0, false, cmd_baseline},
    {"run", kRunArgs, 1, 4, kRunOpts, false, cmd_run},
    {"resume", kRunArgs, 1, 4, kRunOpts, true, cmd_run},
    {"train", kRunArgs, 1, 4, kRunOpts, false, cmd_run},
    {"campaign", "[pop] [gens]", 0, 2,
     opts({kCheckpoint, kJson, kDatasets, kSeeds, kResume, kGaCheckpoint}),
     false, cmd_campaign},
    {"campaign --worker", "", 0, 0,
     opts({kCheckpoint, kJson, kWorkerId, kLeaseTimeout, kHeartbeat,
           kMaxFailures, kGaCheckpoint}),
     true, cmd_campaign_worker, "the grid comes from the tree's manifest"},
    {"campaign status", "", 0, 0, opts({kCheckpoint, kJson}), true,
     cmd_campaign_status},
    {"serve", "<front-dir>", 1, 1, opts({kPort, kBatch}), false, cmd_serve},
    {"classify", "<model> <code...>", 2, -1, 0, false, cmd_classify},
    {"evaluate", "<model> <dataset>", 2, 2, 0, false, cmd_evaluate},
    {"export", "<model> <dataset> <out-prefix>", 3, 3, 0, false, cmd_export},
    {"export-rtl", kRtlArgs, 1, 3, kRtlOpts, false, cmd_rtl},
    {"verify-rtl", kRtlArgs, 1, 3, kRtlOpts | opts({kRequireSim}), false,
     cmd_rtl},
};

bool in_mask(std::uint32_t mask, Opt o) { return (mask >> o) & 1u; }

bool accepts(const CommandRow& c, Opt o) {
  return in_mask(c.options | kGlobalOpts, o);
}

/// " [--opt V]..." for the options in `mask`; `required` ones unbracketed.
std::string options_usage(std::uint32_t mask, std::uint32_t required = 0) {
  std::string s;
  for (const auto& o : kOptions) {
    if (!in_mask(mask, o.id)) continue;
    s += in_mask(required, o.id) ? " " + option_usage(o)
                                 : " [" + option_usage(o) + "]";
  }
  return s;
}

/// "NAME SYNOPSIS OPTIONS"; the global options are left to usage()'s header.
std::string command_usage(const CommandRow& c) {
  return c.name + std::string(*c.synopsis ? " " : "") + c.synopsis +
         options_usage(c.options, c.needs_checkpoint ? opts({kCheckpoint}) : 0);
}

int usage() {
  std::cerr << "usage: pmlp <command> [args] [options]; options may also "
               "come before the command, and every command takes"
            << options_usage(kGlobalOpts) << "\n";
  for (const auto& c : kCommands) {
    std::cerr << "  pmlp " << command_usage(c) << "\n";
  }
  std::cerr << "options:\n";
  for (const auto& o : kOptions) {
    std::cerr << "  " << std::left << std::setw(19) << option_usage(o) << " "
              << o.help << "\n";
  }
  return 2;
}

/// The one command-line parser. Options may come anywhere; only tokens
/// starting with "--" are options (so "-" and "-1" stay positional), and a
/// value is the next token verbatim (so `--json -` means stdout). Every
/// check is derived from kOptions and kCommands.
Invocation parse_command_line(const std::vector<std::string>& tokens) {
  Invocation in;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    if (!tok.starts_with("--")) {
      in.args.push_back(tok);
      continue;
    }
    const auto* o = std::ranges::find(kOptions, tok, &OptionRow::name);
    if (o == std::end(kOptions)) {
      throw UsageError("unknown option '" + tok + "'");
    }
    in.opts.set[o->id] = true;
    if (o->kind == kSwitch) continue;
    if (++i == tokens.size()) throw UsageError(tok + " requires a value");
    in.opts.text[o->id] = tokens[i];
    in.opts.number[o->id] = parse_value(*o, tokens[i]);
  }
  if (in.args.empty()) return in;

  // The command words leave in.args; the --worker switch that names the
  // "campaign --worker" row is consumed with them.
  in.name = in.args[0];
  std::size_t words = 1;
  if (in.name == "campaign" && in.args.size() > 1 && in.args[1] == "status") {
    in.name += " " + in.args[words++];
  } else if (in.name == "campaign" &&
             std::exchange(in.opts.set[kWorker], false)) {
    in.name += std::string(" ") + kOptions[kWorker].name;
  }
  in.args.erase(in.args.begin(),
                in.args.begin() + static_cast<std::ptrdiff_t>(words));
  const auto* c = std::ranges::find(kCommands, in.name, &CommandRow::name);
  if (c == std::end(kCommands)) {
    throw UsageError("unknown command '" + in.name +
                     "' (run pmlp without arguments for usage)");
  }

  for (const auto& o : kOptions) {
    if (!in.opts.set[o.id] || accepts(*c, o.id)) continue;
    std::string msg = std::string(o.name) + " is not supported by the '" +
                      in.name + "' subcommand";
    const char* sep = " (accepted by: ";
    for (const auto& other : kCommands) {
      if (!accepts(other, o.id)) continue;
      msg += std::exchange(sep, ", ");
      msg += other.name;
    }
    throw UsageError(*sep == ',' ? msg + ")" : msg);
  }
  const int n = static_cast<int>(in.args.size());
  const bool extra = c->max_args >= 0 && n > c->max_args;
  if (n < c->min_args || extra) {
    std::string msg = extra ? "unexpected argument '" + in.args[c->max_args] +
                                  "' for '" + in.name + "'"
                            : "'" + in.name + "' is missing arguments";
    if (*c->note) msg += std::string(" (") + c->note + ")";
    throw UsageError(msg + "; usage: pmlp " + command_usage(*c));
  }
  if (c->needs_checkpoint && in.opts.text[kCheckpoint].empty()) {
    throw UsageError("'" + in.name + "' requires " +
                     option_usage(kOptions[kCheckpoint]));
  }
  in.handler = c->handler;
  return in;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Invocation in =
        parse_command_line(std::vector<std::string>(argv + 1, argv + argc));
    return in.handler == nullptr ? usage() : in.handler(in);
  } catch (const std::exception& e) {
    // Runtime failures (corrupt artifacts, I/O, ...) exit 1; only a
    // UsageError maps to the usage exit code 2.
    std::cerr << "error: " << e.what() << "\n";
    return dynamic_cast<const UsageError*>(&e) != nullptr ? 2 : 1;
  } catch (...) {
    std::cerr << "error: unknown exception\n";
    return 1;
  }
}
