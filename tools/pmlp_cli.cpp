// pmlp — command-line front end for the printed-MLP GA-AxC framework.
//
//   pmlp list                         datasets and Table I topologies
//   pmlp metrics <dataset>            dataset diagnostics (priors, Fisher)
//   pmlp baseline <dataset>           exact bespoke baseline cost/accuracy
//   pmlp run <dataset> [pop] [gens] [model-out]
//                                     staged FlowEngine pipeline with
//                                     per-stage progress; saves the Table II
//                                     pick as a .model file, prints front
//   pmlp resume <dataset> [pop] [gens] [model-out]
//                                     like run, but requires an existing
//                                     --checkpoint DIR and continues from
//                                     whatever stages are already on disk
//   pmlp train <dataset> [pop] [gens] [model-out]
//                                     legacy alias of run (no progress lines)
//   pmlp evaluate <model> <dataset>   re-score a saved model (acc, area,
//                                     power, feasibility zone @1V/0.6V)
//   pmlp export <model> <dataset> <out-prefix>
//                                     Verilog DUT + self-checking testbench
//   pmlp export-rtl <front|model> [dataset|-] [outdir]
//                                     verified RTL export of a whole saved
//                                     front (--save-front dir or campaign
//                                     checkpoint tree) or one .model file:
//                                     per point an optimized DUT, a
//                                     self-checking testbench (recorded
//                                     dataset vectors + LFSR random
//                                     stimulus) and a manifest.tsv row,
//                                     after asserting bit-identical classes
//                                     across the C++ oracle, the gate-level
//                                     simulator and the in-process
//                                     evaluation of the emitted Verilog.
//                                     dataset "-" derives each point's
//                                     dataset from the campaign tree path
//                                     (random-only stimulus otherwise);
//                                     outdir defaults to <input>_rtl
//   pmlp verify-rtl <front|model> [dataset|-] [outdir]
//                                     export-rtl, then compile+run every
//                                     testbench with a discovered iverilog/
//                                     verilator and require TESTBENCH PASS.
//                                     No simulator installed is a graceful
//                                     skip (exit 0) unless --require-sim
//   pmlp campaign [pop] [gens]        run a dataset x seed grid of flows
//                                     concurrently over ONE shared worker
//                                     pool (--threads N workers total; no
//                                     per-flow thread forests). With
//                                     --checkpoint DIR each flow persists
//                                     under DIR/<dataset>_sK, a manifest
//                                     (campaign.txt) describes the grid,
//                                     and a killed campaign resumes
//                                     bit-identically; --json FILE writes
//                                     the aggregated campaign report.
//                                     Per-flow fronts are bit-identical to
//                                     N independent runs. SIGINT/SIGTERM
//                                     stop gracefully (checkpoints stay
//                                     resumable).
//   pmlp campaign --worker --checkpoint DIR
//                                     join an existing campaign tree as a
//                                     crash-safe distributed worker: claim
//                                     unowned flows via per-flow lease
//                                     files, run one stage per claim to
//                                     its atomic commit, reclaim stale
//                                     leases of dead/stalled workers. Any
//                                     number of workers may drain one tree
//                                     concurrently; a SIGKILLed worker
//                                     forfeits at most one stage of work
//                                     and the surviving workers finish the
//                                     grid with bit-identical fronts.
//   pmlp campaign status --checkpoint DIR
//                                     render grid progress from the tree
//                                     alone: per-flow stage counts, owner,
//                                     heartbeat age, failure records
//                                     (--json FILE|- for machine use).
//   pmlp serve <front-dir>            long-lived classify server over a
//                                     --save-front directory or a campaign
//                                     checkpoint tree: line protocol on a
//                                     localhost TCP socket (--port N; 0 =
//                                     OS-assigned, printed as "listening
//                                     127.0.0.1 PORT"), request batching
//                                     (--batch N) over the --threads pool,
//                                     `reload` hot-swaps a re-read front,
//                                     `stop` / SIGINT shut down gracefully
//   pmlp classify <model> <code...>   classify ONE quantized feature vector
//                                     with a saved model (the offline
//                                     reference for serve answers)
//
// Serve options:
//   --port N                          TCP port (default 0 = OS-assigned)
//   --batch N                         max requests per dispatched batch
//                                     (default 64)
//
// Campaign options:
//   --datasets A,B,C                  Table I subset (default: all five)
//   --seeds K                         GA seeds 1..K per dataset (default 1)
//   --resume                          require an existing --checkpoint root
//                                     and continue from the completed stages
//   --ga-checkpoint K                 GA generation-level checkpointing:
//                                     persist the evolution state every K
//                                     generations (ga_state.txt) so a
//                                     killed GA stage resumes from its last
//                                     block (0 = off; bit-identical either
//                                     way; excluded from the config
//                                     fingerprint)
//
// Worker options (campaign --worker):
//   --worker                          drain an existing tree instead of
//                                     running the grid in-process
//   --worker-id ID                    stable worker identity (default
//                                     <host>-<pid>-<random>)
//   --lease-timeout S                 seconds without (claim, beat) change
//                                     before a lease counts as stale and
//                                     may be stolen (default 10)
//   --heartbeat S                     lease refresh period (default 1)
//   --max-failures N                  consecutive failed claims before a
//                                     flow is marked terminally failed
//                                     (default 3)
//
// RTL options (export-rtl / verify-rtl):
//   --rtl-vectors N                   recorded dataset vectors per point
//                                     (default 64)
//   --rtl-random N                    LFSR random vectors per point
//                                     (default 64)
//   --require-sim                     verify-rtl: a missing simulator is a
//                                     failure (exit 1), not a skip — the CI
//                                     setting
//
// Global options:
//   --threads N                      flow-wide parallelism: GA fitness
//                                     evaluation and hardware analysis
//                                     (0 = all hardware threads, the
//                                     default; 1 = serial; bit-identical
//                                     results for any setting)
//   --cache N                         genome memo-cache capacity of the
//                                     evaluation engine (entries; 0 = off;
//                                     default 4096; bit-identical results
//                                     for any setting)
//   --checkpoint DIR                  persist every stage artifact under
//                                     DIR; a later run/resume with the same
//                                     dataset and config continues from the
//                                     completed stages bit-identically
//   --json FILE                       machine-readable FlowResult report
//                                     (stages, counters, every evaluated
//                                     point, the pick); "-" = stdout
//   --save-front DIR                  dump every true-Pareto model into DIR
//                                     (front_NNN.model) plus an index.tsv
//                                     with accuracy/area/power per design
//
// Datasets are the synthetic paper suite by default. Set PMLP_UCI_DIR to a
// directory holding the real UCI files (breast-cancer-wisconsin.data,
// cardio.csv, pendigits.tra, winequality-{red,white}.csv) and every
// subcommand loads the real data instead (core::suite validates the shape
// against Table I).
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
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
#include "pmlp/datasets/synthetic.hpp"
#include "pmlp/hwmodel/power.hpp"
#include "pmlp/mlp/topology.hpp"
#include "pmlp/netlist/opt.hpp"
#include "pmlp/netlist/testbench.hpp"
#include "pmlp/netlist/verilog.hpp"

namespace {

using namespace pmlp;

int cmd_list() {
  std::cout << "dataset        topology   samples  classes  baseline-acc "
               "(paper)\n";
  for (const auto& row : mlp::paper_table1()) {
    const auto spec = core::find_paper_spec(row.dataset);
    std::cout << row.dataset;
    for (std::size_t i = row.dataset.size(); i < 15; ++i) std::cout << ' ';
    std::cout << row.topology.to_string() << "   " << spec.n_samples
              << "     " << spec.n_classes << "        " << row.accuracy
              << "\n";
  }
  return 0;
}

int cmd_metrics(const std::string& dataset) {
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

int g_threads = 0;             // --threads: 0 = all hardware threads
int g_cache = -1;              // --cache: -1 = keep the ProblemConfig default
std::string g_checkpoint;      // --checkpoint DIR
std::string g_json;            // --json FILE ("-" = stdout)
std::string g_save_front;      // --save-front DIR
std::string g_datasets;        // --datasets A,B,C (campaign; "" = all five)
int g_seeds = 1;               // --seeds K (campaign: GA seeds 1..K)
bool g_seeds_set = false;      // --seeds was given explicitly
bool g_resume = false;         // --resume (campaign)
int g_port = 0;                // --port N (serve; 0 = OS-assigned)
bool g_port_set = false;       // --port was given explicitly
int g_batch = 64;              // --batch N (serve: max requests per batch)
bool g_batch_set = false;      // --batch was given explicitly
bool g_worker = false;         // --worker (campaign: drain an existing tree)
std::string g_worker_id;       // --worker-id (campaign --worker)
double g_lease_timeout = 10.0; // --lease-timeout S (campaign --worker)
bool g_lease_timeout_set = false;
double g_heartbeat = 1.0;      // --heartbeat S (campaign --worker)
bool g_heartbeat_set = false;
int g_max_failures = 3;        // --max-failures N (campaign --worker)
bool g_max_failures_set = false;
int g_ga_checkpoint = 0;       // --ga-checkpoint K (campaign: GA gen ckpt)
bool g_ga_checkpoint_set = false;
int g_rtl_vectors = 64;        // --rtl-vectors N (export-rtl/verify-rtl)
bool g_rtl_vectors_set = false;
int g_rtl_random = 64;         // --rtl-random N (export-rtl/verify-rtl)
bool g_rtl_random_set = false;
bool g_require_sim = false;    // --require-sim (verify-rtl)

/// Usage-level argument errors throw this; main() maps it to exit code 2
/// (runtime failures exit 1) instead of letting anything escape uncaught.
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

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

/// Flags parsed but not consumed by the selected subcommand are usage
/// errors: a silently ignored option (campaign --save-front, run --seeds)
/// would cost a full training run to discover. --threads/--cache are
/// accepted everywhere as global performance knobs.
void reject_unused_flags(const std::string& cmd) {
  const bool run_like = cmd == "run" || cmd == "resume" || cmd == "train";
  const bool campaign = cmd == "campaign";
  const bool serve = cmd == "serve";
  const bool rtl = cmd == "export-rtl" || cmd == "verify-rtl";
  struct Check {
    const char* flag;
    bool set;
    bool consumed;
  };
  const Check checks[] = {
      {"--datasets", !g_datasets.empty(), campaign},
      {"--seeds", g_seeds_set, campaign},
      {"--resume", g_resume, campaign},
      {"--save-front", !g_save_front.empty(), run_like},
      {"--checkpoint", !g_checkpoint.empty(), run_like || campaign},
      {"--json", !g_json.empty(), run_like || campaign},
      {"--port", g_port_set, serve},
      {"--batch", g_batch_set, serve},
      {"--worker", g_worker, campaign},
      {"--worker-id", !g_worker_id.empty(), campaign},
      {"--lease-timeout", g_lease_timeout_set, campaign},
      {"--heartbeat", g_heartbeat_set, campaign},
      {"--max-failures", g_max_failures_set, campaign},
      {"--ga-checkpoint", g_ga_checkpoint_set, campaign},
      {"--rtl-vectors", g_rtl_vectors_set, rtl},
      {"--rtl-random", g_rtl_random_set, rtl},
      {"--require-sim", g_require_sim, cmd == "verify-rtl"},
  };
  for (const auto& c : checks) {
    if (c.set && !c.consumed) {
      throw UsageError(std::string(c.flag) + " is not supported by the '" +
                       cmd + "' subcommand");
    }
  }
}

/// An existing --checkpoint path must be a directory we can extend; a
/// file in its place would otherwise surface as a raw filesystem error
/// only after minutes of training.
void validate_checkpoint_path(const std::string& dir) {
  if (dir.empty()) return;
  std::error_code ec;
  if (std::filesystem::exists(dir, ec) &&
      !std::filesystem::is_directory(dir, ec)) {
    throw UsageError("--checkpoint path '" + dir +
                     "' exists and is not a directory");
  }
}

/// Validated --json sink, opened up front so an unwritable path fails
/// before the expensive run, not after it. Writes go to FILE.tmp and
/// finish() renames onto FILE, so a failed (or killed) run never clobbers
/// a previous report; an unfinished sink removes its temp file.
struct JsonSink {
  std::string path;
  std::string tmp;
  std::ofstream os;
  bool finished = false;
  explicit JsonSink(const std::string& p) : path(p), tmp(p + ".tmp"), os(tmp) {
    if (!os) {
      throw UsageError("cannot write --json file '" + path + "'");
    }
  }
  ~JsonSink() {
    if (!finished) {
      os.close();
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
    }
  }
  /// Flush and install the report; throws on a short write.
  void finish() {
    os.flush();
    if (!os) {
      throw std::runtime_error("short write to " + tmp);
    }
    os.close();
    std::filesystem::rename(tmp, path);
    finished = true;
    std::cerr << "wrote " << path << "\n";
  }
};

/// nullptr for stdout ("-") or when --json was not given.
std::unique_ptr<JsonSink> open_json_sink() {
  if (g_json.empty() || g_json == "-") return nullptr;
  return std::make_unique<JsonSink>(g_json);
}

core::FlowConfig default_flow(int pop, int gens) {
  core::FlowConfig cfg;
  cfg.backprop.epochs = 150;
  cfg.trainer.ga.population = pop;
  cfg.trainer.ga.generations = gens;
  cfg.trainer.n_threads = g_threads;
  if (g_cache >= 0) cfg.trainer.problem.eval_cache_capacity = g_cache;
  return cfg;
}

int cmd_baseline(const std::string& dataset) {
  const auto& row = mlp::paper_row(dataset);
  core::FlowEngine engine(core::load_paper_dataset(dataset), row.topology,
                          default_flow(8, 1));
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

/// An existing --save-front path must be a directory we can replace; reject
/// a file in its place up front, like --checkpoint (the rename at the end
/// of save_front would otherwise fail after the whole training run).
void validate_save_front_path(const std::string& dir) {
  if (dir.empty()) return;
  std::error_code ec;
  if (std::filesystem::exists(dir, ec) &&
      !std::filesystem::is_directory(dir, ec)) {
    throw UsageError("--save-front path '" + dir +
                     "' exists and is not a directory");
  }
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

int cmd_run(const std::string& dataset, int pop, int gens,
            const std::string& model_out, bool is_resume, bool legacy) {
  const auto& row = mlp::paper_row(dataset);
  validate_checkpoint_path(g_checkpoint);
  validate_save_front_path(g_save_front);
  auto json_sink = open_json_sink();  // fail an unwritable --json up front
  if (is_resume) {
    if (g_checkpoint.empty()) {
      std::cerr << "error: resume requires --checkpoint DIR\n";
      return 2;
    }
    if (!std::filesystem::exists(std::filesystem::path(g_checkpoint) /
                                 "meta.txt")) {
      std::cerr << "error: no checkpoint found in " << g_checkpoint << "\n";
      return 2;
    }
  }
  std::cerr << "training " << dataset << " " << row.topology.to_string()
            << " with NSGA-II " << pop << "x" << gens << "...\n";
  if (const auto uci = core::find_uci_file(dataset); !uci.empty()) {
    std::cerr << "using real UCI data from " << uci
              << " (PMLP_UCI_DIR)\n";
  }

  core::FlowEngine engine(core::load_paper_dataset(dataset), row.topology,
                          default_flow(pop, gens));
  if (!g_checkpoint.empty()) engine.set_checkpoint_dir(g_checkpoint);
  if (!legacy) {
    engine.set_progress([](const core::StageReport& r) {
      std::cerr << "  stage " << core::flow_stage_name(r.stage) << ": "
                << r.wall_seconds << " s, " << r.items << " items"
                << (r.reused ? " (reused)" : "") << "\n";
    });
  }
  const auto result = engine.run();

  const bool json_stdout = g_json == "-";
  if (!json_stdout) {
    std::cout << "baseline: acc " << result.baseline.baseline_test_accuracy
              << ", " << result.baseline.baseline_cost.area_cm2() << " cm2, "
              << result.baseline.baseline_cost.power_mw() << " mW\n";
    // samples_per_second is runtime metadata, zero when the backprop stage
    // was reused from a checkpoint (this process never trained for it).
    if (result.backprop.samples_per_second > 0.0) {
      std::cout << "train engine: " << result.backprop.samples_per_second
                << " samples/s (" << result.backprop.simd_isa
                << " dispatch, block " << result.backprop.block << ", "
                << result.backprop.threads << " threads)\n";
    }
    std::cout << "GA engine: " << result.training.evaluations << " evals in "
              << result.training.wall_seconds << " s ("
              << result.training.evals_per_second
              << " evals/s, cache hit rate "
              << result.training.cache_hit_rate << ")\n";
    // simd_isa is runtime metadata, empty when the GA stage was reused from
    // a checkpoint (this process never ran the kernels for it).
    if (!result.training.simd_isa.empty()) {
      std::cout << "eval kernels: " << result.training.simd_isa
                << " dispatch, block " << result.training.eval_block
                << " samples\n";
    }
    if (result.refine.trials > 0) {
      std::cout << "refine engine: " << result.refine.trials << " trials on "
                << result.refine.points << " points (early-abort rate "
                << result.refine.early_abort_rate() << "), "
                << result.refine.bits_cleared << " bits cleared, "
                << result.refine.biases_simplified << " biases simplified\n";
    }
    std::cout << "true Pareto front (" << result.front.size()
              << " points):\n";
    std::cout << "  acc       area-cm2   power-mW   verified\n";
    for (const auto& p : result.front) {
      std::cout << "  " << p.test_accuracy << "   " << p.cost.area_cm2()
                << "   " << p.cost.power_mw() << "   "
                << (p.functional_match ? "yes" : "NO") << "\n";
    }
  }
  if (!g_json.empty()) {
    if (json_stdout) {
      core::write_flow_report_json(result, dataset, row.topology, std::cout);
    } else {
      core::write_flow_report_json(result, dataset, row.topology,
                                   json_sink->os);
      json_sink->finish();
    }
  }
  if (!g_save_front.empty()) save_front(result, g_save_front);

  if (!result.best) {
    if (!json_stdout) {
      std::cout << "no design within 5% loss at this budget; raise gens\n";
    }
    return 1;
  }
  if (!json_stdout) {
    std::cout << "pick (min area within 5% loss): acc "
              << result.best->test_accuracy << ", "
              << result.best->cost.area_cm2() << " cm2 ("
              << result.area_reduction << "x), "
              << result.best->cost.power_mw() << " mW ("
              << result.power_reduction << "x)\n";
  }
  if (!model_out.empty()) {
    core::save_model_file(result.best->model, model_out);
    if (!json_stdout) std::cout << "saved " << model_out << "\n";
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
    try {
      (void)core::find_paper_spec(token);
    } catch (const std::invalid_argument& e) {
      throw UsageError(e.what());
    }
    if (std::find(names.begin(), names.end(), token) != names.end()) {
      throw UsageError("duplicate dataset '" + token + "' in --datasets");
    }
    names.push_back(token);
  }
  if (names.empty()) {
    throw UsageError("--datasets expects a comma-separated list, got '" +
                     csv + "'");
  }
  return names;
}

core::CampaignRunner* g_campaign_runner = nullptr;  // SIGINT/SIGTERM -> stop
core::CampaignWorker* g_campaign_worker = nullptr;

void campaign_sigint(int) {
  // One atomic store each: in-flight stages finish, checkpoints/leases are
  // released cleanly, and the tree stays resumable.
  if (g_campaign_runner != nullptr) g_campaign_runner->request_stop();
  if (g_campaign_worker != nullptr) g_campaign_worker->request_stop();
}

/// The worker-mode flags are meaningless without --worker; catching them
/// here keeps a typo'd coordinator invocation from silently training with
/// half the intended setup.
void require_worker_mode_flags_unused() {
  if (!g_worker_id.empty() || g_lease_timeout_set || g_heartbeat_set ||
      g_max_failures_set) {
    throw UsageError(
        "--worker-id/--lease-timeout/--heartbeat/--max-failures require "
        "--worker");
  }
}

int cmd_campaign(int pop, int gens) {
  const auto names = campaign_dataset_names(g_datasets);
  validate_checkpoint_path(g_checkpoint);
  require_worker_mode_flags_unused();
  auto json_sink = open_json_sink();
  if (g_resume) {
    if (g_checkpoint.empty()) {
      throw UsageError("--resume requires --checkpoint DIR");
    }
    if (!std::filesystem::is_directory(g_checkpoint)) {
      throw UsageError("--resume: no campaign checkpoint found in '" +
                       g_checkpoint + "'");
    }
  }

  core::CampaignConfig ccfg;
  ccfg.n_threads = g_threads;
  ccfg.checkpoint_root = g_checkpoint;
  core::CampaignRunner runner(ccfg);
  core::CampaignManifest manifest;
  manifest.population = pop;
  manifest.generations = gens;
  manifest.ga_checkpoint = g_ga_checkpoint;
  for (const auto& name : names) {
    // One synthetic generation per dataset; the seed grid shares copies.
    const auto data = core::load_paper_dataset(name);
    for (int seed = 1; seed <= g_seeds; ++seed) {
      core::CampaignFlowSpec spec;
      spec.name = name + "_s" + std::to_string(seed);
      spec.dataset = name;
      spec.data = data;
      spec.topology = core::paper_topology(name);
      spec.config = default_flow(pop, gens);
      spec.config.trainer.ga.seed = static_cast<std::uint64_t>(seed);
      spec.config.trainer.ga.checkpoint_every = g_ga_checkpoint;
      manifest.flows.push_back(
          {spec.name, name, static_cast<std::uint64_t>(seed)});
      runner.add_flow(std::move(spec));
    }
  }
  if (!g_checkpoint.empty()) {
    // The manifest makes the tree self-describing: `--worker` processes
    // and `campaign status` reconstruct the grid from it alone.
    core::save_campaign_manifest(manifest, g_checkpoint);
  }
  const int total = static_cast<int>(names.size()) * g_seeds;
  std::cerr << "campaign: " << total << " flows (" << names.size()
            << " datasets x " << g_seeds << " seeds), NSGA-II " << pop << "x"
            << gens << ", shared pool of "
            << core::resolve_n_threads(g_threads) << " workers\n";
  runner.set_progress([](const core::CampaignProgress& p) {
    std::cerr << "  [" << p.flow_name << "] stage "
              << core::flow_stage_name(p.stage.stage) << ": "
              << p.stage.wall_seconds << " s, " << p.stage.items << " items"
              << (p.stage.reused ? " (reused)" : "") << "  (" << p.flows_done
              << "/" << p.flows_total << " flows done)\n";
  });
  g_campaign_runner = &runner;
  std::signal(SIGINT, campaign_sigint);
  std::signal(SIGTERM, campaign_sigint);
  const auto result = runner.run();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_campaign_runner = nullptr;

  const bool json_stdout = g_json == "-";
  if (!json_stdout) {
    std::cout << "campaign: " << result.completed << "/"
              << result.flows.size() << " flows in " << result.wall_seconds
              << " s wall (" << result.stage_wall_seconds
              << " s of summed stage wall on " << result.n_threads
              << " workers, " << result.flows_per_second() << " flows/s)\n";
    std::cout << "  flow                 status    wall-s    front  "
                 "pick-acc   area-red\n";
    for (const auto& f : result.flows) {
      std::cout << "  ";
      std::cout.width(20);
      std::cout.setf(std::ios::left);
      std::cout << f.name;
      std::cout.unsetf(std::ios::left);
      std::cout << " " << campaign_flow_status_name(f.status) << "  "
                << f.wall_seconds;
      if (f.result) {
        std::cout << "  " << f.result->front.size() << "  ";
        if (f.result->best) {
          std::cout << f.result->best->test_accuracy << "  "
                    << f.result->area_reduction << "x";
        } else {
          std::cout << "-  -";
        }
      } else if (!f.error.empty()) {
        std::cout << "  " << f.error;
      }
      std::cout << "\n";
    }
  }
  if (!g_json.empty()) {
    if (json_stdout) {
      core::write_campaign_report_json(result, std::cout);
    } else {
      core::write_campaign_report_json(result, json_sink->os);
      json_sink->finish();
    }
  }
  for (const auto& f : result.flows) {
    if (f.status == core::CampaignFlowStatus::kFailed) {
      std::cerr << "flow " << f.name << " FAILED: " << f.error << "\n";
    }
  }
  return result.all_ok() ? 0 : 1;
}

/// `pmlp campaign --worker --checkpoint DIR`: join an existing campaign
/// tree as one crash-safe distributed drain process. The grid comes from
/// the tree's manifest; pop/gens positionals are rejected so two workers
/// can never disagree about the flow configs (the config fingerprint would
/// catch it, but at the cost of a poisoned flow).
int cmd_campaign_worker() {
  if (g_checkpoint.empty()) {
    throw UsageError("--worker requires --checkpoint DIR");
  }
  const auto manifest = core::load_campaign_manifest(g_checkpoint);

  std::vector<core::CampaignFlowSpec> specs;
  std::vector<std::pair<std::string, datasets::Dataset>> loaded;
  for (const auto& f : manifest.flows) {
    const datasets::Dataset* data = nullptr;
    for (const auto& [name, d] : loaded) {
      if (name == f.dataset) data = &d;
    }
    if (data == nullptr) {
      loaded.emplace_back(f.dataset, core::load_paper_dataset(f.dataset));
      data = &loaded.back().second;
    }
    core::CampaignFlowSpec spec;
    spec.name = f.name;
    spec.dataset = f.dataset;
    spec.data = *data;
    spec.topology = core::paper_topology(f.dataset);
    spec.config = default_flow(manifest.population, manifest.generations);
    spec.config.trainer.ga.seed = f.seed;
    spec.config.trainer.ga.checkpoint_every =
        g_ga_checkpoint_set ? g_ga_checkpoint : manifest.ga_checkpoint;
    specs.push_back(std::move(spec));
  }

  core::WorkerConfig wcfg;
  wcfg.checkpoint_root = g_checkpoint;
  wcfg.worker_id = g_worker_id;
  wcfg.lease_timeout_s = g_lease_timeout;
  wcfg.heartbeat_s = g_heartbeat;
  wcfg.max_failures = g_max_failures;
  core::CampaignWorker worker(std::move(specs), wcfg);
  worker.set_progress(
      [&worker](const std::string& flow, const core::StageReport& r) {
        std::cerr << "  [" << worker.worker_id() << " @ " << flow
                  << "] stage " << core::flow_stage_name(r.stage) << ": "
                  << r.wall_seconds << " s, " << r.items << " items"
                  << (r.reused ? " (reused)" : "") << "\n";
      });
  std::cerr << "worker " << worker.worker_id() << ": joining campaign tree "
            << g_checkpoint << " (" << manifest.flows.size()
            << " flows, lease timeout " << g_lease_timeout
            << " s, heartbeat " << g_heartbeat << " s)\n";

  g_campaign_worker = &worker;
  std::signal(SIGINT, campaign_sigint);
  std::signal(SIGTERM, campaign_sigint);
  const auto report = worker.run();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_campaign_worker = nullptr;

  std::cout << "worker " << report.worker_id << ": "
            << report.stages_computed << " stages computed, "
            << report.stages_reloaded << " reloaded, " << report.claims
            << " claims (" << report.claim_conflicts << " conflicts, "
            << report.leases_stolen << " stale leases reclaimed), "
            << report.flows_completed << " flows completed, "
            << report.flows_failed << " marked failed, "
            << report.stage_failures << " stage failures, "
            << report.wall_seconds << " s wall\n";

  // Exit reflects the TREE, not just this worker: 0 = fully drained with
  // no failed flows (no matter which worker did the work).
  const auto status = core::read_campaign_status(g_checkpoint);
  if (status.failed > 0) return 1;
  return status.done == static_cast<int>(status.flows.size()) ? 0 : 1;
}

/// `pmlp campaign status --checkpoint DIR`: grid progress from the tree
/// alone — no worker processes are consulted, so it works mid-campaign,
/// post-crash, or on a finished tree.
int cmd_campaign_status() {
  if (g_checkpoint.empty()) {
    throw UsageError("campaign status requires --checkpoint DIR");
  }
  require_worker_mode_flags_unused();
  auto json_sink = open_json_sink();
  const auto status = core::read_campaign_status(g_checkpoint);
  if (g_json == "-") {
    core::write_campaign_status_json(status, std::cout);
  } else {
    core::write_campaign_status_table(status, std::cout);
    if (json_sink) {
      core::write_campaign_status_json(status, json_sink->os);
      json_sink->finish();
    }
  }
  return 0;
}

/// Rebuild evaluation data exactly as the training flow splits it.
datasets::QuantizedDataset test_split(const std::string& dataset,
                                      const core::FlowConfig& cfg) {
  core::FlowEngine engine(core::load_paper_dataset(dataset),
                          core::paper_topology(dataset), cfg);
  return engine.split().test;
}

int cmd_evaluate(const std::string& model_path, const std::string& dataset) {
  const auto model = core::load_model_file(model_path);
  const auto test = test_split(dataset, default_flow(8, 1));
  const double acc = core::accuracy(model, test);

  const auto circuit =
      netlist::build_bespoke_mlp(model.to_bespoke_desc("m"));
  const auto& lib = hwmodel::CellLibrary::egfet_1v();
  const auto cost = netlist::optimize(circuit.nl).cost(lib);
  const auto cost06 =
      netlist::optimize(circuit.nl).cost(lib.at_voltage(0.6));

  std::cout << model_path << " on " << dataset << ":\n"
            << "  accuracy " << acc << "\n"
            << "  area     " << cost.area_cm2() << " cm2\n"
            << "  power    " << cost.power_mw() << " mW @1.0V ("
            << hwmodel::zone_name(hwmodel::classify_feasibility(
                   cost.area_cm2(), cost.power_mw()))
            << "), " << cost06.power_mw() << " mW @0.6V ("
            << hwmodel::zone_name(hwmodel::classify_feasibility(
                   cost06.area_cm2(), cost06.power_mw()))
            << ")\n";
  return 0;
}

core::FrontServer* g_server = nullptr;  // SIGINT -> graceful stop

void serve_sigint(int) {
  if (g_server != nullptr) g_server->request_stop();  // one atomic store
}

int cmd_serve(const std::string& dir) {
  {
    std::error_code ec;
    if (!std::filesystem::is_directory(dir, ec)) {
      throw UsageError("serve: front directory '" + dir +
                       "' does not exist or is not a directory");
    }
  }
  core::ServeConfig cfg;
  cfg.n_threads = g_threads;
  cfg.max_batch = g_batch;
  cfg.port = g_port;
  core::FrontServer server(dir, cfg);  // bad artifacts -> runtime, exit 1
  server.listen();
  // The one machine-parseable stdout line: clients scrape the actual port.
  std::cout << "listening 127.0.0.1 " << server.port() << "\n" << std::flush;
  std::cerr << "serving " << server.models().size() << " models from " << dir
            << " (pool of " << server.pool_size() << " workers, batch "
            << cfg.max_batch << "); `stop` or SIGINT shuts down\n";
  g_server = &server;
  std::signal(SIGINT, serve_sigint);
  std::signal(SIGTERM, serve_sigint);
  server.serve_forever();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_server = nullptr;
  const auto stats = server.stats();
  std::cerr << "served " << stats.requests << " requests in " << stats.batches
            << " batches (max batch " << stats.max_batch << ", avg fill "
            << stats.batch_fill() << ") over " << stats.connections
            << " connections, " << stats.reloads << " reloads\n";
  return 0;
}

/// Offline reference for serve answers: classify one quantized feature
/// vector through the same CompiledNet path the server executes.
int cmd_classify(const std::string& model_path,
                 const std::vector<std::string>& code_args) {
  const auto model = core::load_model_file(model_path);
  const core::CompiledNet net(model);
  if (static_cast<int>(code_args.size()) != net.n_inputs()) {
    throw UsageError("classify: model expects " +
                     std::to_string(net.n_inputs()) +
                     " feature codes, got " +
                     std::to_string(code_args.size()));
  }
  const unsigned max_code = (1u << model.bits().input_bits) - 1u;
  std::vector<std::uint8_t> codes;
  codes.reserve(code_args.size());
  for (const auto& arg : code_args) {
    errno = 0;
    char* end = nullptr;
    const long v = std::strtol(arg.c_str(), &end, 10);
    if (arg.empty() || end != arg.c_str() + arg.size() || v < 0 ||
        errno == ERANGE || static_cast<unsigned long>(v) > max_code) {
      throw UsageError("classify: feature code '" + arg +
                       "' is not in the input range 0.." +
                       std::to_string(max_code));
    }
    codes.push_back(static_cast<std::uint8_t>(v));
  }
  core::EvalWorkspace ws;
  std::cout << net.predict(codes, ws) << "\n";
  return 0;
}

int cmd_export(const std::string& model_path, const std::string& dataset,
               const std::string& prefix) {
  const auto model = core::load_model_file(model_path);
  const auto test = test_split(dataset, default_flow(8, 1));

  // One build: optimize(BespokeCircuit) keeps the I/O bus metadata valid
  // across the rewrite, so the optimized DUT is also the circuit the
  // testbench's golden predictions come from.
  const auto circuit = netlist::optimize(
      netlist::build_bespoke_mlp(model.to_bespoke_desc(prefix)));
  {
    std::ofstream os(prefix + ".v");
    netlist::emit_verilog(circuit.nl, prefix, os);
  }
  std::vector<std::uint8_t> codes;
  const std::size_t n_vec = std::min<std::size_t>(test.size(), 64);
  for (std::size_t i = 0; i < n_vec; ++i) {
    const auto r = test.row(i);
    codes.insert(codes.end(), r.begin(), r.end());
  }
  netlist::TestbenchOptions tb;
  tb.dut_name = prefix;
  {
    std::ofstream os(prefix + "_tb.v");
    netlist::emit_testbench(circuit, test.n_features, codes, tb, os);
  }
  std::cout << "wrote " << prefix << ".v (" << circuit.nl.gates().size()
            << " cells) and " << prefix << "_tb.v (" << n_vec
            << " vectors)\n";
  return 0;
}

/// Derive a Table I dataset name from a campaign-tree front entry path
/// ("<dataset>_s<seed>/front_NNN.model" -> "<dataset>"). Empty when the
/// entry is not tree-shaped or the prefix is not a known dataset.
std::string dataset_from_entry(const std::string& file) {
  const auto slash = file.find('/');
  if (slash == std::string::npos) return "";
  const std::string flow = file.substr(0, slash);
  const auto us = flow.rfind("_s");
  if (us == std::string::npos || us == 0) return "";
  const std::string digits = flow.substr(us + 2);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return "";
  }
  const std::string dataset = flow.substr(0, us);
  try {
    (void)core::find_paper_spec(dataset);
  } catch (const std::invalid_argument&) {
    return "";
  }
  return dataset;
}

/// export-rtl / verify-rtl: verified RTL export of a saved front (directory)
/// or a single .model file. `dataset` selects the recorded stimulus; "-"
/// derives it per point from a campaign tree's flow names (random-only
/// stimulus when nothing matches).
int cmd_rtl(const std::string& input, const std::string& dataset,
            const std::string& outdir, bool with_sim) {
  if (dataset != "-") require_dataset(dataset);

  // Recorded-stimulus test splits, resolved lazily per dataset actually
  // referenced (a mixed-dataset campaign tree needs several).
  std::map<std::string, datasets::QuantizedDataset> splits;
  auto recorded_for = [&](const std::string& ds,
                          const core::ApproxMlp& model) {
    std::vector<std::uint8_t> codes;
    if (ds.empty()) return codes;
    auto it = splits.find(ds);
    if (it == splits.end()) {
      it = splits.emplace(ds, test_split(ds, default_flow(8, 1))).first;
    }
    const auto& test = it->second;
    const int n_inputs = test.n_features;
    if (model.topology().n_inputs() != n_inputs) {
      throw UsageError("dataset " + ds + " has " + std::to_string(n_inputs) +
                       " features but the model expects " +
                       std::to_string(model.topology().n_inputs()));
    }
    const std::size_t n_vec =
        std::min<std::size_t>(test.size(),
                              static_cast<std::size_t>(g_rtl_vectors));
    codes.assign(test.codes.begin(),
                 test.codes.begin() +
                     static_cast<std::ptrdiff_t>(
                         n_vec * static_cast<std::size_t>(n_inputs)));
    return codes;
  };

  std::vector<core::RtlPointSpec> specs;
  std::error_code ec;
  if (std::filesystem::is_directory(input, ec)) {
    for (const auto& e : core::load_front_any(input)) {
      core::RtlPointSpec spec;
      std::string name = e.file;
      if (name.size() > 6 && name.rfind(".model") == name.size() - 6) {
        name.resize(name.size() - 6);
      }
      for (char& c : name) {
        if (c == '/') c = '_';
      }
      spec.name = name;
      spec.model = e.model;
      spec.recorded = recorded_for(
          dataset != "-" ? dataset : dataset_from_entry(e.file), spec.model);
      specs.push_back(std::move(spec));
    }
  } else {
    core::RtlPointSpec spec;
    spec.model = core::load_model_file(input);
    const std::string stem = std::filesystem::path(input).stem().string();
    spec.name = stem.empty() ? "model" : stem;
    spec.recorded =
        recorded_for(dataset == "-" ? "" : dataset, spec.model);
    specs.push_back(std::move(spec));
  }

  core::RtlExportOptions opts;
  opts.max_recorded_vectors = g_rtl_vectors;
  opts.random_vectors = g_rtl_random;
  const auto report = with_sim ? core::verify_rtl(specs, outdir, opts)
                               : core::export_rtl(specs, outdir, opts);

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
      std::cerr << (g_require_sim
                        ? "error: no Verilog simulator found "
                          "(iverilog/verilator) and --require-sim is set\n"
                        : "no Verilog simulator found (iverilog/verilator); "
                          "simulation skipped\n");
    }
    if (!report.all_passed(g_require_sim)) {
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

int usage() {
  std::cerr << "usage: pmlp [--threads N] [--cache N] [--checkpoint DIR] "
               "[--json FILE] [--save-front DIR] [--datasets A,B,C] "
               "[--seeds K] [--resume] [--port N] [--batch N] "
               "[--worker] [--worker-id ID] [--lease-timeout S] "
               "[--heartbeat S] [--max-failures N] [--ga-checkpoint K] "
               "[--rtl-vectors N] [--rtl-random N] [--require-sim] "
               "<list|metrics|baseline|run|resume|train|campaign|serve|"
               "classify|evaluate|export|export-rtl|verify-rtl> [args...]\n"
               "(see the header of tools/pmlp_cli.cpp)\n";
  return 2;
}

/// Parse a non-negative int option value; returns -1 on error (overflow
/// included, so huge values can't silently wrap to 0 threads / cache off).
int parse_nonneg(const char* flag, const char* value) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || v < 0 || errno == ERANGE ||
      v > std::numeric_limits<int>::max()) {
    std::cerr << "error: " << flag
              << " expects a non-negative int, got '" << value << "'\n";
    return -1;
  }
  return static_cast<int>(v);
}

/// Parse a strictly positive seconds value (--lease-timeout/--heartbeat);
/// returns -1 on error.
double parse_pos_seconds(const char* flag, const char* value) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (end == value || *end != '\0' || !(v > 0.0) || errno == ERANGE) {
    std::cerr << "error: " << flag << " expects positive seconds, got '"
              << value << "'\n";
    return -1.0;
  }
  return v;
}

/// Parse a strictly positive positional int (pop/gens/seeds); a garbled or
/// non-positive value is a usage error (previously std::atoi silently
/// mapped garbage to 0 and fed it into the GA).
int parse_pos(const char* what, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || v <= 0 || errno == ERANGE ||
      v > std::numeric_limits<int>::max()) {
    throw UsageError(std::string(what) + " expects a positive int, got '" +
                     value + "'");
  }
  return static_cast<int>(v);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 ||
        std::strcmp(argv[i], "--cache") == 0 ||
        std::strcmp(argv[i], "--seeds") == 0 ||
        std::strcmp(argv[i], "--port") == 0 ||
        std::strcmp(argv[i], "--batch") == 0 ||
        std::strcmp(argv[i], "--max-failures") == 0 ||
        std::strcmp(argv[i], "--ga-checkpoint") == 0 ||
        std::strcmp(argv[i], "--rtl-vectors") == 0 ||
        std::strcmp(argv[i], "--rtl-random") == 0) {
      const char* flag = argv[i];
      if (i + 1 >= argc) {
        std::cerr << "error: " << flag << " requires a value\n";
        return usage();
      }
      const int v = parse_nonneg(flag, argv[++i]);
      if (v < 0) return usage();
      if (std::strcmp(flag, "--seeds") == 0) {
        if (v == 0) {
          std::cerr << "error: --seeds expects a positive int\n";
          return usage();
        }
        g_seeds = v;
        g_seeds_set = true;
      } else if (std::strcmp(flag, "--port") == 0) {
        if (v > 65535) {
          std::cerr << "error: --port expects a TCP port in 0..65535\n";
          return usage();
        }
        g_port = v;
        g_port_set = true;
      } else if (std::strcmp(flag, "--batch") == 0) {
        if (v == 0) {
          std::cerr << "error: --batch expects a positive int\n";
          return usage();
        }
        g_batch = v;
        g_batch_set = true;
      } else if (std::strcmp(flag, "--max-failures") == 0) {
        if (v == 0) {
          std::cerr << "error: --max-failures expects a positive int\n";
          return usage();
        }
        g_max_failures = v;
        g_max_failures_set = true;
      } else if (std::strcmp(flag, "--ga-checkpoint") == 0) {
        g_ga_checkpoint = v;
        g_ga_checkpoint_set = true;
      } else if (std::strcmp(flag, "--rtl-vectors") == 0) {
        g_rtl_vectors = v;
        g_rtl_vectors_set = true;
      } else if (std::strcmp(flag, "--rtl-random") == 0) {
        g_rtl_random = v;
        g_rtl_random_set = true;
      } else {
        (std::strcmp(flag, "--threads") == 0 ? g_threads : g_cache) = v;
      }
    } else if (std::strcmp(argv[i], "--lease-timeout") == 0 ||
               std::strcmp(argv[i], "--heartbeat") == 0) {
      const char* flag = argv[i];
      if (i + 1 >= argc) {
        std::cerr << "error: " << flag << " requires a value\n";
        return usage();
      }
      const double v = parse_pos_seconds(flag, argv[++i]);
      if (v < 0) return usage();
      if (std::strcmp(flag, "--lease-timeout") == 0) {
        g_lease_timeout = v;
        g_lease_timeout_set = true;
      } else {
        g_heartbeat = v;
        g_heartbeat_set = true;
      }
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      g_resume = true;
    } else if (std::strcmp(argv[i], "--worker") == 0) {
      g_worker = true;
    } else if (std::strcmp(argv[i], "--require-sim") == 0) {
      g_require_sim = true;
    } else if (std::strcmp(argv[i], "--checkpoint") == 0 ||
               std::strcmp(argv[i], "--json") == 0 ||
               std::strcmp(argv[i], "--save-front") == 0 ||
               std::strcmp(argv[i], "--datasets") == 0 ||
               std::strcmp(argv[i], "--worker-id") == 0) {
      const char* flag = argv[i];
      if (i + 1 >= argc) {
        std::cerr << "error: " << flag << " requires a value\n";
        return usage();
      }
      const std::string value = argv[++i];
      if (std::strcmp(flag, "--checkpoint") == 0) {
        g_checkpoint = value;
      } else if (std::strcmp(flag, "--json") == 0) {
        g_json = value;
      } else if (std::strcmp(flag, "--datasets") == 0) {
        g_datasets = value;
      } else if (std::strcmp(flag, "--worker-id") == 0) {
        g_worker_id = value;
      } else {
        g_save_front = value;
      }
    } else {
      args.emplace_back(argv[i]);
    }
  }
  if (args.empty()) return usage();
  const std::string& cmd = args[0];
  const std::size_t n = args.size();
  try {
    reject_unused_flags(cmd);
    if (cmd == "list") return cmd_list();
    if (cmd == "metrics" && n >= 2) {
      require_dataset(args[1]);
      return cmd_metrics(args[1]);
    }
    if (cmd == "baseline" && n >= 2) {
      require_dataset(args[1]);
      return cmd_baseline(args[1]);
    }
    if ((cmd == "run" || cmd == "resume" || cmd == "train") && n >= 2) {
      require_dataset(args[1]);
      const int pop = n >= 3 ? parse_pos("population", args[2]) : 80;
      const int gens = n >= 4 ? parse_pos("generations", args[3]) : 200;
      const std::string out = n >= 5 ? args[4] : "";
      return cmd_run(args[1], pop, gens, out, cmd == "resume",
                     cmd == "train");
    }
    if (cmd == "campaign") {
      if (n >= 2 && args[1] == "status") {
        if (g_worker) {
          throw UsageError("campaign status does not take --worker");
        }
        return cmd_campaign_status();
      }
      if (g_worker) {
        if (n >= 2) {
          throw UsageError(
              "campaign --worker takes no population/generations (the grid "
              "comes from the tree's manifest)");
        }
        return cmd_campaign_worker();
      }
      const int pop = n >= 2 ? parse_pos("population", args[1]) : 80;
      const int gens = n >= 3 ? parse_pos("generations", args[2]) : 200;
      return cmd_campaign(pop, gens);
    }
    if (cmd == "serve" && n >= 2) {
      return cmd_serve(args[1]);
    }
    if (cmd == "classify" && n >= 3) {
      return cmd_classify(args[1],
                          std::vector<std::string>(args.begin() + 2,
                                                   args.end()));
    }
    if (cmd == "evaluate" && n >= 3) {
      require_dataset(args[2]);
      return cmd_evaluate(args[1], args[2]);
    }
    if (cmd == "export" && n >= 4) {
      require_dataset(args[2]);
      return cmd_export(args[1], args[2], args[3]);
    }
    if ((cmd == "export-rtl" || cmd == "verify-rtl") && n >= 2) {
      const std::string dataset = n >= 3 ? args[2] : "-";
      const std::string outdir =
          n >= 4 ? args[3]
                 : std::filesystem::path(args[1]).filename().string() +
                       "_rtl";
      return cmd_rtl(args[1], dataset, outdir, cmd == "verify-rtl");
    }
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    // Runtime failures (corrupt artifacts, I/O, ...) exit 1; only
    // UsageError above maps to the usage exit code 2.
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (...) {
    std::cerr << "error: unknown exception\n";
    return 1;
  }
  return usage();
}
