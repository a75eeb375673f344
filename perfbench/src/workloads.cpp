// The benchmark workloads. Each run walks the same user journey — train a
// front, resume it from its checkpoints, sign every front point off as RTL,
// serve the front while it is republished — and the workloads differ in
// which of those steps carries the load (README.md gives the reasons).
//
// The training problem is fixed (Table I datasets, fixed GA/split/backprop
// seeds): GA outcomes are chaotic in the seed, so a seed-dependent training
// set would make every end-to-end figure swing far beyond any usable bound.
// The run seed generates everything else the program consumes: the sign-off
// LFSR stimulus and the serve request streams.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iomanip>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "bench.hpp"
#include "pmlp/core/campaign.hpp"
#include "pmlp/core/eval_engine.hpp"
#include "pmlp/core/flow_engine.hpp"
#include "pmlp/core/rtl_export.hpp"
#include "pmlp/core/serialize.hpp"
#include "pmlp/core/serve.hpp"
#include "pmlp/core/suite.hpp"
#include "pmlp/core/trainer.hpp"
#include "pmlp/datasets/synthetic.hpp"
#include "pmlp/mlp/topology.hpp"
#include "pmlp/netlist/activity.hpp"
#include "pmlp/netlist/builders.hpp"
#include "pmlp/netlist/opt.hpp"
#include "pmlp/netlist/verilog.hpp"
#include "pmlp/nsga2/nsga2.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace core = pmlp::core;
namespace datasets = pmlp::datasets;
namespace netlist = pmlp::netlist;
namespace nsga2 = pmlp::nsga2;
namespace fs = std::filesystem;

int hardware_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  if (v.size() % 2 == 1) return *mid;
  return 0.5 * (*mid + *std::max_element(v.begin(), mid));
}

/// Nearest-rank percentile (q in (0, 1]); reorders `v`.
double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const auto at = v.begin() + static_cast<std::ptrdiff_t>(
                                  std::clamp<std::size_t>(rank, 1, v.size()) - 1);
  std::nth_element(v.begin(), at, v.end());
  return *at;
}

/// CPU time of the whole process (every thread, user + system) in seconds.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Wall and process CPU time of one step. The steps of the journey are timed
/// in CPU time, which leaves out the time the host takes from a virtual
/// machine and the wait on disk flushes; serving is timed in wall time.
struct Stopwatch {
  Clock::time_point wall0 = Clock::now();
  double cpu0 = cpu_seconds();

  [[nodiscard]] double wall_s() const { return seconds_since(wall0); }
  [[nodiscard]] double cpu_s() const { return cpu_seconds() - cpu0; }
};

// ---------------------------------------------------------------- reference
// The host this was tuned on shares its cores with other machines and
// changes speed for seconds to minutes at a time: the same work takes up to
// 1.5x longer, in process CPU time as well as in wall time, and a whole run
// can fall in a slow stretch. Every timed sample is therefore bracketed by a
// fixed reference workload on the same threads and CPUs, and the sample is
// scaled by how fast the reference ran: `Bracket::scale` reports what the
// sample would have taken had the reference run at its nominal time. The
// reference is part of the benchmark, so a change to the library moves the
// sample and not the reference.

/// Nominal CPU time of `kReferenceReps` repetitions of `reference_work`:
/// their time on an idle 4-vCPU Xeon (Sapphire Rapids, KVM) at full speed.
constexpr double kReferenceS = 0.026;
constexpr int kReferenceReps = 10;

/// The reference's inputs, made once per thread so that every repetition
/// does the same work.
struct ReferenceData {
  static constexpr std::size_t kRows = 4096;
  static constexpr std::size_t kIn = 16;
  static constexpr std::size_t kOut = 32;
  static constexpr std::uint64_t kKeys = 8192;
  std::vector<std::uint8_t> x = std::vector<std::uint8_t>(kRows * kIn);
  std::vector<std::int8_t> w = std::vector<std::int8_t>(kOut * kIn);
  std::vector<float> f = std::vector<float>(8192);
  std::unordered_map<std::uint64_t, std::uint64_t> cache;
  std::vector<std::uint32_t> keys = std::vector<std::uint32_t>(20000);

  ReferenceData() {
    std::mt19937_64 rng(1);
    for (auto& v : x) v = static_cast<std::uint8_t>(rng());
    for (auto& v : w) v = static_cast<std::int8_t>(rng());
    for (auto& v : f) v = static_cast<float>(rng() % 1000) * 1e-3f;
    for (std::uint64_t k = 0; k < kKeys; ++k) cache.emplace(k, rng());
  }
};

/// `reps` repetitions of fixed work with the program's mix: 8-bit quantized
/// dot products with an argmax (the MLP evaluator), a float stencil
/// (backprop), hash-map lookups (the GA's evaluation cache) and a sort
/// (NSGA-II). Returns a checksum so the compiler keeps the work.
std::uint64_t reference_work(std::uint64_t seed, int reps) {
  using D = ReferenceData;
  thread_local D d;
  std::mt19937_64 rng(seed);
  std::uint64_t sum = 0;
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t r = 0; r < D::kRows; ++r) {
      int best = 0;
      std::size_t arg = 0;
      for (std::size_t o = 0; o < D::kOut; ++o) {
        int s = 0;
        for (std::size_t i = 0; i < D::kIn; ++i) {
          s += d.x[r * D::kIn + i] * d.w[o * D::kIn + i];
        }
        if ((s >> 3) > best) {
          best = s >> 3;
          arg = o;
        }
      }
      sum += arg;
    }
    float acc = 0.0f;
    for (int k = 0; k < 40; ++k) {
      for (std::size_t i = 0; i + 1 < d.f.size(); ++i) {
        d.f[i] = d.f[i] * 0.999f + d.f[i + 1] * 0.001f;
        acc += d.f[i];
      }
    }
    sum += static_cast<std::uint64_t>(acc);
    for (int k = 0; k < 20000; ++k) sum += d.cache.at(rng() % D::kKeys);
    for (auto& v : d.keys) v = static_cast<std::uint32_t>(rng());
    std::sort(d.keys.begin(), d.keys.end());
    sum += d.keys[d.keys.size() / 2];
  }
  return sum;
}

std::atomic<std::uint64_t> reference_checksum{0};

/// CPU time per thread of `reference_work` on `threads` threads at once,
/// scaled to `kReferenceReps` repetitions; one thread runs on the calling
/// thread, and so on its CPU.
double reference_s(int threads, int reps = kReferenceReps) {
  const double cpu0 = cpu_seconds();
  if (threads == 1) {
    reference_checksum += reference_work(1, reps);
  } else {
    std::vector<std::jthread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([t, reps] {
        reference_checksum +=
            reference_work(static_cast<std::uint64_t>(t) + 1, reps);
      });
    }
  }
  return (cpu_seconds() - cpu0) / threads * kReferenceReps / reps;
}

/// The reference timed on `n` threads just before a sample (at
/// construction) and just after it (in `scale`).
struct Bracket {
  int threads = 1;
  double before = 0.0;

  explicit Bracket(int n) : threads(n), before(reference_s(n)) {}
  /// `seconds`, a time, as it would read had the reference taken its
  /// nominal time; the reference's time is the mean of the two.
  [[nodiscard]] double scale(double seconds) const {
    return seconds * kReferenceS / (0.5 * (before + reference_s(threads)));
  }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

long directory_bytes(const std::string& dir, long* files = nullptr) {
  long bytes = 0;
  long count = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    bytes += static_cast<long>(e.file_size());
    ++count;
  }
  if (files != nullptr) *files = count;
  return bytes;
}

// ------------------------------------------------------------------ profile

/// How one workload sizes each step of the journey. A run repeats rounds
/// until its measuring budget is spent (at least `kMinRounds` of them); a
/// round trains once and repeats each later step the given number of times,
/// so every step's samples spread over the whole run. The reported figure is
/// the median of a step's samples, each at the reference's speed.
struct Profile {
  bool campaign = false;               ///< CampaignRunner vs one FlowEngine
  std::vector<std::string> datasets;   ///< Table I names
  int seeds = 1;                       ///< GA seeds per dataset
  int population = 0;
  int generations = 0;
  int epochs = 0;
  int train_threads = 1;  ///< campaign pool size, or the flow's n_threads
  int signoff_vectors = 0;             ///< LFSR vectors per sign-off point
  int setup_batch = 1;  ///< input generations per set-up sample (>= 100 ms)
  int trainings = 1;                   ///< trainings per round
  int resumes = 1;                     ///< resumes per round
  int signoffs = 1;                    ///< sign-off passes per round
  int serve_windows = 1;  ///< saturation + closed-loop window pairs per round
};

constexpr int kMinRounds = 3;

Profile make_profile(const std::string& name) {
  const int hw = hardware_threads();
  Profile p;
  if (name == "campaign-suite") {
    p.campaign = true;
    for (const auto& row : pmlp::mlp::paper_table1()) {
      p.datasets.push_back(row.dataset);
    }
    p.seeds = 2;
    p.population = 60;
    p.generations = 100;
    p.epochs = 150;
    p.train_threads = hw;
    p.signoff_vectors = 2048;
    p.setup_batch = 20;
    p.resumes = 1;
    p.signoffs = 1;
    p.serve_windows = 5;
  } else if (name == "pendigits-flow") {
    p.datasets = {"Pendigits"};
    p.population = 120;
    p.generations = 100;
    p.epochs = 200;
    p.train_threads = std::max(1, hw / 2);
    p.signoff_vectors = 2048;
    p.setup_batch = 30;
    p.resumes = 3;
    p.signoffs = 3;
    p.serve_windows = 4;
  } else if (name == "serve-reload") {
    p.datasets = {"Cardio"};
    p.population = 60;
    p.generations = 150;
    p.epochs = 100;
    p.train_threads = 1;
    p.signoff_vectors = 2048;
    p.setup_batch = 60;
    p.trainings = 2;
    p.resumes = 3;
    p.signoffs = 3;
    p.serve_windows = 15;
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  return p;
}

// ------------------------------------------------------------------- inputs

struct Request {
  std::string selector;
  std::vector<std::uint8_t> codes;
};

/// Everything a run generates before it measures.
struct Inputs {
  std::vector<datasets::Dataset> data;  ///< one per profile dataset
  std::uint32_t lfsr_seed = 1;
  std::uint64_t request_seed = 1;
};

Inputs make_inputs(const Profile& p, std::uint64_t seed) {
  Inputs in;
  for (const auto& name : p.datasets) {
    in.data.push_back(datasets::generate(core::find_paper_spec(name)));
  }
  in.lfsr_seed = static_cast<std::uint32_t>(1 + seed % 65535);
  in.request_seed = seed * 0x9E3779B97F4A7C15ull + 1;
  return in;
}

core::FlowConfig flow_config(const Profile& p, int ga_seed) {
  core::FlowConfig cfg;
  cfg.backprop.epochs = p.epochs;
  cfg.trainer.ga.population = p.population;
  cfg.trainer.ga.generations = p.generations;
  cfg.trainer.ga.seed = static_cast<std::uint64_t>(ga_seed);
  cfg.trainer.n_threads = p.train_threads;  // ignored inside a campaign
  return cfg;
}

// ----------------------------------------------------------------- training

struct FlowOut {
  std::string name;
  pmlp::mlp::Topology topology;
  core::FlowResult result;
};

struct Training {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU time of the run, every worker's
  double scaled_s = 0.0;  ///< cpu_s at the reference's speed
  std::vector<FlowOut> flows;  ///< completed flows, profile order
  int failed = 0;
  int lanes = 1;  ///< stages that may run at once (pool workers)
  double stage_busy_s = 0.0;
  double critical_path_s = 0.0;
  std::vector<std::string> errors;
};

/// Train (or, over an existing checkpoint tree, resume) every flow of the
/// profile under a `span_name` span; with `stage_spans`, each stage the
/// flows report becomes a child span. A campaign runs on `pool_threads`
/// workers.
Training train(const Profile& p, const Inputs& in, const std::string& root,
               int pool_threads, Tracer* tracer, const char* span_name,
               bool stage_spans) {
  Training out;
  const auto stage_span = [tracer](int parent) {
    return [tracer, parent](const core::StageReport& r) {
      const auto now = Clock::now();
      tracer->record(std::string("stage.") + core::flow_stage_name(r.stage),
                     now - std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(r.wall_seconds)),
                     now, parent);
    };
  };
  const bool traced = stage_spans && tracer != nullptr && tracer->enabled();

  if (p.campaign) {
    core::CampaignConfig cc;
    cc.n_threads = pool_threads;
    cc.checkpoint_root = root;
    core::CampaignRunner runner(cc);
    for (std::size_t d = 0; d < p.datasets.size(); ++d) {
      for (int s = 1; s <= p.seeds; ++s) {
        core::CampaignFlowSpec spec;
        spec.name = p.datasets[d] + "_s" + std::to_string(s);
        spec.dataset = p.datasets[d];
        spec.data = in.data[d];
        spec.topology = pmlp::mlp::paper_row(p.datasets[d]).topology;
        spec.config = flow_config(p, s);
        runner.add_flow(std::move(spec));
      }
    }
    const Span span(tracer, span_name);
    if (traced) {
      runner.set_progress(
          [cb = stage_span(tracer->current())](const core::CampaignProgress& ev) {
            cb(ev.stage);
          });
    }
    const Bracket ref(pool_threads);
    const Stopwatch watch;
    auto res = runner.run();
    out.wall_s = watch.wall_s();
    out.cpu_s = watch.cpu_s();
    out.scaled_s = ref.scale(out.cpu_s);
    out.lanes = res.n_threads;
    out.stage_busy_s = res.stage_wall_seconds;
    out.failed = res.failed + res.stopped + res.pending;
    for (auto& f : res.flows) {
      if (f.status != core::CampaignFlowStatus::kDone || !f.result) {
        out.errors.push_back(f.name + ": " + f.error);
        continue;
      }
      double path = 0.0;
      for (const auto& st : f.result->stages) path += st.wall_seconds;
      out.critical_path_s = std::max(out.critical_path_s, path);
      out.flows.push_back({f.name, f.topology, std::move(*f.result)});
    }
    return out;
  }

  const auto& name = p.datasets.front();
  const std::string flow_name = name + "_s1";
  const auto& topology = pmlp::mlp::paper_row(name).topology;
  core::FlowEngine engine(in.data.front(), topology, flow_config(p, 1));
  engine.set_checkpoint_dir(root + "/" + flow_name);
  const Span span(tracer, span_name);
  if (traced) engine.set_progress(stage_span(tracer->current()));
  try {
    const Bracket ref(p.train_threads);
    const Stopwatch watch;
    auto result = std::move(engine).run();
    out.wall_s = watch.wall_s();
    out.cpu_s = watch.cpu_s();
    out.scaled_s = ref.scale(out.cpu_s);
    for (const auto& st : result.stages) out.stage_busy_s += st.wall_seconds;
    out.critical_path_s = out.stage_busy_s;
    out.flows.push_back({flow_name, topology, std::move(result)});
  } catch (const std::exception& e) {
    out.failed = 1;
    out.errors.push_back(flow_name + ": " + e.what());
  }
  return out;
}

/// The Table II figures: geometric means over flows of baseline / pick. A
/// flow without a design within 5% loss counts as 1.0 — the baseline itself
/// always qualifies.
struct Quality {
  double area_reduction = 1.0;
  double power_reduction = 1.0;
  int flows_without_pick = 0;
};

Quality quality(const Training& t) {
  Quality q;
  double log_area = 0.0;
  double log_power = 0.0;
  for (const auto& f : t.flows) {
    if (!f.result.best) {
      ++q.flows_without_pick;
      continue;
    }
    log_area += std::log(f.result.area_reduction);
    log_power += std::log(f.result.power_reduction);
  }
  if (!t.flows.empty()) {
    q.area_reduction = std::exp(log_area / static_cast<double>(t.flows.size()));
    q.power_reduction =
        std::exp(log_power / static_cast<double>(t.flows.size()));
  }
  return q;
}

/// Exact text of everything a flow decided: every evaluated point, the true
/// front, the pick and the reductions (doubles as hexfloats).
std::string fingerprint(const Training& t) {
  std::ostringstream os;
  for (const auto& f : t.flows) {
    os << f.name << '\n';
    core::save_evaluated_points(f.result.evaluated, os);
    core::save_evaluated_points(f.result.front, os);
    if (f.result.best) {
      core::save_evaluated_points(std::span(&*f.result.best, 1), os);
    }
    core::write_hexdouble(os, f.result.area_reduction);
    core::write_hexdouble(os, f.result.power_reduction);
  }
  return os.str();
}

/// The flow whose front is served: the largest front, first on ties.
const FlowOut& served_flow(const Training& t) {
  if (t.flows.empty()) throw std::runtime_error("no flow finished");
  const FlowOut* best = &t.flows.front();
  for (const auto& f : t.flows) {
    if (f.result.front.size() > best->result.front.size()) best = &f;
  }
  return *best;
}

// ----------------------------------------------------------------- sign-off

std::vector<core::RtlPointSpec> signoff_points(const Training& t) {
  std::vector<core::RtlPointSpec> points;
  for (const auto& f : t.flows) {
    const auto& test = f.result.baseline.test;
    const std::size_t rows = std::min<std::size_t>(test.size(), 64);
    const std::vector<std::uint8_t> recorded(
        test.codes.begin(),
        test.codes.begin() + static_cast<std::ptrdiff_t>(
                                 rows * static_cast<std::size_t>(test.n_features)));
    for (std::size_t i = 0; i < f.result.front.size(); ++i) {
      points.push_back({f.name + "_p" + std::to_string(i),
                        f.result.front[i].model, recorded});
    }
  }
  return points;
}

struct Signoff {
  double cpu_s = 0.0;
  double scaled_s = 0.0;  ///< cpu_s at the reference's speed
  long points = 0;
  long failed = 0;
  long bytes = 0;  ///< everything export_rtl wrote
};

Signoff signoff(const std::vector<core::RtlPointSpec>& points,
                const std::string& outdir, const core::RtlExportOptions& opts,
                Tracer* tracer, Outcome& outcome) {
  Signoff s;
  s.points = static_cast<long>(points.size());
  const Span span(tracer, "signoff.export_rtl");
  const Bracket ref(1);
  const Stopwatch watch;
  try {
    const auto report = core::export_rtl(points, outdir, opts);
    s.cpu_s = watch.cpu_s();
    outcome.check(report.points.size() == points.size(),
                  "export_rtl reported fewer points than requested");
    s.scaled_s = ref.scale(s.cpu_s);
    s.bytes = directory_bytes(outdir);
  } catch (const std::exception& e) {
    s.cpu_s = watch.cpu_s();
    s.failed = s.points;
    outcome.check(false, std::string("three-way RTL check: ") + e.what());
  }
  return s;
}

// -------------------------------------------------------------------- serve

/// The CPU in `allowed` that has taken the fewest device interrupts since
/// boot (the numbered rows of /proc/interrupts), or the first allowed CPU
/// when that file cannot be read. An interrupt preempts whatever runs on its
/// CPU; on the 4-vCPU machine this was tuned on, CPU 0 takes the network's
/// and CPU 3 the disk's.
int quietest_cpu(const cpu_set_t& allowed) {
  std::vector<int> columns;  // CPU number of each count column
  std::vector<long> counts;
  std::ifstream in("/proc/interrupts");
  std::string line;
  if (std::getline(in, line)) {
    std::istringstream header(line);
    std::string word;
    while (header >> word) {
      if (word.rfind("CPU", 0) == 0) columns.push_back(std::stoi(word.substr(3)));
    }
  }
  counts.assign(columns.size(), 0);
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::string label;
    row >> label;
    if (label.empty() || std::isdigit(static_cast<unsigned char>(label[0])) == 0) {
      continue;
    }
    for (auto& c : counts) {
      long n = 0;
      if (!(row >> n)) break;
      c += n;
    }
  }
  int best = -1;
  for (std::size_t i = 0; i < columns.size(); ++i) {
    const int cpu = columns[i];
    if (cpu < 0 || cpu >= CPU_SETSIZE || !CPU_ISSET(cpu, &allowed)) continue;
    if (best < 0 || counts[i] < counts[static_cast<std::size_t>(best)]) {
      best = static_cast<int>(i);
    }
  }
  if (best >= 0) return columns[static_cast<std::size_t>(best)];
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) return cpu;
  }
  return 0;
}

/// Confines the calling thread, and every thread it starts meanwhile, to
/// the quietest CPU. The single-threaded steps run this way, so that a step
/// and the reference timed around it share a CPU. So do the serve steps: in
/// a virtual machine, waking a thread on an idle vCPU costs tens of
/// microseconds to milliseconds of host scheduling, which swamps the
/// server's own per-request work (spread over four vCPUs the closed-loop p99
/// ranged 0.2-3.6 ms between 250 ms windows of one run; on one CPU it stays
/// under 10 us). A thread that only writes beside the server, such as the
/// republisher, leaves the CPU again.
class OneCpu {
 public:
  OneCpu() {
    pinned_ = sched_getaffinity(0, sizeof saved_, &saved_) == 0;
    if (!pinned_) return;
    cpu_ = quietest_cpu(saved_);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu_, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~OneCpu() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

  /// Move the calling thread onto the other CPUs the process may use; it
  /// stays where it is when there are none.
  void leave() const {
    if (!pinned_) return;
    cpu_set_t others = saved_;
    CPU_CLR(cpu_, &others);
    if (CPU_COUNT(&others) > 0) sched_setaffinity(0, sizeof others, &others);
  }

 private:
  cpu_set_t saved_{};
  int cpu_ = 0;
  bool pinned_ = false;
};

std::string front_file(std::size_t i) {
  char name[40];
  std::snprintf(name, sizeof name, "front_%03zu.model", i);
  return name;
}

std::string exact(double v) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

/// Publish a front as a serving directory (index.tsv + one model file per
/// point), atomically: write a sibling, then rename it into place.
void publish_front(const std::vector<core::HwEvaluatedPoint>& front,
                   const std::string& dir) {
  const fs::path target(dir);
  const fs::path tmp(dir + ".tmp");
  const fs::path old(dir + ".old");
  fs::remove_all(tmp);
  fs::create_directories(tmp);
  std::ofstream index(tmp / "index.tsv");
  index << "file\ttest_accuracy\tarea_cm2\tpower_mw\tfunctional_match\n";
  for (std::size_t i = 0; i < front.size(); ++i) {
    const auto& pt = front[i];
    core::save_model_file(pt.model, (tmp / front_file(i)).string());
    index << front_file(i) << '\t' << exact(pt.test_accuracy) << '\t'
          << exact(pt.cost.area_cm2()) << '\t' << exact(pt.cost.power_mw())
          << '\t' << (pt.functional_match ? 1 : 0) << '\n';
  }
  index.close();
  if (!index) throw std::runtime_error("cannot write " + dir + " index");
  if (fs::exists(target)) fs::rename(target, old);
  fs::rename(tmp, target);
  fs::remove_all(old);
}

/// Mixed selectors over the served front: explicit files, an area budget
/// and an accuracy floor, each set at a front point so every request
/// resolves. Codes are test-set rows.
std::vector<Request> make_requests(const core::FlowResult& r,
                                   std::uint64_t seed, std::size_t n) {
  const auto& front = r.front;
  std::vector<double> areas;
  std::vector<double> accs;
  for (const auto& pt : front) {
    areas.push_back(pt.cost.area_cm2());
    accs.push_back(pt.test_accuracy);
  }
  std::sort(areas.begin(), areas.end());
  std::sort(accs.begin(), accs.end());
  const std::string by_area =
      "best-accuracy-under-area=" + exact(areas[areas.size() / 2]);
  const std::string by_acc =
      "best-area-over-accuracy=" + exact(accs[accs.size() / 2]);
  const auto& test = r.baseline.test;
  std::mt19937_64 rng(seed);
  std::vector<Request> out(n);
  for (auto& req : out) {
    switch (rng() % 3) {
      case 0: req.selector = front_file(rng() % front.size()); break;
      case 1: req.selector = by_area; break;
      default: req.selector = by_acc; break;
    }
    const auto row = test.row(rng() % test.size());
    req.codes.assign(row.begin(), row.end());
  }
  return out;
}

/// Answers a reply must match: every served file's compiled oracle.
struct Oracle {
  std::map<std::string, core::CompiledNet> nets;

  explicit Oracle(const std::vector<core::HwEvaluatedPoint>& front) {
    for (std::size_t i = 0; i < front.size(); ++i) {
      nets.emplace(front_file(i), core::CompiledNet(front[i].model));
    }
  }
  [[nodiscard]] bool agrees(const core::ServeReply& reply,
                            const std::vector<std::uint8_t>& codes,
                            core::EvalWorkspace& ws) const {
    const auto it = nets.find(reply.file);
    return it != nets.end() && it->second.predict(codes, ws) == reply.predicted;
  }
};

// One reply in this many is checked against the oracle.
constexpr std::size_t kCheckEvery = 16;

// Length of one serve window, and the period at which the closed-loop window
// republishes and reloads the front.
constexpr double kServeWindowS = 0.1;
constexpr double kReloadIntervalS = 0.05;

/// Replies of a timed window. The sampled replies are kept with their
/// request and checked against the oracle by `verify`, after the window, so
/// the check does not run on the server's CPU while it is being timed.
struct ServeTally {
  long requests = 0;
  long errors = 0;
  long checked = 0;
  long mismatches = 0;
  std::vector<std::pair<std::size_t, core::ServeReply>> sampled;

  void reply(const core::ServeReply& r, std::size_t request) {
    ++requests;
    if (!r.ok) {
      ++errors;
    } else if (request % kCheckEvery == 0) {
      sampled.emplace_back(request, r);
    }
  }
  /// Check the sampled replies, whose requests index into `mix`.
  void verify(const std::vector<Request>& mix, const Oracle& oracle) {
    core::EvalWorkspace ws;
    for (const auto& [request, r] : sampled) {
      ++checked;
      if (!oracle.agrees(r, mix[request % mix.size()].codes, ws)) ++mismatches;
    }
    sampled.clear();
  }
  void add(const ServeTally& o) {
    requests += o.requests;
    errors += o.errors;
    checked += o.checked;
    mismatches += o.mismatches;
  }
};

/// The calling thread keeps a window of requests in flight for one serve
/// window; returns the replies completed per second at the reference's
/// speed. The window is cut into slices; after each, the requests in flight
/// are drained and a one-repetition reference runs on the same CPU, so the
/// reference sees the moments the server saw.
double serve_saturation(core::FrontServer& server,
                        const std::vector<Request>& mix, const Oracle& oracle,
                        ServeTally& tally, Tracer* tracer) {
  constexpr std::size_t kWindow = 128;
  constexpr int kSlices = 5;
  const Span span(tracer, "serve.saturation");
  std::deque<std::pair<std::size_t, std::future<core::ServeReply>>> inflight;
  std::size_t next = 0;
  const auto submit = [&] {
    const auto& req = mix[next % mix.size()];
    inflight.emplace_back(next, server.submit(req.selector, req.codes));
    ++next;
  };
  long done = 0;
  double busy_s = 0.0;
  double ref_s = 0.0;
  for (int slice = 0; slice < kSlices; ++slice) {
    for (std::size_t i = 0; i < kWindow; ++i) submit();
    const auto t0 = Clock::now();
    for (long n = 1;; ++n) {
      auto [idx, fut] = std::move(inflight.front());
      inflight.pop_front();
      tally.reply(fut.get(), idx);
      if ((n & 255) == 0) {
        const double elapsed = seconds_since(t0);
        if (elapsed >= kServeWindowS / kSlices) {
          busy_s += elapsed;
          done += n;
          break;
        }
      }
      submit();
    }
    while (!inflight.empty()) {
      auto [idx, fut] = std::move(inflight.front());
      inflight.pop_front();
      tally.reply(fut.get(), idx);
    }
    ref_s += reference_s(1, 1);
  }
  tally.verify(mix, oracle);
  return static_cast<double>(done) / busy_s * (ref_s / kSlices) / kReferenceS;
}

/// Nominal median and 99th percentile of `Echo::trip` in the closed loop,
/// on the same machine as kReferenceS.
constexpr double kEchoP50Us = 3.0;
constexpr double kEchoP99Us = 4.0;

/// The serving reference: a second thread that answers each request at once,
/// through the mutex, condition variable and promise the server's dispatcher
/// uses. The closed-loop client sends it a round trip after each request,
/// so both see the same CPU at the same moments, and the server's latency is
/// scaled by the echo's. The thread starts on the caller's CPU.
class Echo {
 public:
  Echo()
      : thread_([this] {
          for (;;) {
            std::promise<int>* request = nullptr;
            {
              std::unique_lock<std::mutex> lock(mutex_);
              ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
              if (queue_.empty()) return;
              request = queue_.front();
              queue_.pop_front();
            }
            request->set_value(1);
          }
        }) {}
  ~Echo() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    ready_.notify_one();
    thread_.join();
  }
  Echo(const Echo&) = delete;
  Echo& operator=(const Echo&) = delete;

  /// One round trip, in microseconds.
  double trip() {
    std::promise<int> request;
    auto reply = request.get_future();
    const auto t0 = Clock::now();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(&request);
    }
    ready_.notify_one();
    reply.get();
    return seconds_since(t0) * 1e6;
  }

 private:
  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::promise<int>*> queue_;
  bool stop_ = false;
  std::thread thread_;  // last: starts once the members above exist
};

struct ClosedLoop {
  std::vector<double> reload_ms;
  long reload_failures = 0;
};

/// The calling thread is a closed-loop client for one serve window and
/// appends each request's latency (us) to `latency_us`, and the echo round
/// trip it makes after each request to `echo_us`. Meanwhile another
/// thread, off the pinned CPU, republishes the front directory and reload()s
/// the server. One client: with two on the serving CPU, each request also
/// queued behind the other's, and the p99 moved by 1.7x between runs.
ClosedLoop serve_closed_loop(core::FrontServer& server,
                             const std::vector<Request>& mix,
                             const Oracle& oracle,
                             const std::vector<core::HwEvaluatedPoint>& front,
                             const OneCpu& pin, std::vector<double>& latency_us,
                             std::vector<double>& echo_us, ServeTally& tally,
                             Tracer* tracer) {
  const Span span(tracer, "serve.closed_loop");
  const int parent = tracer != nullptr ? tracer->current() : -1;
  ClosedLoop out;
  std::jthread republisher([&](const std::stop_token& stop) {
    pin.leave();
    auto due = Clock::now();
    while (!stop.stop_requested()) {
      due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(kReloadIntervalS));
      std::this_thread::sleep_until(due);
      if (stop.stop_requested()) break;
      try {
        publish_front(front, server.front_dir());
        const auto t0 = Clock::now();
        server.reload();
        const auto t1 = Clock::now();
        out.reload_ms.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
        if (tracer != nullptr) tracer->record("serve.reload", t0, t1, parent);
      } catch (const std::exception&) {
        ++out.reload_failures;
      }
    }
  });
  latency_us.clear();
  echo_us.clear();
  Echo echo;
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const auto& req = mix[i % mix.size()];
    const auto t0 = Clock::now();
    if (std::chrono::duration<double>(t0 - start).count() >= kServeWindowS) {
      break;
    }
    const auto reply = server.classify(req.selector, req.codes);
    latency_us.push_back(seconds_since(t0) * 1e6);
    tally.reply(reply, i);
    echo_us.push_back(echo.trip());
  }
  republisher.request_stop();
  republisher.join();
  tally.verify(mix, oracle);
  return out;
}

// ------------------------------------------------------------------ journey

/// Samples of every round, and the artifacts of the last one.
struct Journey {
  /// Kept for the whole run: allocating and freeing megabytes per window
  /// made the peak RSS wander by 15% between runs.
  Journey() {
    latency_us.reserve(1 << 18);
    echo_us.reserve(1 << 18);
  }

  Training training;  ///< the last round's training
  Quality quality;
  std::string fingerprint;
  std::vector<double> ttf_s;
  std::vector<double> resume_s;
  std::vector<double> signoff_s;
  Signoff last_signoff;
  std::vector<double> serve_qps;     ///< one per saturation window
  std::vector<double> serve_p50_us;  ///< one per closed-loop window
  std::vector<double> serve_p99_us;
  ClosedLoop closed;  ///< reload timings of every window
  std::vector<double> latency_us;  ///< of the current closed-loop window
  std::vector<double> echo_us;     ///< its echo round trips
  core::ServeStats serve_stats;  ///< of the last round's server
  ServeTally tally;
  std::vector<Request> mix;
  std::vector<core::RtlPointSpec> points;
  std::string tree;
};

/// One round: train, resume, sign off and serve, appending to `j`'s
/// samples.
void run_round(const Profile& p, const Inputs& in, const std::string& dir,
               Tracer* tracer, Outcome& outcome, Journey& j) {
  // A single-threaded training already runs on the CPU the later steps use.
  std::optional<OneCpu> pin;
  if (p.train_threads == 1) pin.emplace();
  for (int i = 0; i < p.trainings; ++i) {
    const bool first = j.ttf_s.empty();
    if (!j.tree.empty()) fs::remove_all(j.tree);
    j.tree = dir + "/tree";
    j.training = train(p, in, j.tree, p.train_threads, tracer, "train", true);
    j.ttf_s.push_back(j.training.scaled_s);
    outcome.attempted +=
        static_cast<long>(j.training.flows.size()) + j.training.failed;
    outcome.failed += j.training.failed;
    for (const auto& e : j.training.errors) outcome.check(false, "flow " + e);
    const auto print = fingerprint(j.training);
    if (first) {
      j.quality = quality(j.training);
      j.fingerprint = print;
    }
    outcome.check(print == j.fingerprint,
                  "fronts differ between two runs of the same training");
  }

  // A campaign resumes on one worker: the step then times the checkpoint
  // reload itself (read, checksum, parse), not the pool's thread wake-ups,
  // which made a 4-worker resume of about 75 ms vary 0.07-0.11 s between
  // runs.
  if (!pin) pin.emplace();
  for (int i = 0; i < p.resumes; ++i) {
    const auto resumed = train(p, in, j.tree, 1, tracer, "resume", false);
    j.resume_s.push_back(resumed.scaled_s);
    outcome.check(resumed.failed == 0 && fingerprint(resumed) == j.fingerprint,
                  "resumed fronts differ from the first run");
  }

  j.points = signoff_points(j.training);
  core::RtlExportOptions opts;
  opts.random_vectors = p.signoff_vectors;
  opts.lfsr_seed = in.lfsr_seed;
  for (int i = 0; i < p.signoffs; ++i) {
    const std::string out = dir + "/rtl";
    j.last_signoff = signoff(j.points, out, opts, tracer, outcome);
    j.signoff_s.push_back(j.last_signoff.scaled_s);
    outcome.attempted += j.last_signoff.points;
    outcome.failed += j.last_signoff.failed;
    fs::remove_all(out);
  }

  const auto& served = served_flow(j.training).result;
  const std::string front_dir = dir + "/front";
  publish_front(served.front, front_dir);
  j.mix = make_requests(served, in.request_seed, 4096);
  const Oracle oracle(served.front);
  core::ServeConfig sc;
  sc.n_threads = 1;
  core::FrontServer server(front_dir, sc);
  ServeTally tally;
  tally.sampled.reserve(1 << 14);
  for (int w = 0; w < p.serve_windows; ++w) {
    // One reference around both windows: `factor` is the time one second of
    // the pair takes at the reference's speed.
    const double qps = serve_saturation(server, j.mix, oracle, tally, tracer);
    j.serve_qps.push_back(qps);
    const auto closed =
        serve_closed_loop(server, j.mix, oracle, served.front, *pin,
                          j.latency_us, j.echo_us, tally, tracer);
    const double p50 = percentile(j.latency_us, 0.50);
    const double p99 = percentile(j.latency_us, 0.99);
    const double e50 = percentile(j.echo_us, 0.50);
    const double e99 = percentile(j.echo_us, 0.99);
    j.serve_p50_us.push_back(p50 * kEchoP50Us / e50);
    j.serve_p99_us.push_back(p99 * kEchoP99Us / e99);
    j.closed.reload_ms.insert(j.closed.reload_ms.end(),
                              closed.reload_ms.begin(), closed.reload_ms.end());
    j.closed.reload_failures += closed.reload_failures;
  }
  j.serve_stats = server.stats();
  j.tally.add(tally);
  outcome.attempted += tally.requests;
  outcome.failed += tally.errors;
  outcome.check(tally.checked > 0 && tally.mismatches == 0,
                "served answers differ from CompiledNet::predict");
  outcome.check(j.closed.reload_failures == 0 && !j.closed.reload_ms.empty(),
                "reload() failed or never ran");
}

// ------------------------------------------------------------ layer probes
// Direct calls into single layers for the traced run. Each call (or each
// batch of identical calls) sits in its own span; the figures come from the
// spans' summed durations.

/// Load every artifact of a checkpoint tree through its load_* call, then
/// commit it again through write_artifact_file into `save_root`.
struct SerializeProbe {
  long bytes = 0;         ///< artifact bytes read
  bool identical = true;  ///< re-saved bytes equal the originals
};

SerializeProbe probe_serialize(const std::string& tree,
                               const std::string& save_root, Tracer* tracer) {
  SerializeProbe out;
  std::vector<fs::path> files;
  for (const auto& e : fs::recursive_directory_iterator(tree)) {
    if (e.is_regular_file() && e.path().filename() != "meta.txt") {
      files.push_back(e.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    const std::string name = path.filename().string();
    std::function<void(std::ostream&)> writer;
    std::string content;
    {
      const Span span(tracer, "probe.serialize.load");
      content = core::read_artifact_file(path.string());
      std::istringstream is(content);
      if (name == "train_raw.ds" || name == "test_raw.ds") {
        writer = [d = core::load_dataset(is)](std::ostream& os) {
          core::save_dataset(d, os);
        };
      } else if (name == "train.qds" || name == "test.qds") {
        writer = [d = core::load_quant_dataset(is)](std::ostream& os) {
          core::save_quant_dataset(d, os);
        };
      } else if (name == "float_net.txt") {
        writer = [n = core::load_float_mlp(is)](std::ostream& os) {
          core::save_float_mlp(n, os);
        };
      } else if (name == "baseline.txt") {
        writer = [b = core::load_baseline_pricing(is)](std::ostream& os) {
          core::save_baseline_pricing(b, os);
        };
      } else if (name == "ga_front.txt" || name == "refined_front.txt") {
        writer = [t = core::load_training_result(is)](std::ostream& os) {
          core::save_training_result(t, os);
        };
      } else if (name == "evaluated.txt") {
        writer = [v = core::load_evaluated_points(is)](std::ostream& os) {
          core::save_evaluated_points(v, os);
        };
      }
    }
    if (!writer) continue;
    out.bytes += static_cast<long>(content.size());
    const fs::path target = fs::path(save_root) / fs::relative(path, tree);
    fs::create_directories(target.parent_path());
    {
      const Span span(tracer, "probe.serialize.commit");
      core::write_artifact_file(target.string(), writer);
    }
    std::ifstream again(target, std::ios::binary);
    const std::string saved((std::istreambuf_iterator<char>(again)),
                            std::istreambuf_iterator<char>());
    out.identical = out.identical && saved == content;
  }
  return out;
}

/// Gate-level layers of the sign-off, one call at a time, over the LFSR
/// stimulus export_rtl uses.
struct NetlistProbe {
  long vectors = 0;
  long gates_built = 0;
  long gates = 0;
  bool agrees = true;  ///< gate-level sim == emitted eval == oracle
};

NetlistProbe probe_netlist(const std::vector<core::RtlPointSpec>& points,
                           const core::RtlExportOptions& opts, Tracer* tracer) {
  NetlistProbe out;
  core::EvalWorkspace ws;
  for (const auto& pt : points) {
    const core::CompiledNet oracle(pt.model);
    const int n_features = oracle.n_inputs();
    const auto codes = core::lfsr_stimulus(
        static_cast<std::size_t>(opts.random_vectors), n_features,
        pt.model.bits().input_bits, opts.lfsr_seed);
    const std::size_t n = codes.size() / static_cast<std::size_t>(n_features);
    std::vector<std::int32_t> expected(n);
    oracle.predict_batch(codes.data(), n, expected.data(), ws);

    const std::string name = netlist::sanitize_identifier(pt.name);
    std::optional<netlist::BespokeCircuit> circuit;
    {
      const Span span(tracer, "probe.netlist.build");
      circuit = netlist::build_bespoke_mlp(pt.model.to_bespoke_desc(name));
    }
    out.gates_built += static_cast<long>(circuit->nl.gates().size());
    {
      const Span span(tracer, "probe.netlist.optimize");
      circuit = netlist::optimize(std::move(*circuit));
    }
    out.gates += static_cast<long>(circuit->nl.gates().size());

    std::vector<int> gate_level(n);
    {
      const Span span(tracer, "probe.netlist.simulate");
      for (std::size_t v = 0; v < n; ++v) {
        gate_level[v] = circuit->predict(std::span(codes).subspan(
            v * static_cast<std::size_t>(n_features),
            static_cast<std::size_t>(n_features)));
      }
    }
    std::optional<netlist::EmittedModule> emitted;
    {
      const Span span(tracer, "probe.verilog.emit");
      emitted.emplace(circuit->nl, name);
      out.agrees = out.agrees && !emitted->text().empty();
    }
    const auto inputs = netlist::vectors_from_samples(
        circuit->input_buses, circuit->nl, codes, n_features);
    std::vector<int> emitted_class(n);
    {
      const Span span(tracer, "probe.verilog.eval");
      for (std::size_t v = 0; v < n; ++v) {
        const auto bits = emitted->eval(inputs[v]);
        int cls = 0;
        for (std::size_t b = 0; b < bits.size(); ++b) {
          if (bits[b]) cls |= 1 << b;
        }
        emitted_class[v] = cls;
      }
    }
    for (std::size_t v = 0; v < n; ++v) {
      out.agrees = out.agrees && gate_level[v] == expected[v] &&
                   emitted_class[v] == expected[v];
    }
    out.vectors += static_cast<long>(n);
  }
  return out;
}

void add(Outcome& o, const std::string& name, double value,
         const std::string& unit) {
  o.metrics.push_back({name, value, unit});
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ------------------------------------------------------------- run modes

void end_to_end(const Profile& p, const Inputs& in, const Options& opts,
                Outcome& outcome) {
  Journey j;
  double rss_mb = 0.0;
  const auto t0 = Clock::now();
  for (int k = 0; k < kMinRounds || seconds_since(t0) < opts.seconds; ++k) {
    run_round(p, in, opts.workdir, nullptr, outcome, j);
    // Later rounds repeat the same work; the allocator's reuse of freed
    // memory then makes the peak wander with the number of rounds.
    if (k == 0) rss_mb = peak_rss_mb();
  }
  add(outcome, "time_to_front_s", median(j.ttf_s), "s");
  add(outcome, "area_reduction", j.quality.area_reduction, "x");
  add(outcome, "power_reduction", j.quality.power_reduction, "x");
  add(outcome, "resume_s", median(j.resume_s), "s");
  add(outcome, "signoff_s", median(j.signoff_s), "s");
  add(outcome, "serve_qps", median(j.serve_qps), "1/s");
  add(outcome, "serve_p50_us", median(j.serve_p50_us), "us");
  add(outcome, "serve_p99_us", median(j.serve_p99_us), "us");
  add(outcome, "peak_rss_mb", rss_mb, "MB");
  std::printf("samples: %zu trainings, %zu resumes, %zu sign-offs, %zu serve "
              "window pairs; flows_without_pick %d\n",
              j.ttf_s.size(), j.resume_s.size(), j.signoff_s.size(),
              j.serve_qps.size(), j.quality.flows_without_pick);
}

void traced(const Profile& p, const Inputs& in, const Options& opts,
            Outcome& outcome, Tracer& tracer) {
  // Traced rounds fill the budget between two untraced trainings, which give
  // the reference time-to-front and results. Figures summed over the rounds
  // are reported per round; the single-layer probes run once, after them.
  std::vector<Training> plain;
  const auto train_plain = [&] {
    const std::string plain_dir = opts.workdir + "/plain";
    plain.push_back(train(p, in, plain_dir + "/tree", p.train_threads, nullptr,
                          "train", false));
    fs::remove_all(plain_dir);
    outcome.attempted +=
        static_cast<long>(plain.back().flows.size()) + plain.back().failed;
    outcome.failed += plain.back().failed;
  };
  train_plain();
  const std::string dir = opts.workdir + "/traced";
  Profile once = p;
  once.trainings = 1;
  Journey r;
  const auto t0 = Clock::now();
  do {
    run_round(once, in, dir, &tracer, outcome, r);
  } while (seconds_since(t0) < opts.seconds);
  const double rounds = static_cast<double>(r.ttf_s.size());
  train_plain();
  for (const auto& t : plain) {
    const auto qa = quality(t);
    outcome.check(qa.area_reduction == r.quality.area_reduction &&
                      qa.power_reduction == r.quality.power_reduction &&
                      fingerprint(t) == r.fingerprint,
                  "reductions differ between the untraced and traced runs");
  }

  const auto& flows = r.training.flows;
  const auto& served_out = served_flow(r.training);
  const auto& served = served_out.result;
  const auto& train_set = served.baseline.train;
  core::EvalWorkspace ws;

  // Single-layer probes; their figures come from the spans below.
  constexpr int kCompiles = 200;
  constexpr int kPredicts = 20;
  for (const auto& pt : served.front) {
    {
      const Span span(&tracer, "probe.eval.compile");
      for (int i = 0; i < kCompiles; ++i) {
        const core::CompiledNet net(pt.model);
        outcome.check(net.n_inputs() == train_set.n_features,
                      "CompiledNet input width differs from the dataset");
      }
    }
    const core::CompiledNet net(pt.model);
    const Span span(&tracer, "probe.eval.predict_batch");
    for (int i = 0; i < kPredicts; ++i) {
      outcome.check(net.predict_batch(train_set, ws).size() == train_set.size(),
                    "predict_batch returned the wrong number of classes");
    }
  }

  // nsga2: sort + crowding of a merged (2 x population) population.
  constexpr int kSorts = 200;
  std::mt19937_64 rng(in.request_seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<nsga2::Individual> pop(static_cast<std::size_t>(2 * p.population));
  for (int i = 0; i < kSorts; ++i) {
    for (auto& ind : pop) ind.objectives = {u(rng), u(rng)};
    const Span span(&tracer, "probe.nsga2.sort");
    nsga2::fast_non_dominated_sort(pop);
    nsga2::assign_crowding_distances(pop);
  }

  // The served flow's GA, serial and on an nproc/2 pool, from the same seed:
  // the intra-flow parallel path that the campaign's flows (forced to one
  // thread) and the serving workload's flow do not take.
  auto ga_cfg = flow_config(p, 1).trainer;
  core::TrainingResult ga_runs[2];
  for (int k = 0; k < 2; ++k) {
    ga_cfg.n_threads = k == 0 ? 1 : std::max(1, hardware_threads() / 2);
    const Span span(&tracer, k == 0 ? "probe.ga.serial" : "probe.ga.pooled");
    ga_runs[k] = core::train_ga_axc(served_out.topology, train_set,
                                    served.baseline.baseline, ga_cfg);
  }
  const auto front_text = [](const core::TrainingResult& t) {
    std::string text = std::to_string(t.evaluations);
    for (const auto& pt : t.estimated_pareto) text += core::to_text(pt.model);
    return text;
  };
  outcome.check(front_text(ga_runs[0]) == front_text(ga_runs[1]),
                "serial and pooled GA runs differ");

  long commits = 0;
  const long tree_bytes = directory_bytes(r.tree, &commits);
  const auto ser = probe_serialize(r.tree, dir + "/resaved", &tracer);
  outcome.check(ser.identical, "re-saved artifacts differ from the checkpoint");

  core::RtlExportOptions rtl_opts;
  rtl_opts.random_vectors = p.signoff_vectors;
  rtl_opts.lfsr_seed = in.lfsr_seed;
  const auto nl = probe_netlist(r.points, rtl_opts, &tracer);
  outcome.check(nl.agrees, "gate-level layers disagree with the oracle");

  // The request mix straight through predict_batch, one request per call,
  // against the model the server resolves for each selector.
  constexpr int kPasses = 20;
  {
    const Oracle oracle(served.front);
    core::FrontServer server(dir + "/front", {1, 64, 0});
    std::map<std::string, const core::CompiledNet*> resolved;
    for (const auto& req : r.mix) {
      if (resolved.count(req.selector) != 0) continue;
      const auto reply = server.classify(req.selector, req.codes);
      resolved[req.selector] = &oracle.nets.at(reply.file);
    }
    std::int32_t pred = 0;
    const Span span(&tracer, "probe.serve.predict_batch");
    for (int pass = 0; pass < kPasses; ++pass) {
      for (const auto& req : r.mix) {
        resolved[req.selector]->predict_batch(req.codes.data(), 1, &pred, ws);
      }
    }
  }

  const auto layers = tracer.layers();
  const auto span_s = [&](const std::string& n) {
    const auto it = layers.find(n);
    return it == layers.end() ? 0.0 : it->second.seconds;
  };

  // mlp
  double bp_samples = 0.0;
  double bp_wall = 0.0;
  for (const auto& f : flows) {
    bp_samples += f.result.backprop.samples_per_second *
                  f.result.backprop.wall_seconds;
    bp_wall += f.result.backprop.wall_seconds;
  }
  add(outcome, "backprop.busy_s", span_s("stage.backprop") / rounds, "s");
  add(outcome, "backprop.samples_per_s", ratio(bp_samples, bp_wall), "1/s");

  // core/eval_engine, nsga2
  long evals = 0;
  double hits = 0.0;
  double lookups = 0.0;
  for (const auto& f : flows) {
    const auto& t = f.result.training;
    evals += t.evaluations;
    hits += static_cast<double>(t.cache_hits);
    lookups += t.cache_hit_rate > 0.0
                   ? static_cast<double>(t.cache_hits) / t.cache_hit_rate
                   : static_cast<double>(t.evaluations);
  }
  const double ga_busy = span_s("stage.ga") / rounds;
  const double front_points = static_cast<double>(served.front.size());
  add(outcome, "ga.busy_s", ga_busy, "s");
  add(outcome, "ga.evals", static_cast<double>(evals), "count");
  add(outcome, "ga.evals_per_s", ratio(static_cast<double>(evals), ga_busy),
      "1/s");
  add(outcome, "ga.cache_hit_rate", ratio(hits, lookups), "ratio");
  add(outcome, "eval.compile_us",
      span_s("probe.eval.compile") * 1e6 / (kCompiles * front_points), "us");
  add(outcome, "eval.predict_samples_per_s",
      ratio(kPredicts * front_points * static_cast<double>(train_set.size()),
            span_s("probe.eval.predict_batch")),
      "1/s");
  add(outcome, "nsga2.sort_us", span_s("probe.nsga2.sort") * 1e6 / kSorts, "us");
  add(outcome, "ga.parallel_speedup",
      ratio(span_s("probe.ga.serial"), span_s("probe.ga.pooled")), "x");

  // core/refine_engine, core/hardware_analysis
  long trials = 0;
  long aborts = 0;
  long candidates = 0;
  for (const auto& f : flows) {
    trials += f.result.refine.trials;
    aborts += f.result.refine.early_aborts;
    candidates += static_cast<long>(f.result.evaluated.size());
  }
  add(outcome, "refine.busy_s", span_s("stage.refine") / rounds, "s");
  add(outcome, "refine.trials", static_cast<double>(trials), "count");
  add(outcome, "refine.early_abort_rate",
      ratio(static_cast<double>(aborts), static_cast<double>(trials)), "ratio");
  add(outcome, "hardware.busy_s", span_s("stage.hardware") / rounds, "s");
  add(outcome, "hardware.candidates", static_cast<double>(candidates), "count");

  // core/campaign + thread_pool: the stage scheduler of the training run.
  const double capacity = r.training.wall_s * r.training.lanes;
  add(outcome, "campaign.stage_busy_s", r.training.stage_busy_s, "s");
  add(outcome, "campaign.idle_s", capacity - r.training.stage_busy_s, "s");
  add(outcome, "campaign.pool_utilization",
      ratio(r.training.stage_busy_s, capacity), "ratio");
  add(outcome, "campaign.critical_path_s", r.training.critical_path_s, "s");

  // core/serialize
  add(outcome, "checkpoint.commits", static_cast<double>(commits), "count");
  add(outcome, "checkpoint.bytes", static_cast<double>(tree_bytes), "B");
  add(outcome, "checkpoint.commit_s", span_s("probe.serialize.commit"), "s");
  add(outcome, "resume.bytes_read", static_cast<double>(ser.bytes), "B");
  add(outcome, "resume.load_s", span_s("probe.serialize.load"), "s");

  // netlist / verilog / core/rtl_export
  const double vectors = static_cast<double>(nl.vectors);
  add(outcome, "netlist.build_s", span_s("probe.netlist.build"), "s");
  add(outcome, "netlist.optimize_s", span_s("probe.netlist.optimize"), "s");
  add(outcome, "netlist.gates", static_cast<double>(nl.gates), "count");
  add(outcome, "netlist.gates_removed_frac",
      ratio(static_cast<double>(nl.gates_built - nl.gates),
            static_cast<double>(nl.gates_built)),
      "ratio");
  add(outcome, "netlist.sim_vectors_per_s",
      ratio(vectors, span_s("probe.netlist.simulate")), "1/s");
  add(outcome, "verilog.emit_s", span_s("probe.verilog.emit"), "s");
  add(outcome, "verilog.eval_vectors_per_s",
      ratio(vectors, span_s("probe.verilog.eval")), "1/s");
  add(outcome, "rtl.bytes_written", static_cast<double>(r.last_signoff.bytes),
      "B");

  // core/serve
  const auto& st = r.serve_stats;
  add(outcome, "serve.requests", static_cast<double>(st.requests), "count");
  add(outcome, "serve.batches", static_cast<double>(st.batches), "count");
  add(outcome, "serve.batch_fill", st.batch_fill() / core::ServeConfig{}.max_batch,
      "ratio");
  add(outcome, "serve.err_replies", static_cast<double>(r.tally.errors) / rounds,
      "count");
  add(outcome, "serve.reloads", static_cast<double>(st.reloads), "count");
  add(outcome, "serve.reload_ms", median(r.closed.reload_ms), "ms");
  add(outcome, "serve.predict_us_per_req",
      span_s("probe.serve.predict_batch") * 1e6 /
          (kPasses * static_cast<double>(r.mix.size())),
      "us");

  add(outcome, "trace.overhead_s",
      median(r.ttf_s) - median({plain[0].scaled_s, plain[1].scaled_s}), "s");
  add(outcome, "quality.flows_without_pick",
      static_cast<double>(r.quality.flows_without_pick), "count");
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "campaign-suite", "pendigits-flow", "serve-reload"};
  return names;
}

Outcome run_workload(const Options& opts) {
  const Profile p = make_profile(opts.workload);
  Outcome outcome;

  // Set-up: generate the inputs. A sample is the CPU time of a batch of
  // `setup_batch` generations, sized past 100 ms, at the reference's speed
  // and divided by the batch; the median sample is reported.
  constexpr int kSetupSamples = 9;
  std::vector<double> setups;
  Inputs in;
  fs::create_directories(opts.workdir);
  {
    const OneCpu pin;
    for (int i = 0; i < kSetupSamples; ++i) {
      const Bracket ref(1);
      const Stopwatch watch;
      for (int b = 0; b < p.setup_batch; ++b) in = make_inputs(p, opts.seed);
      setups.push_back(ref.scale(watch.cpu_s()) / p.setup_batch);
    }
  }

  if (!opts.trace) {
    add(outcome, "setup_s", median(setups), "s");
    end_to_end(p, in, opts, outcome);
  } else {
    Tracer tracer(true);
    traced(p, in, opts, outcome, tracer);
    if (!opts.trace_file.empty()) tracer.write_chrome_json(opts.trace_file);
  }
  return outcome;
}

}  // namespace perfbench
