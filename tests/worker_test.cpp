// Failure-matrix tests for the distributed campaign workers (worker.hpp):
// claim races (exactly one winner), cooperative multi-worker drains that
// stay bit-identical to independent flows, upstream sharing through the
// tree (a drained tree equals an in-process one file for file), stale-lease
// takeover (foreign stall and same-host dead pid), corrupt-artifact
// quarantine + recompute, terminal failure marking, config validation, and
// the kill-at-every-stage-boundary sweep against the real CLI binary with
// fault injection.
//
// The in-process tests drive CampaignWorker / lease::* directly on a tiny
// synthetic grid; the subprocess tests spawn the binary CMake passes in as
// PMLP_CLI_PATH with PMLP_FAULT_* environment overrides (fault_injection.hpp).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "flow_test_util.hpp"
#include "pmlp/core/campaign.hpp"
#include "pmlp/core/serialize.hpp"
#include "pmlp/core/worker.hpp"
#include "pmlp/datasets/synthetic.hpp"

namespace core = pmlp::core;
namespace ds = pmlp::datasets;
namespace fs = std::filesystem;
using pmlp::test::expect_same_result;

namespace {

struct TempDir : pmlp::test::TempDir {
  explicit TempDir(const char* tag)
      : pmlp::test::TempDir("pmlp_worker_test", tag) {
    fs::create_directories(path);
  }
};

core::FlowConfig small_cfg(std::uint64_t seed) {
  core::FlowConfig cfg;
  cfg.backprop.epochs = 30;
  cfg.backprop.seed = 61;
  cfg.trainer.ga.population = 16;
  cfg.trainer.ga.generations = 6;
  cfg.trainer.ga.seed = seed;
  cfg.hardware.equivalence_samples = 8;
  return cfg;
}

ds::Dataset bc_data() {
  auto spec = ds::breast_cancer_spec();
  spec.n_samples = 160;
  return ds::generate(spec);
}

pmlp::mlp::Topology bc_topo() { return pmlp::mlp::Topology{{10, 3, 2}}; }

/// Two seeds of one tiny dataset — enough flows to observe claim rotation
/// and failure isolation without slowing the suite down.
std::vector<core::CampaignFlowSpec> grid() {
  std::vector<core::CampaignFlowSpec> specs(2);
  specs[0] = {"bc_s1", "BreastCancer", bc_data(), bc_topo(), small_cfg(1)};
  specs[1] = {"bc_s2", "BreastCancer", bc_data(), bc_topo(), small_cfg(2)};
  return specs;
}

core::CampaignManifest grid_manifest() {
  core::CampaignManifest m;
  m.population = 16;
  m.generations = 6;
  m.flows = {{"bc_s1", "BreastCancer", 1}, {"bc_s2", "BreastCancer", 2}};
  return m;
}

core::WorkerConfig worker_cfg(const TempDir& dir, const std::string& id) {
  core::WorkerConfig cfg;
  cfg.checkpoint_root = dir.path.string();
  cfg.worker_id = id;
  cfg.heartbeat_s = 0.05;
  cfg.backoff_initial_s = 0.01;
  cfg.backoff_max_s = 0.05;
  return cfg;
}

/// Pure-reload pass over a drained tree: a single-threaded CampaignRunner
/// reusing every stage, producing the canonical per-flow results.
core::CampaignResult reload_tree(const TempDir& dir) {
  core::CampaignConfig cfg;
  cfg.n_threads = 1;
  cfg.checkpoint_root = dir.path.string();
  core::CampaignRunner runner(cfg);
  for (auto& spec : grid()) runner.add_flow(std::move(spec));
  return runner.run();
}

void expect_matches_independent_flows(const core::CampaignResult& result) {
  auto specs = grid();
  ASSERT_EQ(result.flows.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_EQ(result.flows[i].status, core::CampaignFlowStatus::kDone)
        << result.flows[i].name << ": " << result.flows[i].error;
    ASSERT_TRUE(result.flows[i].result.has_value());
    const auto ref =
        core::run_flow(specs[i].data, specs[i].topology, specs[i].config);
    expect_same_result(*result.flows[i].result, ref);
  }
}

/// Stages computed (not reloaded or adopted) over the whole run.
int stages_computed(const core::CampaignResult& result) {
  int n = 0;
  for (const auto& roll : result.stages) n += roll.executed - roll.reused;
  return n;
}

const core::CampaignStageRollup& backprop_rollup(
    const core::CampaignResult& result) {
  return result.stages[static_cast<int>(core::FlowStage::kBackprop)];
}

/// No flow of the grid has a failure recorded in the tree.
void expect_no_failures(const TempDir& dir) {
  for (const char* flow : {"bc_s1", "bc_s2"}) {
    EXPECT_FALSE(fs::exists(dir.path / flow / "failures.txt")) << flow;
  }
}

/// Artifact text minus the wall-clock counters line (training results
/// record wall_seconds/evals_per_second) and the crc footer that hashes it
/// — everything semantically meaningful, byte for byte.
std::string read_deterministic_lines(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  std::string line, out;
  while (std::getline(is, line)) {
    if (line.rfind("counters ", 0) == 0 || line.rfind("# crc32 ", 0) == 0) {
      continue;
    }
    out += line;
    out += '\n';
  }
  return out;
}

void write_raw(const fs::path& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << text;
}

std::string forged_claim(const std::string& worker, const std::string& host,
                         long pid) {
  std::ostringstream os;
  os << "pmlp-claim v1\nworker " << worker << "\nhost " << host << "\npid "
     << pid << "\nend\n";
  return os.str();
}

std::string local_host() {
  char buf[256] = {0};
  ::gethostname(buf, sizeof buf - 1);
  return buf[0] ? buf : "localhost";
}

/// A pid guaranteed dead on this host: fork a child that exits immediately
/// and reap it. (Pid reuse within the test's lifetime is implausible.)
long dead_pid() {
  const pid_t pid = ::fork();
  if (pid == 0) ::_exit(0);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return pid;
}

}  // namespace

// ------------------------------------------------------------------ leases

TEST(Lease, ClaimRaceExactlyOneWins) {
  TempDir dir("claim_race");
  const std::string flow = (dir.path / "f").string();
  fs::create_directories(flow);
  EXPECT_TRUE(core::lease::try_claim(flow, "alice"));
  EXPECT_FALSE(core::lease::try_claim(flow, "bob"));  // filesystem arbitrates
  const auto claim = core::lease::read_claim(flow);
  ASSERT_TRUE(claim.has_value());
  EXPECT_EQ(claim->worker, "alice");
  EXPECT_EQ(claim->host, local_host());
  EXPECT_EQ(claim->pid, static_cast<long>(::getpid()));

  // Release by a non-owner is a no-op; by the owner it frees the lock.
  core::lease::release_claim(flow, "bob");
  EXPECT_TRUE(core::lease::read_claim(flow).has_value());
  core::lease::release_claim(flow, "alice");
  EXPECT_FALSE(core::lease::read_claim(flow).has_value());
  EXPECT_TRUE(core::lease::try_claim(flow, "bob"));
}

TEST(Lease, ManyRacersExactlyOneWins) {
  TempDir dir("many_racers");
  const std::string flow = (dir.path / "f").string();
  fs::create_directories(flow);
  std::array<int, 8> won{};
  std::vector<std::thread> racers;
  for (int t = 0; t < 8; ++t) {
    racers.emplace_back([&, t] {
      won[static_cast<std::size_t>(t)] =
          core::lease::try_claim(flow, "w" + std::to_string(t)) ? 1 : 0;
    });
  }
  for (auto& th : racers) th.join();
  int winners = 0;
  for (int w : won) winners += w;
  EXPECT_EQ(winners, 1);
}

TEST(Lease, StealIsAtomicAmongThieves) {
  TempDir dir("steal");
  const std::string flow = (dir.path / "f").string();
  fs::create_directories(flow);
  write_raw(fs::path(flow) / "claim.lock", forged_claim("ghost", "gone", 1));
  core::lease::write_beat(flow, "ghost", 1);
  // Exactly one thief wins the rename; the loser sees the lock gone.
  EXPECT_TRUE(core::lease::steal_claim(flow, "thief1"));
  EXPECT_FALSE(core::lease::steal_claim(flow, "thief2"));
  EXPECT_FALSE(core::lease::read_claim(flow).has_value());
  EXPECT_EQ(core::lease::read_beat_raw(flow), "");  // beat went with it
  EXPECT_TRUE(core::lease::try_claim(flow, "thief1"));
}

TEST(Lease, DeadLocalOwnerDetected) {
  core::lease::ClaimInfo claim;
  claim.worker = "ghost";
  claim.host = local_host();
  claim.pid = dead_pid();
  EXPECT_TRUE(core::lease::claim_owner_dead_locally(claim));
  claim.pid = ::getpid();  // we are demonstrably alive
  EXPECT_FALSE(core::lease::claim_owner_dead_locally(claim));
  claim.host = "some-other-host";  // no cross-host pid judgment
  claim.pid = dead_pid();
  EXPECT_FALSE(core::lease::claim_owner_dead_locally(claim));
}

// ---------------------------------------------------------------- manifest

TEST(Manifest, RoundTripAndRejects) {
  TempDir dir("manifest");
  const auto m = grid_manifest();
  core::save_campaign_manifest(m, dir.path.string());
  const auto r = core::load_campaign_manifest(dir.path.string());
  EXPECT_EQ(r.population, m.population);
  EXPECT_EQ(r.generations, m.generations);
  EXPECT_EQ(r.ga_checkpoint, m.ga_checkpoint);
  ASSERT_EQ(r.flows.size(), m.flows.size());
  for (std::size_t i = 0; i < m.flows.size(); ++i) {
    EXPECT_EQ(r.flows[i].name, m.flows[i].name);
    EXPECT_EQ(r.flows[i].dataset, m.flows[i].dataset);
    EXPECT_EQ(r.flows[i].seed, m.flows[i].seed);
  }

  TempDir empty("manifest_missing");
  EXPECT_THROW((void)core::load_campaign_manifest(empty.path.string()),
               std::runtime_error);
  write_raw(empty.path / "campaign.txt", "pmlp-campaign v9\nend\n");
  EXPECT_THROW((void)core::load_campaign_manifest(empty.path.string()),
               std::invalid_argument);
  write_raw(empty.path / "campaign.txt",
            "pmlp-campaign v1\npopulation 8\ngenerations 2\nga_checkpoint 0\n"
            "flows 2\nflow a X 1\nflow a X 2\nend\n");
  EXPECT_THROW((void)core::load_campaign_manifest(empty.path.string()),
               std::invalid_argument);  // duplicate flow name
}

// ------------------------------------------------------------------ worker

TEST(Worker, DrainsGridBitIdenticalToIndependentFlows) {
  TempDir dir("drain");
  core::save_campaign_manifest(grid_manifest(), dir.path.string());
  core::CampaignWorker worker(grid(), worker_cfg(dir, "solo"));
  const auto result = worker.run();
  EXPECT_EQ(result.worker_id, "solo");
  EXPECT_EQ(result.completed, 2);
  EXPECT_EQ(result.failed, 0);
  EXPECT_EQ(result.leases_stolen, 0);
  expect_no_failures(dir);
  // 6 checkpointed stages + the derived select stage, per flow, less the
  // split, backprop and baseline that bc_s2 adopts from bc_s1's directory.
  EXPECT_EQ(stages_computed(result), 2 * 7 - 3);
  EXPECT_EQ(backprop_rollup(result).executed, 2);
  EXPECT_EQ(backprop_rollup(result).reused, 1);
  EXPECT_TRUE(fs::exists(dir.path / "bc_s1" / "done.txt"));
  EXPECT_TRUE(fs::exists(dir.path / "bc_s2" / "done.txt"));
  EXPECT_FALSE(fs::exists(dir.path / "bc_s1" / "claim.lock"));

  expect_matches_independent_flows(reload_tree(dir));

  const auto status = core::read_campaign_status(dir.path.string());
  EXPECT_EQ(status.done, 2);
  EXPECT_EQ(status.failed, 0);
  EXPECT_EQ(status.claimed, 0);
  for (const auto& row : status.flows) {
    EXPECT_EQ(row.stages_done, row.stages_total) << row.name;
    EXPECT_EQ(row.next_stage, "-") << row.name;
    EXPECT_TRUE(row.done) << row.name;
  }
}

TEST(Worker, DrainedTreeReturnsWithoutWaitingOutHeartbeat) {
  TempDir dir("drained");
  core::save_campaign_manifest(grid_manifest(), dir.path.string());
  for (const char* flow : {"bc_s1", "bc_s2"}) {
    fs::create_directories(dir.path / flow);
    core::write_done_marker((dir.path / flow).string(), "earlier");
  }
  auto cfg = worker_cfg(dir, "late");
  cfg.heartbeat_s = 5.0;
  core::CampaignWorker worker(grid(), cfg);
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = worker.run();
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(result.claims, 0);
  EXPECT_EQ(result.completed, 2);  // as the tree reports them
  // run() finds nothing to do and stops the heartbeat thread at once, most
  // likely before that thread first waits: the stop request must not be
  // lost for a whole heartbeat period.
  EXPECT_LT(wall.count(), 1.0);
}

TEST(Worker, TwoConcurrentWorkersCooperate) {
  TempDir dir("pair");
  core::save_campaign_manifest(grid_manifest(), dir.path.string());
  core::CampaignWorker a(grid(), worker_cfg(dir, "worker-a"));
  core::CampaignWorker b(grid(), worker_cfg(dir, "worker-b"));
  core::CampaignResult ra, rb;
  std::thread ta([&] { ra = a.run(); });
  std::thread tb([&] { rb = b.run(); });
  ta.join();
  tb.join();
  // Both return only when the whole tree is terminal, and each reports it
  // so; each flow was completed exactly once — by whichever worker holds
  // its result — no matter how the claims interleaved.
  EXPECT_EQ(ra.completed, 2);
  EXPECT_EQ(rb.completed, 2);
  int results = 0;
  for (const auto* r : {&ra, &rb}) {
    for (const auto& f : r->flows) results += f.result.has_value() ? 1 : 0;
  }
  EXPECT_EQ(results, 2);
  EXPECT_EQ(ra.failed + rb.failed, 0);
  expect_no_failures(dir);
  expect_matches_independent_flows(reload_tree(dir));
}

TEST(Worker, StaleForeignLeaseStolenAfterTimeout) {
  TempDir dir("stale");
  core::save_campaign_manifest(grid_manifest(), dir.path.string());
  // Forge a claim by a worker on another host that will never beat again —
  // the frozen (claim, beat) snapshot must age out on OUR clock and be
  // stolen, with no cross-host pid or clock judgment involved.
  fs::create_directories(dir.path / "bc_s1");
  write_raw(dir.path / "bc_s1" / "claim.lock",
            forged_claim("ghost", "some-other-host", 12345));
  core::lease::write_beat((dir.path / "bc_s1").string(), "ghost", 7);
  auto cfg = worker_cfg(dir, "survivor");
  cfg.lease_timeout_s = 0.2;
  core::CampaignWorker worker(grid(), cfg);
  const auto result = worker.run();
  EXPECT_GE(result.leases_stolen, 1);
  EXPECT_EQ(result.completed, 2);
  expect_matches_independent_flows(reload_tree(dir));
}

TEST(Worker, DeadLocalOwnerReclaimedWithoutTimeout) {
  TempDir dir("deadpid");
  core::save_campaign_manifest(grid_manifest(), dir.path.string());
  fs::create_directories(dir.path / "bc_s1");
  write_raw(dir.path / "bc_s1" / "claim.lock",
            forged_claim("casualty", local_host(), dead_pid()));
  // Lease timeout far beyond the test budget: only the same-host dead-pid
  // fast path can reclaim this lease in time.
  auto cfg = worker_cfg(dir, "survivor");
  cfg.lease_timeout_s = 3600.0;
  core::CampaignWorker worker(grid(), cfg);
  const auto result = worker.run();
  EXPECT_GE(result.leases_stolen, 1);
  EXPECT_EQ(result.completed, 2);
  expect_matches_independent_flows(reload_tree(dir));
}

TEST(Worker, TruncatedArtifactQuarantinedAndRecomputed) {
  TempDir dir("truncated");
  core::save_campaign_manifest(grid_manifest(), dir.path.string());
  {
    core::CampaignWorker worker(grid(), worker_cfg(dir, "first"));
    (void)worker.run();
  }
  // Bit-flip-by-truncation on a mid-pipeline artifact, then reopen the
  // flow (drop its terminal marker): the checksum footer must catch the
  // damage, quarantine the file and recompute it bit-identically.
  const fs::path victim = dir.path / "bc_s1" / "baseline.txt";
  const auto full = fs::file_size(victim);
  fs::resize_file(victim, full / 2);
  fs::remove(dir.path / "bc_s1" / "done.txt");
  core::CampaignWorker worker(grid(), worker_cfg(dir, "second"));
  const auto result = worker.run();
  EXPECT_EQ(result.failed, 0);
  expect_no_failures(dir);
  EXPECT_TRUE(fs::exists(dir.path / "bc_s1" / "baseline.txt.corrupt-0"));
  EXPECT_EQ(fs::file_size(victim), full);  // recomputed, same bytes
  expect_matches_independent_flows(reload_tree(dir));
}

TEST(Worker, PoisonedFlowMarkedFailedRestDrains) {
  TempDir dir("poison");
  core::save_campaign_manifest(grid_manifest(), dir.path.string());
  // Unrecoverable damage: meta.txt carries the config fingerprint, so a
  // wrong version is fatal by design (never silently recomputed).
  fs::create_directories(dir.path / "bc_s1");
  write_raw(dir.path / "bc_s1" / "meta.txt", "pmlp-flow-meta v9\nend\n");
  auto cfg = worker_cfg(dir, "lone");
  cfg.max_failures = 2;
  core::CampaignWorker worker(grid(), cfg);
  // bc_s2 follows bc_s1: it may not start before its leader is marked
  // failed, and then computes its own upstream.
  bool leader_failed_first = false;
  worker.set_progress([&](const core::CampaignProgress& p) {
    if (p.flow_name == "bc_s2" && p.stage.stage == core::FlowStage::kSplit) {
      leader_failed_first = fs::exists(dir.path / "bc_s1" / "failed.txt");
    }
  });
  const auto result = worker.run();  // must return, not wedge
  EXPECT_EQ(result.failed, 1);
  EXPECT_EQ(result.completed, 1);
  EXPECT_TRUE(fs::exists(dir.path / "bc_s1" / "failed.txt"));
  EXPECT_TRUE(fs::exists(dir.path / "bc_s2" / "done.txt"));
  EXPECT_TRUE(leader_failed_first);
  EXPECT_EQ(backprop_rollup(result).executed, 1);
  EXPECT_EQ(backprop_rollup(result).reused, 0);
  EXPECT_TRUE(fs::exists(dir.path / "bc_s2" / "float_net.txt"));
  ASSERT_EQ(result.flows.size(), 2u);
  EXPECT_EQ(result.flows[0].status, core::CampaignFlowStatus::kFailed);
  EXPECT_NE(result.flows[0].error.find("meta"), std::string::npos)
      << result.flows[0].error;

  const auto status = core::read_campaign_status(dir.path.string());
  EXPECT_EQ(status.failed, 1);
  EXPECT_EQ(status.done, 1);
  ASSERT_EQ(status.flows.size(), 2u);
  EXPECT_TRUE(status.flows[0].failed);
  EXPECT_EQ(status.flows[0].failures, 2);
  EXPECT_NE(status.flows[0].error.find("meta"), std::string::npos)
      << status.flows[0].error;
}

TEST(Worker, DrainedTreeEqualsInProcessTree) {
  // The same grid drained by one worker and run by a CampaignRunner: the
  // trees hold the same files with the same bytes, but for the run-time
  // counters of the GA's training artifacts (and their crc footers) and
  // the worker id in done.txt.
  TempDir dir("trees");
  const fs::path worker_root = dir.path / "worker";
  const fs::path runner_root = dir.path / "runner";
  core::save_campaign_manifest(grid_manifest(), worker_root.string());
  core::save_campaign_manifest(grid_manifest(), runner_root.string());
  auto wcfg = worker_cfg(dir, "solo");
  wcfg.checkpoint_root = worker_root.string();
  core::CampaignWorker worker(grid(), wcfg);
  ASSERT_TRUE(worker.run().all_ok());
  core::CampaignConfig rcfg;
  rcfg.n_threads = 2;
  rcfg.checkpoint_root = runner_root.string();
  core::CampaignRunner runner(rcfg);
  for (auto& spec : grid()) runner.add_flow(std::move(spec));
  ASSERT_TRUE(runner.run().all_ok());

  const auto files = [](const fs::path& root) {
    std::vector<std::string> out;
    for (const auto& e : fs::recursive_directory_iterator(root)) {
      if (e.is_regular_file()) {
        out.push_back(fs::relative(e.path(), root).string());
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto names = files(worker_root);
  ASSERT_EQ(names, files(runner_root));
  for (const auto& name : names) {
    const fs::path a = worker_root / name;
    const fs::path b = runner_root / name;
    const std::string file = a.filename().string();
    if (file == "ga_front.txt" || file == "refined_front.txt") {
      EXPECT_EQ(read_deterministic_lines(a), read_deterministic_lines(b))
          << name;
    } else if (file == "done.txt") {
      EXPECT_NE(read_deterministic_lines(a).find("worker solo\n"),
                std::string::npos);
      EXPECT_NE(read_deterministic_lines(b).find("worker -\n"),
                std::string::npos);
    } else {
      std::ifstream ia(a, std::ios::binary), ib(b, std::ios::binary);
      std::ostringstream sa, sb;
      sa << ia.rdbuf();
      sb << ib.rdbuf();
      EXPECT_EQ(sa.str(), sb.str()) << name;
    }
  }
}

TEST(Worker, RejectsTimingsThatBreakTheLeaseProtocol) {
  TempDir dir("bad_cfg");
  const auto rejected = [&](double lease_timeout_s, double heartbeat_s,
                            int max_failures, double backoff_initial_s) {
    auto cfg = worker_cfg(dir, "w");
    cfg.lease_timeout_s = lease_timeout_s;
    cfg.heartbeat_s = heartbeat_s;
    cfg.max_failures = max_failures;
    cfg.backoff_initial_s = backoff_initial_s;
    try {
      core::CampaignWorker worker(grid(), cfg);
    } catch (const std::invalid_argument&) {
      return true;
    }
    return false;
  };
  // A heartbeat slower than half the timeout lets live leases be stolen.
  EXPECT_TRUE(rejected(10.0, 20.0, 3, 0.05));
  EXPECT_TRUE(rejected(10.0, 5.01, 3, 0.05));
  EXPECT_FALSE(rejected(10.0, 5.0, 3, 0.05));
  EXPECT_TRUE(rejected(10.0, 1.0, 0, 0.05));
  // A zero backoff never grows: an idle worker would busy-poll the tree.
  EXPECT_TRUE(rejected(10.0, 1.0, 3, 0.0));
  EXPECT_TRUE(rejected(10.0, 1.0, 3, -1.0));
}

TEST(Status, JsonCarriesTheGrid) {
  TempDir dir("status_json");
  core::save_campaign_manifest(grid_manifest(), dir.path.string());
  const auto status = core::read_campaign_status(dir.path.string());
  EXPECT_EQ(status.done, 0);
  std::ostringstream os;
  core::write_campaign_status_json(status, os);
  const std::string json = os.str();
  for (const char* needle :
       {"\"campaign\"", "\"flows\"", "\"bc_s1\"", "\"bc_s2\"",
        "\"next_stage\":\"split\"", "\"stages_total\":6"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle << "\n" << json;
  }
}

TEST(Status, TableKeepsColumnsApart) {
  TempDir dir("status_table");
  core::save_campaign_manifest(grid_manifest(), dir.path.string());
  const auto status = core::read_campaign_status(dir.path.string());
  std::ostringstream os;
  core::write_campaign_status_table(status, os);
  std::istringstream lines(os.str());
  std::string line;
  std::getline(lines, line);  // summary
  std::getline(lines, line);
  EXPECT_EQ(line,
            "  flow                 stages  next      state     owner"
            "                      beat-age  fails");
  int rows = 0;
  while (std::getline(lines, line)) {
    ++rows;
    // `unclaimed` fills the state column; the owner `-` still stands apart.
    const auto at = line.find("unclaimed");
    ASSERT_NE(at, std::string::npos) << line;
    const auto owner = line.find_first_not_of(' ', at + 9);
    ASSERT_NE(owner, std::string::npos) << line;
    EXPECT_GT(owner, at + 9) << line;
    EXPECT_EQ(line[owner], '-') << line;
    // `next` starts under its header.
    EXPECT_EQ(line.find("split"),
              std::string("  flow                 stages  ").size())
        << line;
  }
  EXPECT_EQ(rows, 2);
}

// --------------------------------------------------- CLI + fault injection

#ifdef PMLP_CLI_PATH

namespace {

struct CliResult {
  int status = -1;
  std::string out;
};

/// Run the real binary through /bin/sh (env-var prefixes work) capturing
/// stdout+stderr and the exit code.
CliResult run_cli(const std::string& cmdline) {
  const std::string cmd = cmdline + " 2>&1";
  CliResult r;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  std::array<char, 4096> buf;
  std::size_t n = 0;
  while ((n = std::fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    r.out.append(buf.data(), n);
  }
  const int rc = ::pclose(pipe);
  if (WIFEXITED(rc)) r.status = WEXITSTATUS(rc);
  return r;
}

const char* kCliGrid = " --datasets BreastCancer --seeds 1 campaign 8 4";

/// Coordinator run producing a reference tree, then stripped to a
/// manifest-only tree at `target` for workers to drain from scratch.
void make_manifest_only_tree(const fs::path& reference, const fs::path& target) {
  const auto r = run_cli(std::string(PMLP_CLI_PATH) + " --checkpoint " +
                         reference.string() + kCliGrid);
  ASSERT_EQ(r.status, 0) << r.out;
  fs::create_directories(target);
  fs::copy_file(reference / "campaign.txt", target / "campaign.txt",
                fs::copy_options::overwrite_existing);
}

/// The six checkpointed artifacts must be byte-identical between trees
/// (modulo recorded wall-clock) — the strongest form of "no grid progress
/// lost".
void expect_identical_artifacts(const fs::path& a, const fs::path& b) {
  for (const char* name :
       {"train_raw.ds", "test_raw.ds", "train.qds", "test.qds",
        "float_net.txt", "baseline.txt", "ga_front.txt", "refined_front.txt",
        "evaluated.txt"}) {
    const fs::path fa = a / "BreastCancer_s1" / name;
    const fs::path fb = b / "BreastCancer_s1" / name;
    ASSERT_TRUE(fs::exists(fa)) << fa;
    ASSERT_TRUE(fs::exists(fb)) << fb;
    EXPECT_EQ(read_deterministic_lines(fa), read_deterministic_lines(fb))
        << name;
  }
}

}  // namespace

TEST(WorkerCli, KillAtEveryStageBoundaryNeverLosesProgress) {
  TempDir dir("kill_sweep");
  const fs::path reference = dir.path / "reference";
  for (const char* stage :
       {"split", "backprop", "baseline", "ga", "refine", "hardware"}) {
    SCOPED_TRACE(stage);
    const fs::path tree = dir.path / (std::string("tree_") + stage);
    make_manifest_only_tree(reference, tree);
    // Worker killed right after committing `stage` (simulated SIGKILL:
    // _exit, no destructors, lease left behind).
    const auto killed =
        run_cli(std::string("PMLP_FAULT_KILL_STAGE=") + stage + " " +
                PMLP_CLI_PATH + " --worker --checkpoint " + tree.string() +
                " campaign");
    EXPECT_EQ(killed.status, 137) << killed.out;
    ASSERT_TRUE(fs::exists(tree / "BreastCancer_s1" / "claim.lock"))
        << killed.out;
    // A clean worker reclaims the dead lease (same-host pid probe) and
    // finishes the tree.
    const auto survivor = run_cli(std::string(PMLP_CLI_PATH) +
                                  " --worker --checkpoint " + tree.string() +
                                  " campaign");
    EXPECT_EQ(survivor.status, 0) << survivor.out;
    EXPECT_NE(survivor.out.find("1 stale leases reclaimed"),
              std::string::npos)
        << survivor.out;
    expect_identical_artifacts(reference, tree);
    fs::remove_all(tree);  // keep the scratch footprint bounded
  }
}

TEST(WorkerCli, KillInsideGaResumesFromGenerationCheckpoint) {
  TempDir dir("ga_kill");
  const fs::path reference = dir.path / "reference";
  const fs::path tree = dir.path / "tree";
  make_manifest_only_tree(reference, tree);
  const auto killed = run_cli(
      std::string("PMLP_FAULT_KILL_GA_GEN=2 ") + PMLP_CLI_PATH +
      " --worker --ga-checkpoint 1 --checkpoint " + tree.string() +
      " campaign");
  EXPECT_EQ(killed.status, 137) << killed.out;
  // Killed inside the GA stage: the generation scratch survived the crash.
  EXPECT_TRUE(fs::exists(tree / "BreastCancer_s1" / "ga_state.txt"))
      << killed.out;
  const auto survivor =
      run_cli(std::string(PMLP_CLI_PATH) + " --worker --ga-checkpoint 1" +
              " --checkpoint " + tree.string() + " campaign");
  EXPECT_EQ(survivor.status, 0) << survivor.out;
  // Resuming mid-GA from ga_state.txt converges to the same bytes as the
  // uninterrupted reference, and the scratch is cleaned up after commit.
  expect_identical_artifacts(reference, tree);
  EXPECT_FALSE(fs::exists(tree / "BreastCancer_s1" / "ga_state.txt"));
}

TEST(WorkerCli, InjectedCorruptionQuarantinedAndHealed) {
  TempDir dir("corrupt");
  const fs::path reference = dir.path / "reference";
  const fs::path tree = dir.path / "tree";
  make_manifest_only_tree(reference, tree);
  // The fault truncates float_net.txt right after its commit; the next
  // claim's checksum verification must quarantine and recompute it.
  const auto r = run_cli(std::string("PMLP_FAULT_CORRUPT=float_net.txt ") +
                         PMLP_CLI_PATH + " --worker --checkpoint " +
                         tree.string() + " campaign");
  EXPECT_EQ(r.status, 0) << r.out;
  EXPECT_TRUE(
      fs::exists(tree / "BreastCancer_s1" / "float_net.txt.corrupt-0"))
      << r.out;
  expect_identical_artifacts(reference, tree);
}

TEST(WorkerCli, HeartbeatSlowerThanHalfTheLeaseTimeoutIsAUsageError) {
  TempDir dir("slow_beat");
  core::save_campaign_manifest(grid_manifest(), dir.path.string());
  const auto r = run_cli(std::string(PMLP_CLI_PATH) +
                         " --worker --heartbeat 20 --lease-timeout 10" +
                         " --checkpoint " + dir.path.string() + " campaign");
  EXPECT_EQ(r.status, 2) << r.out;
  EXPECT_NE(r.out.find("heartbeat_s"), std::string::npos) << r.out;
}

TEST(WorkerCli, WorkerFlagsRequireWorkerMode) {
  const auto r = run_cli(std::string(PMLP_CLI_PATH) +
                         " --worker-id w1 --checkpoint /tmp campaign 8 4");
  EXPECT_EQ(r.status, 2) << r.out;
  EXPECT_NE(r.out.find("--worker"), std::string::npos) << r.out;
}

TEST(WorkerCli, WorkerRejectsPositionalGrid) {
  const auto r = run_cli(std::string(PMLP_CLI_PATH) +
                         " --worker --checkpoint /tmp campaign 8 4");
  EXPECT_EQ(r.status, 2) << r.out;
  EXPECT_NE(r.out.find("manifest"), std::string::npos) << r.out;
}

TEST(WorkerCli, StatusRequiresCheckpoint) {
  const auto r = run_cli(std::string(PMLP_CLI_PATH) + " campaign status");
  EXPECT_EQ(r.status, 2) << r.out;
  EXPECT_NE(r.out.find("--checkpoint"), std::string::npos) << r.out;
}

TEST(WorkerCli, WorkerOnTreeWithoutManifestExplains) {
  TempDir dir("nomanifest");
  const auto r = run_cli(std::string(PMLP_CLI_PATH) +
                         " --worker --checkpoint " + dir.path.string() +
                         " campaign");
  EXPECT_EQ(r.status, 1) << r.out;
  EXPECT_NE(r.out.find("campaign.txt"), std::string::npos) << r.out;
}

#endif  // PMLP_CLI_PATH
