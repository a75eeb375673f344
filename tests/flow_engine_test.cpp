// Tests for the staged FlowEngine (flow_engine.hpp): checkpoint/resume
// bit-identity, partial resume, meta guards, artifact injection, parallel
// hardware analysis and stage reporting.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "flow_test_util.hpp"
#include "pmlp/core/flow_engine.hpp"
#include "pmlp/core/serialize.hpp"
#include "pmlp/datasets/synthetic.hpp"

namespace core = pmlp::core;
namespace ds = pmlp::datasets;
namespace fs = std::filesystem;
using pmlp::test::expect_same_points;
using pmlp::test::expect_same_result;

namespace {

/// Scratch dir with this suite's prefix.
struct TempDir : pmlp::test::TempDir {
  explicit TempDir(const char* tag) : pmlp::test::TempDir("pmlp_flow_test", tag) {}
};

core::FlowConfig small_cfg() {
  core::FlowConfig cfg;
  cfg.backprop.epochs = 40;
  cfg.backprop.seed = 61;
  cfg.trainer.ga.population = 20;
  cfg.trainer.ga.generations = 10;
  cfg.trainer.ga.seed = 61;
  cfg.hardware.equivalence_samples = 8;
  return cfg;
}

ds::Dataset small_data() {
  auto spec = ds::breast_cancer_spec();
  spec.n_samples = 200;
  return ds::generate(spec);
}

pmlp::mlp::Topology small_topo() { return pmlp::mlp::Topology{{10, 3, 2}}; }

}  // namespace

TEST(FlowEngine, MatchesRunFlowWrapper) {
  const auto data = small_data();
  const auto r0 = core::run_flow(data, small_topo(), small_cfg());
  core::FlowEngine engine(data, small_topo(), small_cfg());
  const auto r1 = engine.run();
  expect_same_result(r0, r1);
  // The wrapper reports all seven stages, none reused.
  ASSERT_EQ(r1.stages.size(), 7u);
  for (const auto& s : r1.stages) EXPECT_FALSE(s.reused);
  EXPECT_EQ(r1.stages.front().stage, core::FlowStage::kSplit);
  EXPECT_EQ(r1.stages.back().stage, core::FlowStage::kSelect);
}

TEST(FlowEngine, CheckpointResumeBitIdentical) {
  TempDir dir("resume");
  const auto data = small_data();

  core::FlowEngine first(data, small_topo(), small_cfg());
  first.set_checkpoint_dir(dir.path.string());
  const auto r1 = first.run();

  // Every artifact must be on disk.
  for (const char* f :
       {"meta.txt", "train_raw.ds", "test_raw.ds", "train.qds", "test.qds",
        "float_net.txt", "baseline.txt", "ga_front.txt", "refined_front.txt",
        "evaluated.txt"}) {
    EXPECT_TRUE(fs::exists(dir.path / f)) << f;
  }

  core::FlowEngine second(data, small_topo(), small_cfg());
  second.set_checkpoint_dir(dir.path.string());
  const auto r2 = second.run();
  expect_same_result(r1, r2);
  // Everything except the derived select stage was reloaded.
  ASSERT_EQ(r2.stages.size(), 7u);
  for (const auto& s : r2.stages) {
    EXPECT_EQ(s.reused, s.stage != core::FlowStage::kSelect)
        << core::flow_stage_name(s.stage);
  }

  // And the checkpointed run equals the checkpoint-free run.
  const auto r0 = core::run_flow(data, small_topo(), small_cfg());
  expect_same_result(r0, r1);
}

TEST(FlowEngine, PartialResumeRecomputesDownstream) {
  TempDir dir("partial");
  const auto data = small_data();

  core::FlowEngine first(data, small_topo(), small_cfg());
  first.set_checkpoint_dir(dir.path.string());
  const auto r1 = first.run();

  fs::remove(dir.path / "refined_front.txt");
  fs::remove(dir.path / "evaluated.txt");

  core::FlowEngine second(data, small_topo(), small_cfg());
  second.set_checkpoint_dir(dir.path.string());
  const auto r2 = second.run();
  expect_same_result(r1, r2);
  for (const auto& s : r2.stages) {
    const bool expect_reused = s.stage == core::FlowStage::kSplit ||
                               s.stage == core::FlowStage::kBackprop ||
                               s.stage == core::FlowStage::kBaseline ||
                               s.stage == core::FlowStage::kGa;
    EXPECT_EQ(s.reused, expect_reused) << core::flow_stage_name(s.stage);
  }
  // The recomputed artifacts were re-persisted.
  EXPECT_TRUE(fs::exists(dir.path / "refined_front.txt"));
  EXPECT_TRUE(fs::exists(dir.path / "evaluated.txt"));
}

TEST(FlowEngine, ResumeWithDifferentThreadsAndCacheAccepted) {
  // The meta.txt config fingerprint covers exactly the result-changing
  // fields. The bit-identical knobs — trainer.n_threads and
  // problem.eval_cache_capacity — must stay out of it: a checkpoint written on a 2-thread machine resumes under a
  // different thread count / cache size (e.g. on another machine) instead
  // of being rejected as a different config, and reproduces the original
  // result bit-identically.
  TempDir dir("threadmeta");
  const auto data = small_data();
  auto cfg = small_cfg();
  cfg.trainer.n_threads = 2;
  cfg.trainer.problem.eval_cache_capacity = 512;

  core::FlowEngine first(data, small_topo(), cfg);
  first.set_checkpoint_dir(dir.path.string());
  const auto r1 = first.run();

  auto resumed_cfg = small_cfg();
  resumed_cfg.trainer.n_threads = 1;
  resumed_cfg.trainer.problem.eval_cache_capacity = 0;
  core::FlowEngine second(data, small_topo(), resumed_cfg);
  second.set_checkpoint_dir(dir.path.string());
  core::FlowResult r2;
  ASSERT_NO_THROW(r2 = second.run());
  expect_same_result(r1, r2);
  for (const auto& s : r2.stages) {
    EXPECT_EQ(s.reused, s.stage != core::FlowStage::kSelect)
        << core::flow_stage_name(s.stage);
  }
}

namespace {

/// Threads of this process, from /proc/self/task (-1 where there is none).
int process_threads() {
  std::error_code ec;
  fs::directory_iterator it("/proc/self/task", ec);
  if (ec) return -1;
  return static_cast<int>(std::distance(it, fs::directory_iterator{}));
}

/// process_threads() once it has stopped changing: a thread that was just
/// joined can stay listed in /proc/self/task for a moment. Reads every
/// 10 ms until five readings in a row agree, for about a second at most.
int settled_process_threads() {
  int last = process_threads();
  int same = 0;
  for (int i = 0; i < 100 && same < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const int now = process_threads();
    same = now == last ? same + 1 : 0;
    last = now;
  }
  return last;
}

}  // namespace

TEST(FlowEngine, ReloadOnlyRunStartsNoThreads) {
  // The flow's pool is built the first time a stage computes, so a run
  // that only reloads a complete checkpoint starts no threads at all.
  TempDir dir("reloadthreads");
  const auto data = small_data();
  auto cfg = small_cfg();
  cfg.trainer.n_threads = 4;
  {
    core::FlowEngine first(data, small_topo(), cfg);
    first.set_checkpoint_dir(dir.path.string());
    (void)first.run();
  }
  const int before = settled_process_threads();
  if (before < 0) GTEST_SKIP() << "no /proc/self/task";
  core::FlowEngine second(data, small_topo(), cfg);
  second.set_checkpoint_dir(dir.path.string());
  (void)second.run();
  EXPECT_EQ(process_threads(), before);
}

TEST(FlowEngine, AdvanceRunsOneStageAtATime) {
  const auto data = small_data();
  core::FlowEngine engine(data, small_topo(), small_cfg());
  std::vector<core::FlowStage> ran;
  while (auto stage = engine.advance()) {
    ran.push_back(*stage);
    EXPECT_EQ(engine.stages().size(), ran.size());
    EXPECT_EQ(engine.stages().back().stage, *stage);
  }
  const std::vector<core::FlowStage> expected{
      core::FlowStage::kSplit,    core::FlowStage::kBackprop,
      core::FlowStage::kBaseline, core::FlowStage::kGa,
      core::FlowStage::kRefine,   core::FlowStage::kHardware,
      core::FlowStage::kSelect};
  EXPECT_EQ(ran, expected);
  // Complete: further advance() is a no-op and run() just assembles.
  EXPECT_FALSE(engine.advance().has_value());
  const auto r1 = engine.run();
  const auto r0 = core::run_flow(data, small_topo(), small_cfg());
  expect_same_result(r0, r1);
}

TEST(FlowEngine, RejectsCheckpointOfDifferentConfig) {
  TempDir dir("confguard");
  const auto data = small_data();
  core::FlowEngine first(data, small_topo(), small_cfg());
  first.set_checkpoint_dir(dir.path.string());
  (void)first.split();  // writes meta + split artifacts

  auto other = small_cfg();
  other.trainer.ga.generations += 1;
  core::FlowEngine second(data, small_topo(), other);
  second.set_checkpoint_dir(dir.path.string());
  EXPECT_THROW((void)second.run(), std::runtime_error);
}

TEST(FlowEngine, RejectsCheckpointOfDifferentDataset) {
  TempDir dir("dataguard");
  const auto data = small_data();
  core::FlowEngine first(data, small_topo(), small_cfg());
  first.set_checkpoint_dir(dir.path.string());
  (void)first.split();

  auto spec = ds::breast_cancer_spec();
  spec.n_samples = 201;  // different data -> different digest
  core::FlowEngine second(ds::generate(spec), small_topo(), small_cfg());
  second.set_checkpoint_dir(dir.path.string());
  EXPECT_THROW((void)second.run(), std::runtime_error);
}

TEST(FlowEngine, RejectsMalformedMeta) {
  TempDir dir("badmeta");
  fs::create_directories(dir.path);
  std::ofstream(dir.path / "meta.txt") << "pmlp-flow-meta v9\ngarbage\n";
  core::FlowEngine engine(small_data(), small_topo(), small_cfg());
  engine.set_checkpoint_dir(dir.path.string());
  EXPECT_THROW((void)engine.run(), std::invalid_argument);
}

TEST(FlowEngine, InjectedArtifactsMatchFullRun) {
  const auto data = small_data();
  const auto r0 = core::run_flow(data, small_topo(), small_cfg());

  // Prime a second engine with the first run's baseline artifacts (the
  // bench path: one baseline, many GA runs).
  core::FlowEngine engine(ds::Dataset{}, small_topo(), small_cfg());
  core::UpstreamArtifacts up;
  up.split.train_raw = r0.baseline.train_raw;
  up.split.test_raw = r0.baseline.test_raw;
  up.split.train = r0.baseline.train;
  up.split.test = r0.baseline.test;
  up.float_net = r0.baseline.float_net;
  up.baseline.net = r0.baseline.baseline;
  up.baseline.cost = r0.baseline.baseline_cost;
  up.baseline.train_accuracy = r0.baseline.baseline_train_accuracy;
  up.baseline.test_accuracy = r0.baseline.baseline_test_accuracy;
  engine.adopt_upstream(std::move(up));

  const auto r1 = engine.run();
  expect_same_result(r0, r1);
  int reused = 0;
  for (const auto& s : r1.stages) reused += s.reused ? 1 : 0;
  EXPECT_EQ(reused, 3);  // split, backprop, baseline
}

TEST(FlowEngine, UpstreamFingerprintCoversOnlyUpstreamInputs) {
  const auto data = small_data();
  const auto key = [&](const ds::Dataset& d, const pmlp::mlp::Topology& t,
                       const core::FlowConfig& c) {
    return core::upstream_fingerprint(d, t, c);
  };
  const auto base = key(data, small_topo(), small_cfg());

  // Downstream-only inputs (GA, refine, hardware) do not change the key.
  auto cfg = small_cfg();
  cfg.trainer.ga.seed = 99;
  cfg.trainer.ga.generations = 3;
  cfg.refine = false;
  cfg.hardware.equivalence_samples = 2;
  EXPECT_EQ(key(data, small_topo(), cfg), base);

  // Every upstream input does.
  cfg = small_cfg();
  cfg.backprop.seed = 62;
  EXPECT_NE(key(data, small_topo(), cfg), base);
  cfg = small_cfg();
  cfg.split_seed += 1;
  EXPECT_NE(key(data, small_topo(), cfg), base);
  cfg = small_cfg();
  cfg.train_fraction = 0.6;
  EXPECT_NE(key(data, small_topo(), cfg), base);
  cfg = small_cfg();
  cfg.trainer.bits.weight_bits += 1;
  EXPECT_NE(key(data, small_topo(), cfg), base);
  EXPECT_NE(key(data, pmlp::mlp::Topology{{10, 4, 2}}, small_cfg()), base);
  auto other = data;
  other.labels[0] = 1 - other.labels[0];
  EXPECT_NE(key(other, small_topo(), small_cfg()), base);
}

/// The split, float net and baseline of a finished engine, as a leader
/// hands them to a follower.
void adopt_from(core::FlowEngine& leader, core::FlowEngine& follower) {
  follower.adopt_upstream(
      {leader.split(), leader.float_net(), leader.baseline()});
}

TEST(FlowEngine, AdoptedUpstreamCompletesTheCheckpoint) {
  TempDir lead_dir("adopt_lead");
  TempDir dir("adopt");
  const auto data = small_data();
  auto cfg = small_cfg();
  core::FlowEngine leader(data, small_topo(), cfg);
  leader.set_checkpoint_dir(lead_dir.path.string());
  (void)leader.baseline();

  cfg.trainer.ga.seed = 62;
  const auto ref = core::run_flow(data, small_topo(), cfg);
  core::FlowEngine follower(data, small_topo(), cfg);
  follower.set_checkpoint_dir(dir.path.string());
  adopt_from(leader, follower);
  const auto r1 = follower.run();
  expect_same_result(ref, r1);
  EXPECT_EQ(r1.backprop.epochs_run, 0);
  ASSERT_EQ(r1.stages.size(), 7u);
  for (const auto& s : r1.stages) {
    const bool upstream = s.stage == core::FlowStage::kSplit ||
                          s.stage == core::FlowStage::kBackprop ||
                          s.stage == core::FlowStage::kBaseline;
    EXPECT_EQ(s.reused, upstream) << core::flow_stage_name(s.stage);
  }
  for (const char* f : {"train_raw.ds", "test_raw.ds", "train.qds",
                        "test.qds", "float_net.txt", "baseline.txt"}) {
    std::ifstream a(lead_dir.path / f, std::ios::binary);
    std::ifstream b(dir.path / f, std::ios::binary);
    std::ostringstream sa, sb;
    sa << a.rdbuf();
    sb << b.rdbuf();
    EXPECT_FALSE(sb.str().empty()) << f;
    EXPECT_EQ(sa.str(), sb.str()) << f;
  }

  // A complete directory: adoption writes nothing and the downstream
  // stages reload, as after the stages themselves reloaded.
  core::FlowEngine again(data, small_topo(), cfg);
  again.set_checkpoint_dir(dir.path.string());
  adopt_from(leader, again);
  const auto r2 = again.run();
  expect_same_result(ref, r2);
  for (const auto& s : r2.stages) {
    EXPECT_EQ(s.reused, s.stage != core::FlowStage::kSelect)
        << core::flow_stage_name(s.stage);
  }

  // A missing float net is committed and, as when backprop recomputes,
  // every downstream stage recomputes too.
  fs::remove(dir.path / "float_net.txt");
  core::FlowEngine partial(data, small_topo(), cfg);
  partial.set_checkpoint_dir(dir.path.string());
  adopt_from(leader, partial);
  const auto r3 = partial.run();
  expect_same_result(ref, r3);
  EXPECT_TRUE(fs::exists(dir.path / "float_net.txt"));
  for (const auto& s : r3.stages) {
    EXPECT_EQ(s.reused, s.stage == core::FlowStage::kSplit ||
                            s.stage == core::FlowStage::kBackprop ||
                            s.stage == core::FlowStage::kBaseline)
        << core::flow_stage_name(s.stage);
  }
}

TEST(FlowEngine, AdoptAfterAStageRanThrows) {
  const auto data = small_data();
  core::FlowEngine leader(data, small_topo(), small_cfg());
  core::FlowEngine follower(data, small_topo(), small_cfg());
  (void)follower.advance();  // split
  EXPECT_THROW(adopt_from(leader, follower), std::logic_error);
}

TEST(FlowEngine, ParallelHardwareAnalysisBitIdentical) {
  const auto data = small_data();
  core::FlowEngine engine(data, small_topo(), small_cfg());
  const auto result = engine.run();
  ASSERT_FALSE(result.training.estimated_pareto.empty());

  const auto& test = result.baseline.test;
  const auto& lib = pmlp::hwmodel::CellLibrary::egfet_1v();
  core::HardwareAnalysisConfig cfg;
  cfg.equivalence_samples = 8;
  const auto serial =
      core::evaluate_hardware(result.training.estimated_pareto, test, lib,
                              cfg);
  for (int n : {1, 2, 4, 0, 7}) {
    SCOPED_TRACE(n);
    core::ThreadPool pool(n);
    const auto parallel = core::evaluate_hardware(
        result.training.estimated_pareto, test, lib, cfg, &pool);
    expect_same_points(serial, parallel);
  }
}

TEST(FlowEngine, ParallelFlowMatchesSerialFlow) {
  const auto data = small_data();
  auto cfg = small_cfg();
  cfg.trainer.n_threads = 1;
  const auto serial = core::run_flow(data, small_topo(), cfg);
  for (int n : {2, 4, 0}) {
    SCOPED_TRACE(n);
    cfg.trainer.n_threads = n;
    expect_same_result(serial, core::run_flow(data, small_topo(), cfg));
  }
}

TEST(FlowEngine, RefineDisabledSkipsStage) {
  auto cfg = small_cfg();
  cfg.refine = false;
  core::FlowEngine engine(small_data(), small_topo(), cfg);
  const auto result = engine.run();
  ASSERT_EQ(result.stages.size(), 6u);
  for (const auto& s : result.stages) {
    EXPECT_NE(s.stage, core::FlowStage::kRefine);
  }
}

TEST(FlowEngine, ProgressCallbackSeesEveryStage) {
  std::vector<std::string> seen;
  core::FlowEngine engine(small_data(), small_topo(), small_cfg());
  engine.set_progress([&](const core::StageReport& r) {
    seen.push_back(core::flow_stage_name(r.stage));
  });
  (void)engine.run();
  const std::vector<std::string> expected{
      "split", "backprop", "baseline", "ga", "refine", "hardware", "select"};
  EXPECT_EQ(seen, expected);
}

TEST(FlowEngine, RepeatedRunDoesNotRecompute) {
  core::FlowEngine engine(small_data(), small_topo(), small_cfg());
  const auto r1 = engine.run();
  const auto r2 = engine.run();  // all artifacts cached in memory
  expect_same_result(r1, r2);
  EXPECT_EQ(r1.stages.size(), r2.stages.size());
}

TEST(FlowEngine, JsonReportIsWellFormed) {
  core::FlowEngine engine(small_data(), small_topo(), small_cfg());
  const auto result = engine.run();
  std::ostringstream os;
  core::write_flow_report_json(result, "Breast\"Cancer", small_topo(), os);
  const std::string json = os.str();
  // Structural smoke checks (no JSON parser in the test deps).
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.size() - 2], '}');  // trailing newline
  EXPECT_NE(json.find("\"dataset\":\"Breast\\\"Cancer\""), std::string::npos);
  EXPECT_NE(json.find("\"stages\":["), std::string::npos);
  EXPECT_NE(json.find("\"stage\":\"hardware\""), std::string::npos);
  EXPECT_NE(json.find("\"evaluated\":["), std::string::npos);
  EXPECT_NE(json.find("\"area_reduction\":"), std::string::npos);
}
