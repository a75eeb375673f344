// Tests for the shared-pool CampaignRunner (campaign.hpp): per-flow
// bit-identity against independent run_flow() calls for any pool size,
// checkpoint/resume (including a mid-campaign stop, the in-process stand-in
// for a kill), resume with a different thread count, failure isolation,
// upstream sharing between flows with one upstream key (adoption, leader
// failure and stop), stage rollups and the JSON report.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>

#include "flow_test_util.hpp"
#include "pmlp/core/campaign.hpp"
#include "pmlp/core/serialize.hpp"
#include "pmlp/datasets/synthetic.hpp"

namespace core = pmlp::core;
namespace ds = pmlp::datasets;
namespace fs = std::filesystem;
using pmlp::test::expect_same_result;

namespace {

/// Scratch dir with this suite's prefix.
struct TempDir : pmlp::test::TempDir {
  explicit TempDir(const char* tag)
      : pmlp::test::TempDir("pmlp_campaign_test", tag) {}
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

ds::Dataset wine_data() {
  auto spec = ds::red_wine_spec();
  spec.n_samples = 160;
  return ds::generate(spec);
}

pmlp::mlp::Topology bc_topo() { return pmlp::mlp::Topology{{10, 3, 2}}; }
pmlp::mlp::Topology wine_topo() { return pmlp::mlp::Topology{{11, 2, 6}}; }

/// The three-flow grid used by most tests: two seeds of one dataset plus a
/// second dataset/topology.
std::vector<core::CampaignFlowSpec> grid() {
  std::vector<core::CampaignFlowSpec> specs(3);
  specs[0] = {"bc_s1", "BreastCancer", bc_data(), bc_topo(), small_cfg(1)};
  specs[1] = {"bc_s2", "BreastCancer", bc_data(), bc_topo(), small_cfg(2)};
  specs[2] = {"wine_s1", "RedWine", wine_data(), wine_topo(), small_cfg(1)};
  return specs;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The checkpoint artifacts of the split, backprop and baseline stages.
constexpr const char* kUpstreamFiles[] = {"train_raw.ds", "test_raw.ds",
                                          "train.qds",    "test.qds",
                                          "float_net.txt", "baseline.txt"};

bool is_upstream(core::FlowStage stage) {
  return stage == core::FlowStage::kSplit ||
         stage == core::FlowStage::kBackprop ||
         stage == core::FlowStage::kBaseline;
}

/// Independent single-flow references for the grid (what the campaign's
/// per-flow results must be bit-identical to).
std::vector<core::FlowResult> grid_references() {
  std::vector<core::FlowResult> refs;
  for (const auto& spec : grid()) {
    refs.push_back(core::run_flow(spec.data, spec.topology, spec.config));
  }
  return refs;
}

core::CampaignResult run_campaign(int n_threads,
                                  const std::string& checkpoint_root = "") {
  core::CampaignConfig cfg;
  cfg.n_threads = n_threads;
  cfg.checkpoint_root = checkpoint_root;
  core::CampaignRunner runner(cfg);
  for (auto& spec : grid()) runner.add_flow(std::move(spec));
  return runner.run();
}

void expect_matches_references(const core::CampaignResult& result,
                               const std::vector<core::FlowResult>& refs) {
  ASSERT_EQ(result.flows.size(), refs.size());
  for (std::size_t i = 0; i < refs.size(); ++i) {
    ASSERT_EQ(result.flows[i].status, core::CampaignFlowStatus::kDone)
        << result.flows[i].name << ": " << result.flows[i].error;
    ASSERT_TRUE(result.flows[i].result.has_value());
    expect_same_result(*result.flows[i].result, refs[i]);
  }
}

}  // namespace

TEST(Campaign, MatchesIndependentFlowsForAnyPoolSize) {
  const auto refs = grid_references();
  for (int threads : {1, 4, 0}) {
    const auto result = run_campaign(threads);
    EXPECT_EQ(result.completed, 3);
    EXPECT_TRUE(result.all_ok());
    expect_matches_references(result, refs);
  }
}

TEST(Campaign, CheckpointResumeBitIdentical) {
  TempDir dir("resume");
  const auto refs = grid_references();
  const auto first = run_campaign(4, dir.path.string());
  expect_matches_references(first, refs);
  for (const char* flow : {"bc_s1", "bc_s2", "wine_s1"}) {
    EXPECT_TRUE(fs::exists(dir.path / flow / "meta.txt")) << flow;
    EXPECT_TRUE(fs::exists(dir.path / flow / "evaluated.txt")) << flow;
  }

  // Re-running the identical campaign reloads every stage except the
  // derived select stage and reproduces the results bit-identically.
  const auto second = run_campaign(4, dir.path.string());
  expect_matches_references(second, refs);
  int reused = 0;
  for (const auto& roll : second.stages) reused += roll.reused;
  EXPECT_EQ(reused, 3 * (core::kNumFlowStages - 1));
}

TEST(Campaign, StopAndResumeBitIdentical) {
  TempDir dir("stop");
  const auto refs = grid_references();

  // Stop mid-campaign after a few stage completions — the in-process
  // equivalent of kill -9 between stages (the engines' temp-file+rename
  // writes mean a checkpoint is consistent at every instant anyway).
  core::CampaignConfig cfg;
  cfg.n_threads = 2;
  cfg.checkpoint_root = dir.path.string();
  core::CampaignRunner runner(cfg);
  for (auto& spec : grid()) runner.add_flow(std::move(spec));
  int events = 0;
  runner.set_progress([&](const core::CampaignProgress&) {
    if (++events == 3) runner.request_stop();
  });
  const auto first = runner.run();
  EXPECT_EQ(first.completed + first.stopped + first.failed + first.pending,
            3);
  EXPECT_EQ(first.failed, 0);
  EXPECT_FALSE(first.all_ok());
  // 3 of 21 stages done -> every flow was cut short: stopped mid-pipeline,
  // or still pending if none of its stages had run yet.
  EXPECT_GE(first.stopped + first.pending, 1);
  for (const auto& f : first.flows) {
    if (f.status == core::CampaignFlowStatus::kPending) {
      EXPECT_EQ(f.wall_seconds, 0.0);
    }
  }

  // Resume: the fresh campaign completes everything from the checkpoints,
  // bit-identical to never having been stopped.
  const auto second = run_campaign(2, dir.path.string());
  EXPECT_TRUE(second.all_ok());
  expect_matches_references(second, refs);
  int reused = 0;
  for (const auto& roll : second.stages) reused += roll.reused;
  EXPECT_GE(reused, 3);  // at least the stages finished before the stop
}

TEST(Campaign, ResumeWithDifferentThreadCountAccepted) {
  // The checkpoint meta fingerprint must not bake in any parallelism knob:
  // a campaign checkpointed on a 4-worker pool resumes on a 1-worker pool
  // (different machine / thread count) bit-identically instead of being
  // rejected as a config mismatch.
  TempDir dir("threads");
  const auto refs = grid_references();
  const auto wide = run_campaign(4, dir.path.string());
  expect_matches_references(wide, refs);
  const auto narrow = run_campaign(1, dir.path.string());
  EXPECT_TRUE(narrow.all_ok()) << (narrow.flows.empty()
                                       ? ""
                                       : narrow.flows.front().error);
  expect_matches_references(narrow, refs);
}

TEST(Campaign, FailureIsolation) {
  TempDir dir("poison");
  // Poison one flow's checkpoint before the campaign starts: that flow
  // must fail with the engine's error; the other two complete untouched.
  fs::create_directories(dir.path / "bc_s2");
  std::ofstream(dir.path / "bc_s2" / "meta.txt") << "pmlp-flow-meta v9\n";
  const auto result = run_campaign(2, dir.path.string());
  EXPECT_EQ(result.completed, 2);
  EXPECT_EQ(result.failed, 1);
  ASSERT_EQ(result.flows.size(), 3u);
  EXPECT_EQ(result.flows[0].status, core::CampaignFlowStatus::kDone);
  EXPECT_EQ(result.flows[1].status, core::CampaignFlowStatus::kFailed);
  EXPECT_FALSE(result.flows[1].error.empty());
  EXPECT_FALSE(result.flows[1].result.has_value());
  EXPECT_EQ(result.flows[2].status, core::CampaignFlowStatus::kDone);
}

TEST(Campaign, StageRollupsCoverEveryFlow) {
  const auto result = run_campaign(2);
  // 3 flows x 7 stages. No checkpointing, so the only reuse is bc_s2
  // adopting bc_s1's split, backprop and baseline.
  for (int s = 0; s < core::kNumFlowStages; ++s) {
    const auto stage = static_cast<core::FlowStage>(s);
    EXPECT_EQ(result.stages[s].executed, 3) << core::flow_stage_name(stage);
    EXPECT_EQ(result.stages[s].reused, is_upstream(stage) ? 1 : 0)
        << core::flow_stage_name(stage);
  }
  EXPECT_GT(result.stage_wall_seconds, 0.0);
  EXPECT_GT(result.wall_seconds, 0.0);
  EXPECT_GT(result.flows_per_second(), 0.0);
  EXPECT_EQ(result.n_threads, 2);
}

TEST(Campaign, SecondSeedAdoptsTheFirstSeedsBaseline) {
  // bc_s1 and bc_s2 differ only in the GA seed: bc_s2 adopts bc_s1's
  // split, backprop and baseline instead of training its own, and still
  // ends bit-identical to an independent run_flow().
  const auto refs = grid_references();
  for (int threads : {1, 2}) {
    const auto result = run_campaign(threads);
    expect_matches_references(result, refs);
    for (std::size_t f = 0; f < 3; ++f) {
      const auto& flow = *result.flows[f].result;
      ASSERT_EQ(flow.stages.size(), 7u);
      for (const auto& s : flow.stages) {
        const bool adopted = f == 1 && is_upstream(s.stage);
        EXPECT_EQ(s.reused, adopted)
            << result.flows[f].name << " " << core::flow_stage_name(s.stage);
        if (adopted) {
          EXPECT_EQ(s.wall_seconds, 0.0);
        }
      }
    }
    // The follower's backprop report is the empty one of a reload.
    EXPECT_GT(result.flows[0].result->backprop.epochs_run, 0);
    EXPECT_EQ(result.flows[1].result->backprop.epochs_run, 0);
  }
}

TEST(Campaign, FollowerCheckpointIsCompleteAndByteIdentical) {
  TempDir dir("adopt");
  const auto refs = grid_references();
  expect_matches_references(run_campaign(2, dir.path.string()), refs);
  for (const char* f : kUpstreamFiles) {
    ASSERT_TRUE(fs::exists(dir.path / "bc_s2" / f)) << f;
    EXPECT_EQ(slurp(dir.path / "bc_s2" / f), slurp(dir.path / "bc_s1" / f))
        << f;
  }

  // The follower's directory is a checkpoint on its own: a lone engine
  // reloads every checkpointed stage from it.
  auto spec = grid()[1];
  core::FlowEngine lone(std::move(spec.data), spec.topology, spec.config);
  lone.set_checkpoint_dir((dir.path / "bc_s2").string());
  const auto result = lone.run();
  expect_same_result(result, refs[1]);
  int reused = 0;
  for (const auto& s : result.stages) reused += s.reused ? 1 : 0;
  EXPECT_EQ(reused, 6);
}

TEST(Campaign, FollowerOfAResumedLeaderCommitsItsUpstream) {
  // bc_s1 alone first; then the whole grid on the same root. bc_s1
  // reloads its baseline and hands it to bc_s2, whose empty directory
  // receives the upstream artifacts while its GA runs fresh.
  TempDir dir("late");
  const auto refs = grid_references();
  {
    core::CampaignConfig cfg;
    cfg.n_threads = 2;
    cfg.checkpoint_root = dir.path.string();
    core::CampaignRunner runner(cfg);
    runner.add_flow(grid()[0]);
    ASSERT_TRUE(runner.run().all_ok());
  }
  const auto result = run_campaign(2, dir.path.string());
  expect_matches_references(result, refs);
  for (const auto& s : result.flows[1].result->stages) {
    EXPECT_EQ(s.reused, is_upstream(s.stage)) << core::flow_stage_name(s.stage);
  }
  for (const char* f : kUpstreamFiles) {
    EXPECT_EQ(slurp(dir.path / "bc_s2" / f), slurp(dir.path / "bc_s1" / f))
        << f;
  }
  EXPECT_TRUE(fs::exists(dir.path / "bc_s2" / "evaluated.txt"));
}

TEST(Campaign, DifferentUpstreamInputsAreNotShared) {
  // Each variant changes one upstream input of bc_s1 (and the GA seed,
  // which alone would be shared): none of them may adopt.
  std::vector<core::CampaignFlowSpec> specs(4);
  specs[0] = {"base", "BreastCancer", bc_data(), bc_topo(), small_cfg(1)};
  specs[1] = specs[0];
  specs[1].name = "backprop_seed";
  specs[1].config.backprop.seed = 62;
  specs[2] = specs[0];
  specs[2].name = "topology";
  specs[2].topology = pmlp::mlp::Topology{{10, 4, 2}};
  specs[3] = specs[0];
  specs[3].name = "split_seed";
  specs[3].config.split_seed += 1;
  for (std::size_t i = 1; i < specs.size(); ++i) {
    specs[i].config.trainer.ga.seed = 2;
  }
  core::CampaignConfig cfg;
  cfg.n_threads = 2;
  core::CampaignRunner runner(cfg);
  for (auto spec : specs) runner.add_flow(std::move(spec));
  const auto result = runner.run();
  EXPECT_TRUE(result.all_ok());
  for (int s = 0; s < core::kNumFlowStages; ++s) {
    EXPECT_EQ(result.stages[s].executed, 4);
    EXPECT_EQ(result.stages[s].reused, 0)
        << core::flow_stage_name(static_cast<core::FlowStage>(s));
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_same_result(*result.flows[i].result,
                       core::run_flow(specs[i].data, specs[i].topology,
                                      specs[i].config));
  }
}

TEST(Campaign, FailedLeaderReleasesItsFollower) {
  // The leader's checkpoint is poisoned, so it fails before its baseline;
  // bc_s2 then computes its own upstream and still matches run_flow().
  TempDir dir("leader");
  fs::create_directories(dir.path / "bc_s1");
  std::ofstream(dir.path / "bc_s1" / "meta.txt") << "pmlp-flow-meta v9\n";
  const auto refs = grid_references();
  const auto result = run_campaign(2, dir.path.string());
  EXPECT_EQ(result.failed, 1);
  EXPECT_EQ(result.completed, 2);
  EXPECT_EQ(result.flows[0].status, core::CampaignFlowStatus::kFailed);
  ASSERT_EQ(result.flows[1].status, core::CampaignFlowStatus::kDone)
      << result.flows[1].error;
  expect_same_result(*result.flows[1].result, refs[1]);
  for (const auto& s : result.flows[1].result->stages) {
    EXPECT_EQ(s.reused, false) << core::flow_stage_name(s.stage);
  }
  EXPECT_GT(result.flows[1].result->backprop.epochs_run, 0);
}

TEST(Campaign, StopBeforeLeaderBaselineLeavesFollowerPending) {
  for (int threads : {1, 2}) {
    core::CampaignConfig cfg;
    cfg.n_threads = threads;
    core::CampaignRunner runner(cfg);
    for (auto& spec : grid()) runner.add_flow(std::move(spec));
    runner.set_progress([&](const core::CampaignProgress& p) {
      if (p.flow_name == "bc_s1") runner.request_stop();
    });
    const auto result = runner.run();
    ASSERT_EQ(result.flows.size(), 3u);
    EXPECT_EQ(result.flows[0].status, core::CampaignFlowStatus::kStopped);
    EXPECT_EQ(result.flows[1].status, core::CampaignFlowStatus::kPending);
    EXPECT_EQ(result.flows[1].wall_seconds, 0.0);
    EXPECT_EQ(result.failed, 0);
    EXPECT_EQ(result.completed + result.stopped + result.pending, 3);
  }
}

TEST(Campaign, RejectsBadFlowNames) {
  core::CampaignRunner runner(core::CampaignConfig{});
  auto specs = grid();
  EXPECT_NO_THROW(runner.add_flow(specs[0]));
  auto dup = grid()[0];
  EXPECT_THROW(runner.add_flow(std::move(dup)), std::invalid_argument);
  auto bad = grid()[1];
  bad.name = "a/b";
  EXPECT_THROW(runner.add_flow(std::move(bad)), std::invalid_argument);
  auto empty = grid()[1];
  empty.name = "";
  EXPECT_THROW(runner.add_flow(std::move(empty)), std::invalid_argument);
}

TEST(Campaign, EmptyCampaignCompletesTrivially) {
  core::CampaignRunner runner(core::CampaignConfig{});
  const auto result = runner.run();
  EXPECT_TRUE(result.flows.empty());
  EXPECT_TRUE(result.all_ok());
  EXPECT_EQ(result.completed, 0);
}

TEST(Campaign, RunIsOneShot) {
  core::CampaignRunner runner(core::CampaignConfig{});
  (void)runner.run();
  EXPECT_THROW((void)runner.run(), std::logic_error);
}

TEST(Campaign, ProgressCallbackSeesEveryStage) {
  core::CampaignConfig cfg;
  cfg.n_threads = 2;
  core::CampaignRunner runner(cfg);
  for (auto& spec : grid()) runner.add_flow(std::move(spec));
  std::mutex mu;  // the runner serializes calls; guard our counters anyway
  int events = 0;
  int max_done = 0;
  runner.set_progress([&](const core::CampaignProgress& p) {
    std::lock_guard<std::mutex> lock(mu);
    ++events;
    max_done = std::max(max_done, p.flows_done);
    EXPECT_LT(p.flow_index, 3u);
    EXPECT_EQ(p.flows_total, 3);
  });
  const auto result = runner.run();
  EXPECT_TRUE(result.all_ok());
  EXPECT_EQ(events, 3 * core::kNumFlowStages);
}

TEST(Campaign, JsonReportIsWellFormed) {
  TempDir dir("json");
  // Include one poisoned flow so the report covers both arms.
  fs::create_directories(dir.path / "wine_s1");
  std::ofstream(dir.path / "wine_s1" / "meta.txt") << "garbage\n";
  const auto result = run_campaign(2, dir.path.string());
  std::ostringstream os;
  core::write_campaign_report_json(result, os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.size() - 2], '}');  // trailing newline
  EXPECT_NE(json.find("\"campaign\":{"), std::string::npos);
  EXPECT_NE(json.find("\"n_threads\":2"), std::string::npos);
  EXPECT_NE(json.find("\"stage_rollup\":{"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"bc_s1\""), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"done\""), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"failed\""), std::string::npos);
  EXPECT_NE(json.find("\"report\":{\"dataset\":"), std::string::npos);
  EXPECT_NE(json.find("\"report\":null"), std::string::npos);
  EXPECT_NE(json.find("\"front\":["), std::string::npos);
}
