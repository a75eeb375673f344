// Golden-text tests: one tiny fixed instance of every pmlp-* artifact
// format, compared byte-for-byte with literal text. Round-trip tests pass
// even when a writer and its reader drift together; these do not, so any
// change to an artifact's bytes (tags, field order, number formatting, the
// crc footer) must show up here as an edited literal.
//
// Each in-memory format is checked both ways: the writer must produce the
// literal, and the literal must load and re-save to itself. The file
// formats owned by the campaign layers (flow meta, manifest, failures,
// claim, beat, done, failed) are produced by the real code paths and read
// back from disk, footer included.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "flow_test_util.hpp"
#include "pmlp/core/campaign.hpp"
#include "pmlp/core/serialize.hpp"
#include "pmlp/core/worker.hpp"

namespace core = pmlp::core;
namespace ds = pmlp::datasets;
namespace mlp = pmlp::mlp;
namespace nsga2 = pmlp::nsga2;
namespace fs = std::filesystem;

namespace {

const mlp::Topology kTopo{{2, 1, 2}};

template <typename T, typename Save>
std::string dump(const T& value, Save save) {
  std::ostringstream os;
  save(value, os);
  return os.str();
}

/// Load `text`, save the result again: the literal must be a fixed point.
template <typename Load, typename Save>
std::string reload(const std::string& text, Load load, Save save) {
  std::istringstream is(text);
  const auto value = load(is);
  std::ostringstream os;
  save(value, os);
  return os.str();
}

std::string slurp(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

core::ApproxMlp golden_model() {
  core::ApproxMlp net(kTopo, core::BitConfig{});
  auto& l0 = net.layers()[0];
  l0.conn(0, 0) = {15, -1, 3};
  l0.conn(0, 1) = {0, 1, 0};
  l0.biases = {-7};
  auto& l1 = net.layers()[1];
  l1.conn(0, 0) = {3, 1, 2};
  l1.conn(1, 0) = {128, -1, 6};
  l1.biases = {5, -2048};
  net.update_qrelu_shifts();
  return net;
}

const char* const kModelText =
    "pmlp-approx-mlp v1\n"
    "topology 2 1 2\n"
    "bits 8 4 8 12\n"
    "layer 0\n"
    "conn 0 0 15 -1 3\n"
    "conn 0 1 0 1 0\n"
    "bias 0 -7\n"
    "layer 1\n"
    "conn 0 0 3 1 2\n"
    "conn 1 0 128 -1 6\n"
    "bias 0 5\n"
    "bias 1 -2048\n";

mlp::QuantMlp golden_quant_net() {
  std::vector<mlp::QuantLayer> layers(2);
  layers[0] = {2, 1, 4, 2, {3, -4}, {10}};
  layers[1] = {1, 2, 8, 0, {127, -128}, {-5, 0}};
  return mlp::QuantMlp(kTopo, std::move(layers), 8, 8);
}

const char* const kQuantNetText =
    "pmlp-quant-mlp v1\n"
    "topology 3 2 1 2\n"
    "bits 8 8\n"
    "layer 0 4 2\n"
    "w 0 3 -4\n"
    "b 0 10\n"
    "layer 1 8 0\n"
    "w 0 127\n"
    "w 1 -128\n"
    "b 0 -5\n"
    "b 1 0\n"
    "end\n";

core::HwEvaluatedPoint golden_point() {
  core::HwEvaluatedPoint p;
  p.model = golden_model();
  p.test_accuracy = 0.75;
  p.fa_area = 9;
  p.functional_match = false;
  p.cost.area_mm2 = 1.5;
  p.cost.power_uw = 2500.0;
  p.cost.critical_delay_us = 12.0;
  p.cost.cell_count = 321;
  return p;
}

}  // namespace

// ------------------------------------------------------- in-memory formats

TEST(FormatGolden, ApproxMlp) {
  EXPECT_EQ(core::to_text(golden_model()), kModelText);
  EXPECT_EQ(core::to_text(core::from_text(kModelText)), kModelText);
}

TEST(FormatGolden, Dataset) {
  ds::Dataset d;
  d.name = "tiny set";
  d.n_features = 2;
  d.n_classes = 2;
  d.features = {0.1, -2.5, 0.0, 1.0};
  d.labels = {1, 0};
  const std::string text =
      "pmlp-dataset v1\n"
      "name tiny set\n"
      "shape 2 2 2\n"
      "row 1 0x1.999999999999ap-4 -0x1.4p+1\n"
      "row 0 0x0p+0 0x1p+0\n"
      "end\n";
  EXPECT_EQ(dump(d, core::save_dataset), text);
  EXPECT_EQ(reload(text, core::load_dataset, core::save_dataset), text);
}

TEST(FormatGolden, QuantDataset) {
  ds::QuantizedDataset d;  // empty name: written as the "-" placeholder
  d.n_features = 3;
  d.n_classes = 3;
  d.input_bits = 4;
  d.codes = {0, 15, 7, 8, 1, 14};
  d.labels = {2, 0};
  const std::string text =
      "pmlp-quant-dataset v1\n"
      "name -\n"
      "shape 3 3 4 2\n"
      "row 2 0 15 7\n"
      "row 0 8 1 14\n"
      "end\n";
  EXPECT_EQ(dump(d, core::save_quant_dataset), text);
  EXPECT_EQ(
      reload(text, core::load_quant_dataset, core::save_quant_dataset),
      text);
}

TEST(FormatGolden, FloatMlp) {
  mlp::FloatMlp net(kTopo, 0);
  auto& l0 = net.layers()[0];
  l0.weights = {0.5, -0.25};
  l0.biases = {0.1};
  auto& l1 = net.layers()[1];
  l1.weights = {1.0, -1.0};
  l1.biases = {0.0, 3.0};
  const std::string text =
      "pmlp-float-mlp v1\n"
      "topology 3 2 1 2\n"
      "layer 0\n"
      "w 0 0x1p-1 -0x1p-2\n"
      "b 0 0x1.999999999999ap-4\n"
      "layer 1\n"
      "w 0 0x1p+0\n"
      "w 1 -0x1p+0\n"
      "b 0 0x0p+0\n"
      "b 1 0x1.8p+1\n"
      "end\n";
  EXPECT_EQ(dump(net, core::save_float_mlp), text);
  EXPECT_EQ(reload(text, core::load_float_mlp, core::save_float_mlp), text);
}

TEST(FormatGolden, QuantMlp) {
  EXPECT_EQ(dump(golden_quant_net(), core::save_quant_mlp), kQuantNetText);
  EXPECT_EQ(
      reload(kQuantNetText, core::load_quant_mlp, core::save_quant_mlp),
      kQuantNetText);
}

TEST(FormatGolden, Baseline) {
  core::BaselinePricing p;
  p.net = golden_quant_net();
  p.cost.area_mm2 = 123.5;
  p.cost.power_uw = 4500.0;
  p.cost.critical_delay_us = 7.25;
  p.cost.cell_count = 99;
  p.train_accuracy = 0.875;
  p.test_accuracy = 0.5;
  const std::string text = std::string("pmlp-baseline v1\n") +
                           "cost 0x1.eep+6 0x1.194p+12 0x1.dp+2 99\n"
                           "train_accuracy 0x1.cp-1\n"
                           "test_accuracy 0x1p-1\n" +
                           kQuantNetText + "end\n";
  EXPECT_EQ(dump(p, core::save_baseline_pricing), text);
  EXPECT_EQ(reload(text, core::load_baseline_pricing,
                   core::save_baseline_pricing),
            text);
}

TEST(FormatGolden, Training) {
  core::TrainingResult t;
  t.evaluations = 12;
  t.wall_seconds = 0.5;
  t.baseline_train_accuracy = 0.75;
  t.evals_per_second = 24.0;
  t.cache_hits = 3;
  t.cache_hit_rate = 0.25;
  core::EstimatedPoint p;
  p.model = golden_model();
  p.train_accuracy = 0.625;
  p.fa_area = 42;
  t.estimated_pareto.push_back(std::move(p));
  const std::string text = std::string("pmlp-training v1\n") +
                           "counters 12 0x1p-1 0x1.8p-1 0x1.8p+4 3 0x1p-2\n"
                           "count 1\n"
                           "point 0x1.4p-1 42\n"
                           "model\n" +
                           kModelText + "endmodel\nend\n";
  EXPECT_EQ(dump(t, core::save_training_result), text);
  EXPECT_EQ(reload(text, core::load_training_result,
                   core::save_training_result),
            text);
}

TEST(FormatGolden, Evaluated) {
  const std::vector<core::HwEvaluatedPoint> pts = {golden_point()};
  const std::string text = std::string("pmlp-evaluated v1\n") +
                           "count 1\n"
                           "point 0x1.8p-1 9 0 0x1.8p+0 0x1.388p+11 "
                           "0x1.8p+3 321\n"
                           "model\n" +
                           kModelText + "endmodel\nend\n";
  const auto save = [](const auto& v, std::ostream& os) {
    core::save_evaluated_points(v, os);
  };
  EXPECT_EQ(dump(pts, save), text);
  EXPECT_EQ(reload(text, core::load_evaluated_points, save), text);
}

TEST(FormatGolden, GaState) {
  nsga2::GenerationState st;
  st.next_generation = 3;
  st.evaluations = 40;
  st.rng = "1 2 3";  // opaque to the format: the rest of its line
  nsga2::Individual a;
  a.genes = {1, -2};
  a.objectives = {0.5, 7.0};
  a.rank = 0;
  a.crowding = std::numeric_limits<double>::infinity();
  nsga2::Individual b;
  b.genes = {0, 4};
  b.objectives = {-1.0, 0.0};
  b.rank = 1;
  b.crowding = 0.25;
  b.constraint_violation = 1.5;
  st.population = {a, b};
  const std::string text =
      "pmlp-ga-state v1\n"
      "generation 3\n"
      "evaluations 40\n"
      "rng 1 2 3\n"
      "population 2 2 2\n"
      "ind 0 inf 0x0p+0\n"
      "genes 1 -2\n"
      "obj 0x1p-1 0x1.cp+2\n"
      "ind 1 0x1p-2 0x1.8p+0\n"
      "genes 0 4\n"
      "obj -0x1p+0 0x0p+0\n"
      "end\n";
  EXPECT_EQ(dump(st, core::save_ga_state), text);
  EXPECT_EQ(reload(text, core::load_ga_state, core::save_ga_state), text);
}

// ------------------------------------------------------------ file formats

TEST(FormatGolden, CampaignManifest) {
  pmlp::test::TempDir dir("pmlp_golden", "manifest");
  core::CampaignManifest m;
  m.population = 8;
  m.generations = 2;
  m.ga_checkpoint = 1;
  m.flows = {{"a_s1", "A", 1}, {"b_s2", "B", 2}};
  core::save_campaign_manifest(m, dir.path.string());
  EXPECT_EQ(slurp(dir.path / "campaign.txt"),
            "pmlp-campaign v1\n"
            "population 8\n"
            "generations 2\n"
            "ga_checkpoint 1\n"
            "flows 2\n"
            "flow a_s1 A 1\n"
            "flow b_s2 B 2\n"
            "end\n"
            "# crc32 6c1964ed lines 8\n");
}

TEST(FormatGolden, ClaimAndBeat) {
  pmlp::test::TempDir dir("pmlp_golden", "lease");
  fs::create_directories(dir.path);
  ASSERT_TRUE(core::lease::try_claim(dir.path.string(), "w1"));
  // Host and pid vary by machine and run: mask their values.
  std::istringstream claim(slurp(dir.path / "claim.lock"));
  std::string masked, line;
  while (std::getline(claim, line)) {
    if (line.rfind("host ", 0) == 0) line = "host *";
    if (line.rfind("pid ", 0) == 0) line = "pid *";
    masked += line + '\n';
  }
  EXPECT_EQ(masked, "pmlp-claim v1\nworker w1\nhost *\npid *\nend\n");

  core::lease::write_beat(dir.path.string(), "w1", 7);
  EXPECT_EQ(slurp(dir.path / "beat.txt"),
            "pmlp-beat v1\nworker w1\ncount 7\nend\n");
}

// One worker drains a two-flow grid: "ok" completes (meta + done marker),
// "bad" fails its first stage with a fixed message (failures + failed
// markers). A CampaignRunner pass over "ok" then rewrites its done marker
// with the placeholder worker name.
TEST(FormatGolden, FlowMetaAndWorkerMarkers) {
  pmlp::test::TempDir dir("pmlp_golden", "markers");
  fs::create_directories(dir.path);
  // Hand-built data (not a synthetic generator) so the meta digest does
  // not depend on the standard library's distributions.
  ds::Dataset data;
  data.name = "golden data";
  data.n_features = 2;
  data.n_classes = 2;
  for (int i = 0; i < 24; ++i) {
    const double x = (i % 8) / 8.0, y = (i % 5) / 5.0;
    data.features.insert(data.features.end(), {x, y});
    data.labels.push_back(x + y > 0.9 ? 1 : 0);
  }
  core::FlowConfig cfg;
  cfg.backprop.epochs = 5;
  cfg.backprop.restarts = 1;
  cfg.trainer.ga.population = 8;
  cfg.trainer.ga.generations = 2;
  cfg.hardware.equivalence_samples = 4;
  const mlp::Topology topo{{2, 2, 2}};
  core::FlowConfig bad_cfg = cfg;
  bad_cfg.train_fraction = 1.5;  // the split stage rejects it
  std::vector<core::CampaignFlowSpec> specs = {
      {"ok", "BreastCancer", data, topo, cfg},
      {"bad", "BreastCancer", data, topo, bad_cfg}};

  core::WorkerConfig wcfg;
  wcfg.checkpoint_root = dir.path.string();
  wcfg.worker_id = "golden";
  wcfg.max_failures = 1;
  wcfg.heartbeat_s = 0.05;
  wcfg.backoff_initial_s = 0.01;
  wcfg.backoff_max_s = 0.05;
  {
    core::CampaignWorker worker(specs, wcfg);
    const auto result = worker.run();
    ASSERT_EQ(result.completed, 1);
    ASSERT_EQ(result.failed, 1);
  }

  EXPECT_EQ(slurp(dir.path / "ok" / "meta.txt"),
            "pmlp-flow-meta v1\n"
            "dataset golden data\n"
            "digest 7433569139050967818\n"
            "config 4998654376168279365\n"
            "end\n"
            "# crc32 bf692a5f lines 5\n");
  EXPECT_EQ(slurp(dir.path / "ok" / "done.txt"),
            "pmlp-done v1\nworker golden\nend\n"
            "# crc32 db618cc3 lines 3\n");
  EXPECT_EQ(slurp(dir.path / "bad" / "failures.txt"),
            "pmlp-failures v1\n"
            "count 1\n"
            "error stratified_split: fraction out of (0,1)\n"
            "end\n"
            "# crc32 ba0bd067 lines 4\n");
  EXPECT_EQ(slurp(dir.path / "bad" / "failed.txt"),
            "pmlp-failed v1\n"
            "worker golden\n"
            "error stratified_split: fraction out of (0,1)\n"
            "end\n"
            "# crc32 162779d4 lines 4\n");

  core::CampaignConfig ccfg;
  ccfg.n_threads = 1;
  ccfg.checkpoint_root = dir.path.string();
  core::CampaignRunner runner(ccfg);
  runner.add_flow(specs[0]);
  const auto result = runner.run();
  ASSERT_EQ(result.flows.size(), 1u);
  ASSERT_EQ(result.flows[0].status, core::CampaignFlowStatus::kDone);
  EXPECT_EQ(slurp(dir.path / "ok" / "done.txt"),
            "pmlp-done v1\nworker -\nend\n"
            "# crc32 88710705 lines 3\n");
}
