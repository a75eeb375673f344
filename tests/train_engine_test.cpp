// Tests for the sample-blocked SIMD TrainEngine (mlp/train_engine.hpp)
// against its contract: the per-sample train_backprop_naive loop is the
// reference oracle (bit-exact in the single-block scalar case on x86-64,
// tolerance-equal otherwise), results are bit-identical across thread
// counts and across runs for a given ISA, the scalar and dispatched-ISA
// paths converge to the same accuracy, and the flow checkpoint fingerprint
// accepts an ISA/thread change on resume.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "backprop_oracle.hpp"
#include "flow_test_util.hpp"
#include "pmlp/core/flow_engine.hpp"
#include "pmlp/core/simd.hpp"
#include "pmlp/core/suite.hpp"
#include "pmlp/core/thread_pool.hpp"
#include "pmlp/datasets/synthetic.hpp"
#include "pmlp/mlp/backprop.hpp"
#include "pmlp/mlp/train_engine.hpp"

namespace core = pmlp::core;
namespace ds = pmlp::datasets;
namespace mlp = pmlp::mlp;
namespace oracles = pmlp::oracles;

namespace {

struct TempDir : pmlp::test::TempDir {
  explicit TempDir(const char* tag)
      : pmlp::test::TempDir("pmlp_train_engine_test", tag) {}
};

/// Force an ISA for the duration of a scope, restoring the previous one.
struct ScopedIsa {
  core::SimdIsa prev;
  explicit ScopedIsa(core::SimdIsa isa) : prev(core::active_simd_isa()) {
    core::set_simd_isa(isa);
  }
  ~ScopedIsa() { core::set_simd_isa(prev); }
};

ds::Dataset small_data(int n_samples = 200) {
  auto spec = ds::breast_cancer_spec();
  spec.n_samples = n_samples;
  return ds::generate(spec);
}

mlp::Topology small_topo() { return mlp::Topology{{10, 3, 2}}; }

mlp::BackpropConfig small_cfg() {
  mlp::BackpropConfig cfg;
  cfg.epochs = 30;
  cfg.seed = 91;
  return cfg;
}

void expect_same_weights(const mlp::FloatMlp& a, const mlp::FloatMlp& b) {
  ASSERT_EQ(a.layers().size(), b.layers().size());
  for (std::size_t l = 0; l < a.layers().size(); ++l) {
    const auto& la = a.layers()[l];
    const auto& lb = b.layers()[l];
    ASSERT_EQ(la.weights.size(), lb.weights.size());
    for (std::size_t w = 0; w < la.weights.size(); ++w) {
      EXPECT_EQ(la.weights[w], lb.weights[w]) << "layer " << l << " w " << w;
    }
    ASSERT_EQ(la.biases.size(), lb.biases.size());
    for (std::size_t b_ = 0; b_ < la.biases.size(); ++b_) {
      EXPECT_EQ(la.biases[b_], lb.biases[b_]) << "layer " << l << " b " << b_;
    }
  }
}

[[maybe_unused]] double max_weight_delta(const mlp::FloatMlp& a,
                                         const mlp::FloatMlp& b) {
  double mx = 0.0;
  for (std::size_t l = 0; l < a.layers().size(); ++l) {
    for (std::size_t w = 0; w < a.layers()[l].weights.size(); ++w) {
      mx = std::max(mx, std::abs(a.layers()[l].weights[w] -
                                 b.layers()[l].weights[w]));
    }
    for (std::size_t b_ = 0; b_ < a.layers()[l].biases.size(); ++b_) {
      mx = std::max(mx, std::abs(a.layers()[l].biases[b_] -
                                 b.layers()[l].biases[b_]));
    }
  }
  return mx;
}

}  // namespace

// With batch_size <= kBlockSamples every batch is one block, so the engine
// under scalar dispatch performs the naive loop's arithmetic in the naive
// loop's order: the trained weights must match bit for bit on x86-64
// (where plain C++ cannot contract a*b+c into FMA). The epoch-loss
// accumulation associates differently across batches (per-block partials),
// so the loss is compared with a tolerance.
TEST(TrainEngine, ScalarSingleBlockMatchesNaiveOracle) {
  const auto data = small_data();
  auto cfg = small_cfg();
  ASSERT_LE(cfg.batch_size, mlp::TrainEngine::kBlockSamples);

  ScopedIsa scalar(core::SimdIsa::kScalar);
  mlp::FloatMlp naive_net(small_topo(), cfg.seed);
  const auto naive = oracles::train_backprop_naive(naive_net, data, cfg);

  mlp::FloatMlp engine_net(small_topo(), cfg.seed);
  const auto engine = mlp::train_backprop(engine_net, data, cfg);

  EXPECT_EQ(engine.epochs_run, naive.epochs_run);
  EXPECT_NEAR(engine.final_loss, naive.final_loss, 1e-9);
#if defined(__x86_64__)
  expect_same_weights(naive_net, engine_net);
  EXPECT_EQ(engine.final_train_accuracy, naive.final_train_accuracy);
#else
  EXPECT_LT(max_weight_delta(naive_net, engine_net), 1e-9);
  EXPECT_NEAR(engine.final_train_accuracy, naive.final_train_accuracy, 0.02);
#endif
}

// The report carries the runtime metadata the flow/bench JSON surfaces.
TEST(TrainEngine, ReportRecordsThroughputAndIsa) {
  const auto data = small_data();
  auto cfg = small_cfg();
  mlp::FloatMlp net(small_topo(), cfg.seed);
  const auto report = mlp::train_backprop(net, data, cfg);
  EXPECT_EQ(report.epochs_run, cfg.epochs);
  EXPECT_GT(report.samples_per_second, 0.0);
  EXPECT_EQ(report.simd_isa, core::simd_isa_name(core::active_simd_isa()));
  EXPECT_EQ(report.block, mlp::TrainEngine::kBlockSamples);
  EXPECT_EQ(report.threads, 1);
}

// Dispatched-ISA engine training converges like the naive oracle: same
// final train/test accuracy within tolerance on the paper suite datasets.
TEST(TrainEngine, ConvergenceMatchesNaiveOnSuiteDatasets) {
  for (const char* name : {"BreastCancer", "RedWine"}) {
    const auto data = core::load_paper_dataset(name);
    const auto split = ds::stratified_split(data, 0.7, 1);
    const auto& topo = core::paper_topology(name);
    mlp::BackpropConfig cfg;
    cfg.epochs = 60;
    cfg.seed = 7;

    mlp::FloatMlp naive_net(topo, cfg.seed);
    const auto naive =
        oracles::train_backprop_naive(naive_net, split.train, cfg);
    mlp::FloatMlp engine_net(topo, cfg.seed);
    const auto engine = mlp::train_backprop(engine_net, split.train, cfg);

    EXPECT_NEAR(engine.final_train_accuracy, naive.final_train_accuracy,
                0.03)
        << name;
    EXPECT_NEAR(mlp::accuracy(engine_net, split.test),
                mlp::accuracy(naive_net, split.test), 0.05)
        << name;
    EXPECT_NEAR(engine.final_loss, naive.final_loss, 0.05) << name;
  }
}

// Multi-block batches sharded over no pool and pools of 1, 2, 4 and auto
// workers must produce bit-identical nets (fixed block partition, shards
// reduced in block order), and repeated runs must reproduce themselves
// exactly.
TEST(TrainEngine, BitIdenticalAcrossThreadCountsAndRuns) {
  const auto data = small_data(300);
  auto cfg = small_cfg();
  cfg.batch_size = 96;  // three blocks per full batch
  ASSERT_GT(cfg.batch_size, mlp::TrainEngine::kBlockSamples);

  core::ThreadPool p1(1), p2(2), p4(4), p_auto(0);
  // Trailing nullptr = serial repeat run.
  const std::vector<core::ThreadPool*> pools{nullptr, &p1, &p2, &p4, &p_auto,
                                             nullptr};
  std::vector<mlp::FloatMlp> nets;
  std::vector<mlp::BackpropReport> reports;
  for (core::ThreadPool* pool : pools) {
    mlp::FloatMlp net(small_topo(), cfg.seed);
    reports.push_back(mlp::train_backprop(net, data, cfg, pool));
    nets.push_back(std::move(net));
  }
  for (std::size_t i = 1; i < nets.size(); ++i) {
    expect_same_weights(nets[0], nets[i]);
    EXPECT_EQ(reports[0].final_train_accuracy,
              reports[i].final_train_accuracy);
    EXPECT_EQ(reports[0].final_loss, reports[i].final_loss);
    EXPECT_EQ(reports[i].threads, core::pool_size(pools[i]));
  }
  EXPECT_EQ(reports[0].threads, 1);
}

// Forced-scalar vs dispatched-ISA training: the float summation order (and
// FMA contraction) differs, so weights drift, but both converge to the
// same quality within tolerance. On machines whose best ISA IS scalar the
// comparison is trivially exact, which is also correct.
TEST(TrainEngine, ScalarVsDispatchedWithinTolerance) {
  const auto data = small_data();
  const auto cfg = small_cfg();

  mlp::FloatMlp scalar_net(small_topo(), cfg.seed);
  mlp::BackpropReport scalar_report;
  {
    ScopedIsa scalar(core::SimdIsa::kScalar);
    scalar_report = mlp::train_backprop(scalar_net, data, cfg);
    EXPECT_EQ(scalar_report.simd_isa, "scalar");
  }
  mlp::FloatMlp simd_net(small_topo(), cfg.seed);
  mlp::BackpropReport simd_report;
  {
    ScopedIsa best(core::detect_simd_isa());
    simd_report = mlp::train_backprop(simd_net, data, cfg);
  }
  EXPECT_NEAR(simd_report.final_train_accuracy,
              scalar_report.final_train_accuracy, 0.03);
  EXPECT_NEAR(simd_report.final_loss, scalar_report.final_loss, 0.05);
}

// The engine throws on nets that do not fit the dataset instead of reading
// out of bounds.
TEST(TrainEngine, RejectsMismatchedNet) {
  const auto data = small_data();
  const auto cfg = small_cfg();
  mlp::FloatMlp wrong_inputs(mlp::Topology{{7, 3, 2}}, 1);
  EXPECT_THROW(mlp::train_backprop(wrong_inputs, data, cfg),
               std::invalid_argument);
  mlp::FloatMlp wrong_outputs(mlp::Topology{{10, 3, 1}}, 1);
  EXPECT_THROW(mlp::train_backprop(wrong_outputs, data, cfg),
               std::invalid_argument);
}

// Flow-level: the checkpoint fingerprint excludes both the thread knob and
// the ISA (runtime state), so a checkpoint written under one configuration
// resumes under another — reloading the stored float net keeps the whole
// FlowResult bit-identical.
TEST(TrainEngine, FlowCheckpointAcceptsIsaAndThreadChange) {
  TempDir dir("isa_resume");
  auto spec = ds::breast_cancer_spec();
  spec.n_samples = 200;
  const auto data = ds::generate(spec);
  core::FlowConfig cfg;
  cfg.backprop.epochs = 30;
  cfg.backprop.seed = 61;
  cfg.trainer.ga.population = 16;
  cfg.trainer.ga.generations = 6;
  cfg.trainer.ga.seed = 61;
  cfg.trainer.n_threads = 1;
  cfg.hardware.equivalence_samples = 8;
  const mlp::Topology topo{{10, 3, 2}};

  core::FlowResult r1;
  {
    ScopedIsa scalar(core::SimdIsa::kScalar);
    core::FlowEngine first(data, topo, cfg);
    first.set_checkpoint_dir(dir.path.string());
    r1 = first.run();
    EXPECT_EQ(r1.backprop.simd_isa, "scalar");
    EXPECT_GT(r1.backprop.samples_per_second, 0.0);
  }

  auto resumed_cfg = cfg;
  resumed_cfg.trainer.n_threads = 4;  // excluded from the fingerprint
  core::FlowResult r2;
  {
    ScopedIsa best(core::detect_simd_isa());
    core::FlowEngine second(data, topo, resumed_cfg);
    second.set_checkpoint_dir(dir.path.string());
    r2 = second.run();
  }
  pmlp::test::expect_same_result(r1, r2);
  // Every stage up to select was reloaded, none retrained: the backprop
  // report is all zeros in the resumed run (runtime metadata, not
  // checkpointed).
  for (const auto& s : r2.stages) {
    EXPECT_EQ(s.reused, s.stage != core::FlowStage::kSelect)
        << core::flow_stage_name(s.stage);
  }
  EXPECT_EQ(r2.backprop.samples_per_second, 0.0);
  EXPECT_TRUE(r2.backprop.simd_isa.empty());
}
