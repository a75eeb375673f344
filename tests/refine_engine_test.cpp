// Tests for the incremental refine engine (refine_engine.hpp / refine.cpp):
// the memoized/delta/early-abort refine_greedy must be bit-identical to the
// naive full-re-evaluation oracle on every path (mask bits, biases, stale
// shifts, fully-pruned models, strict floors), and the pool-parallel
// refine_front must match the serial loop exactly on any borrowed pool.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "pmlp/bitops/bitops.hpp"
#include "pmlp/core/refine.hpp"
#include "pmlp/core/refine_engine.hpp"
#include "pmlp/core/serialize.hpp"
#include "pmlp/core/thread_pool.hpp"
#include "pmlp/datasets/synthetic.hpp"
#include "pmlp/mlp/backprop.hpp"

namespace core = pmlp::core;
namespace ds = pmlp::datasets;
namespace mlp = pmlp::mlp;

namespace {

ds::QuantizedDataset make_train(int n_samples, std::uint64_t seed) {
  auto spec = ds::breast_cancer_spec();
  spec.n_samples = n_samples;
  spec.seed = seed;
  return ds::quantize_inputs(ds::generate(spec), 4);
}

/// A trained, doped-style model (all masks set, pow2 weights) — the shape
/// refine sees in the real flow.
core::ApproxMlp trained_model(const ds::QuantizedDataset& train,
                              std::uint64_t seed, int hidden = 3) {
  auto spec = ds::breast_cancer_spec();
  spec.n_samples = static_cast<int>(train.size());
  spec.seed = seed;
  auto raw = ds::generate(spec);
  mlp::BackpropConfig bp;
  bp.epochs = 60;
  bp.seed = seed;
  auto fnet = mlp::train_float_mlp(
      mlp::Topology{{raw.n_features, hidden, raw.n_classes}}, raw, bp);
  return core::ApproxMlp::from_quant_baseline(mlp::QuantMlp::from_float(fnet),
                                              core::BitConfig{});
}

/// Random sparse perturbation of masks/signs/exponents/biases — exercises
/// partially-pruned connections and shift changes the doped seed never has.
void perturb(core::ApproxMlp& net, std::uint64_t seed, bool sync_shifts) {
  std::mt19937_64 rng(seed);
  for (auto& layer : net.layers()) {
    const auto width_mask =
        static_cast<std::uint32_t>(pmlp::bitops::low_mask(layer.input_bits));
    for (auto& c : layer.conns) {
      if (rng() % 3 == 0) c.mask &= static_cast<std::uint32_t>(rng()) & width_mask;
      if (rng() % 5 == 0) c.sign = -c.sign;
      if (rng() % 4 == 0) {
        c.exponent = static_cast<int>(rng() % (net.bits().max_exponent() + 1));
      }
    }
    for (auto& b : layer.biases) {
      if (rng() % 3 == 0) {
        const auto span = net.bits().bias_max() - net.bits().bias_min();
        b = net.bits().bias_min() +
            static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(span));
      }
    }
  }
  if (sync_shifts) net.update_qrelu_shifts();
}

void expect_same_refine(core::ApproxMlp oracle_net, core::ApproxMlp engine_net,
                        const ds::QuantizedDataset& train,
                        const core::RefineConfig& cfg) {
  const auto oracle = core::refine_greedy_naive(oracle_net, train, cfg);
  const auto engine = core::refine_greedy(engine_net, train, cfg);

  // Same decisions -> same final parameters (masks, signs, biases, shifts).
  EXPECT_EQ(core::to_text(oracle_net), core::to_text(engine_net));
  // Same report, bit for bit (early_aborts is engine-only by design).
  EXPECT_EQ(oracle.bits_cleared, engine.bits_cleared);
  EXPECT_EQ(oracle.biases_simplified, engine.biases_simplified);
  EXPECT_EQ(oracle.fa_before, engine.fa_before);
  EXPECT_EQ(oracle.fa_after, engine.fa_after);
  EXPECT_EQ(oracle.accuracy_before, engine.accuracy_before);
  EXPECT_EQ(oracle.accuracy_after, engine.accuracy_after);
  EXPECT_EQ(oracle.passes, engine.passes);
  EXPECT_EQ(oracle.trials, engine.trials);
}

}  // namespace

TEST(RefineEngineOracle, TrainedModelDefaultConfig) {
  const auto train = make_train(240, 51);
  const auto model = trained_model(train, 51);
  core::RefineConfig cfg;
  cfg.accuracy_floor = core::accuracy(model, train) - 0.03;
  expect_same_refine(model, model, train, cfg);
}

TEST(RefineEngineOracle, StrictFloor) {
  const auto train = make_train(240, 52);
  const auto model = trained_model(train, 52);
  core::RefineConfig cfg;
  cfg.accuracy_floor = core::accuracy(model, train);  // no loss allowed
  expect_same_refine(model, model, train, cfg);
}

TEST(RefineEngineOracle, UnreachableFloorRejectsEverything) {
  const auto train = make_train(160, 53);
  const auto model = trained_model(train, 53);
  core::RefineConfig cfg;
  cfg.accuracy_floor = 1.5;  // beyond any accuracy: every trial must fail
  const auto before = core::to_text(model);
  expect_same_refine(model, model, train, cfg);
  auto copy = model;
  const auto report = core::refine_greedy(copy, train, cfg);
  EXPECT_EQ(report.bits_cleared, 0);
  EXPECT_EQ(report.biases_simplified, 0);
  EXPECT_EQ(core::to_text(copy), before);
  // All rejections happen before any sample is scanned.
  EXPECT_EQ(report.early_aborts, report.trials);
}

TEST(RefineEngineOracle, BiasRefineDisabled) {
  const auto train = make_train(200, 54);
  const auto model = trained_model(train, 54);
  core::RefineConfig cfg;
  cfg.accuracy_floor = core::accuracy(model, train) - 0.05;
  cfg.refine_biases = false;
  expect_same_refine(model, model, train, cfg);
}

TEST(RefineEngineOracle, MultiPassLooseFloor) {
  const auto train = make_train(200, 55);
  const auto model = trained_model(train, 55, /*hidden=*/4);
  core::RefineConfig cfg;
  cfg.accuracy_floor = 0.0;  // everything may go
  cfg.max_passes = 5;
  expect_same_refine(model, model, train, cfg);
}

TEST(RefineEngineOracle, PerturbedModelsPropertySweep) {
  const auto train = make_train(180, 56);
  const auto base = trained_model(train, 56);
  for (std::uint64_t seed : {7u, 19u, 101u, 4242u}) {
    auto model = base;
    perturb(model, seed, /*sync_shifts=*/true);
    core::RefineConfig cfg;
    cfg.accuracy_floor = core::accuracy(model, train) - 0.04;
    expect_same_refine(model, model, train, cfg);
  }
}

TEST(RefineEngineOracle, StaleIncomingShifts) {
  // Callers are supposed to hand over synced shifts, but the naive loop
  // tolerates stale ones (its first edit re-syncs); the engine must agree
  // on accuracy_before AND on every decision after the sync.
  const auto train = make_train(180, 57);
  auto model = trained_model(train, 57);
  perturb(model, 77, /*sync_shifts=*/false);  // leaves shifts stale
  core::RefineConfig cfg;
  cfg.accuracy_floor = 0.3;
  expect_same_refine(model, model, train, cfg);
}

TEST(RefineEngineOracle, FullyPrunedModelUntouched) {
  const auto train = make_train(160, 58);
  const auto base = trained_model(train, 58);
  core::ApproxMlp empty(base.topology(), base.bits());
  core::RefineConfig cfg;
  cfg.accuracy_floor = 0.0;
  expect_same_refine(empty, empty, train, cfg);
  auto copy = empty;
  const auto report = core::refine_greedy(copy, train, cfg);
  EXPECT_EQ(report.fa_before, 0);
  EXPECT_EQ(report.fa_after, 0);
  EXPECT_EQ(report.bits_cleared, 0);
}

TEST(RefineEngine, EarlyAbortEngagesUnderTightFloor) {
  // A tight-but-reachable floor makes most trials fail, and failing trials
  // should mostly abort before scanning the whole dataset.
  const auto train = make_train(240, 59);
  auto model = trained_model(train, 59);
  core::RefineConfig cfg;
  cfg.accuracy_floor = core::accuracy(model, train);
  const auto report = core::refine_greedy(model, train, cfg);
  EXPECT_GT(report.trials, 0);
  EXPECT_GT(report.early_aborts, 0);
}

TEST(RefineEngine, AccuracyMatchesNaiveAccuracy) {
  const auto train = make_train(200, 60);
  auto model = trained_model(train, 60);
  core::RefineEngine engine(model, train);
  EXPECT_EQ(engine.accuracy(), core::accuracy(model, train));
}

// --------------------------------------------------------------- refine_front

namespace {

/// A small synthetic "front": the trained model plus perturbed variants at
/// different sparsities, with the accuracies/areas refine_front expects.
std::vector<core::EstimatedPoint> make_front(const ds::QuantizedDataset& train,
                                             std::uint64_t seed, int n) {
  const auto base = trained_model(train, seed);
  std::vector<core::EstimatedPoint> front;
  for (int i = 0; i < n; ++i) {
    core::EstimatedPoint p;
    p.model = base;
    if (i > 0) perturb(p.model, seed + static_cast<std::uint64_t>(i), true);
    p.train_accuracy = core::accuracy(p.model, train);
    p.fa_area = p.model.fa_area();
    front.push_back(std::move(p));
  }
  return front;
}

/// The pre-engine refine_front loop, verbatim (naive refine + full accuracy
/// re-scan), as the oracle for the parallel fan-out.
void refine_front_naive(std::span<core::EstimatedPoint> front,
                        const ds::QuantizedDataset& train,
                        double baseline_train_accuracy, double max_point_loss,
                        double max_total_loss) {
  for (auto& point : front) {
    core::RefineConfig cfg;
    cfg.accuracy_floor = std::max(point.train_accuracy - max_point_loss,
                                  baseline_train_accuracy - max_total_loss);
    (void)core::refine_greedy_naive(point.model, train, cfg);
    point.train_accuracy = core::accuracy(point.model, train);
    point.fa_area = point.model.fa_area();
  }
}

void expect_same_front(const std::vector<core::EstimatedPoint>& a,
                       const std::vector<core::EstimatedPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(core::to_text(a[i].model), core::to_text(b[i].model)) << i;
    EXPECT_EQ(a[i].train_accuracy, b[i].train_accuracy) << i;
    EXPECT_EQ(a[i].fa_area, b[i].fa_area) << i;
  }
}

void check_front_threads(int n_threads) {
  core::ThreadPool pool(n_threads);
  const auto train = make_train(200, 61);
  const double baseline_acc = 0.8;

  auto oracle = make_front(train, 61, 6);
  refine_front_naive(oracle, train, baseline_acc, 0.01, 0.05);

  auto refined = make_front(train, 61, 6);
  const auto report =
      core::refine_front(refined, train, baseline_acc, 0.01, 0.05, &pool);
  expect_same_front(oracle, refined);
  EXPECT_EQ(report.points, 6);
  EXPECT_GT(report.trials, 0);
}

}  // namespace

// One named test per pool size so CI can assert each configuration ran.
TEST(RefineFrontParallel, BitIdenticalThreads1) { check_front_threads(1); }

TEST(RefineFrontParallel, BitIdenticalThreads2) { check_front_threads(2); }

TEST(RefineFrontParallel, BitIdenticalThreads4) { check_front_threads(4); }

TEST(RefineFrontParallel, AutoThreadsMatchesSerial) {
  const auto train = make_train(160, 62);
  auto serial = make_front(train, 62, 5);
  const auto r1 = core::refine_front(serial, train, 0.8, 0.01, 0.05);
  auto parallel = make_front(train, 62, 5);
  core::ThreadPool pool(0);
  const auto r0 =
      core::refine_front(parallel, train, 0.8, 0.01, 0.05, &pool);
  expect_same_front(serial, parallel);
  // The aggregated counters are scheduling-independent too.
  EXPECT_EQ(r1.trials, r0.trials);
  EXPECT_EQ(r1.early_aborts, r0.early_aborts);
  EXPECT_EQ(r1.bits_cleared, r0.bits_cleared);
  EXPECT_EQ(r1.biases_simplified, r0.biases_simplified);
}
