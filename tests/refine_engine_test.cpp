// Tests for the incremental refine engine (refine_engine.hpp / refine.cpp):
// the block-vectorized refine_greedy must be bit-identical to the naive
// full-re-evaluation oracle (refine_oracle.hpp) on every path — mask bits,
// biases, QReLU-shift changes, stale shifts, fully-pruned models, strict
// floors, 10-class ties, deeper nets, block tails, int64 lanes — under
// every dispatchable ISA; its trial kernels must agree across ISAs; and the
// pool-parallel refine_front must match the serial loop exactly on any
// borrowed pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "pmlp/bitops/bitops.hpp"
#include "pmlp/core/eval_kernels.hpp"
#include "pmlp/core/simd.hpp"
#include "pmlp/core/refine.hpp"
#include "pmlp/core/refine_engine.hpp"
#include "pmlp/core/serialize.hpp"
#include "pmlp/core/thread_pool.hpp"
#include "pmlp/datasets/synthetic.hpp"
#include "pmlp/mlp/backprop.hpp"
#include "refine_oracle.hpp"

namespace core = pmlp::core;
namespace ds = pmlp::datasets;
namespace mlp = pmlp::mlp;

namespace {

ds::QuantizedDataset make_train(
    int n_samples, std::uint64_t seed,
    ds::SyntheticSpec spec = ds::breast_cancer_spec()) {
  spec.n_samples = n_samples;
  spec.seed = seed;
  return ds::quantize_inputs(ds::generate(spec), 4);
}

/// A trained, doped-style model (all masks set, pow2 weights) — the shape
/// refine sees in the real flow — with the given hidden layer widths.
core::ApproxMlp trained_model(const ds::QuantizedDataset& train,
                              std::uint64_t seed, std::vector<int> hidden,
                              ds::SyntheticSpec spec = ds::breast_cancer_spec(),
                              core::BitConfig bits = core::BitConfig{}) {
  spec.n_samples = static_cast<int>(train.size());
  spec.seed = seed;
  auto raw = ds::generate(spec);
  mlp::BackpropConfig bp;
  bp.epochs = 60;
  bp.seed = seed;
  std::vector<int> layers{raw.n_features};
  layers.insert(layers.end(), hidden.begin(), hidden.end());
  layers.push_back(raw.n_classes);
  auto fnet = mlp::train_float_mlp(mlp::Topology{layers}, raw, bp);
  return core::ApproxMlp::from_quant_baseline(mlp::QuantMlp::from_float(fnet),
                                              bits);
}

core::ApproxMlp trained_model(const ds::QuantizedDataset& train,
                              std::uint64_t seed, int hidden = 3) {
  return trained_model(train, seed, std::vector<int>{hidden});
}

/// The first `n` samples of `d`.
ds::QuantizedDataset head(const ds::QuantizedDataset& d, std::size_t n) {
  ds::QuantizedDataset out = d;
  out.codes.resize(n * static_cast<std::size_t>(d.n_features));
  out.labels.resize(n);
  return out;
}

/// Every ISA set_simd_isa can install on this machine.
std::vector<core::SimdIsa> dispatchable_isas() {
  std::vector<core::SimdIsa> isas{core::SimdIsa::kScalar};
  if (core::detect_simd_isa() != core::SimdIsa::kScalar) {
    isas.push_back(core::detect_simd_isa());
  }
  return isas;
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

/// Runs the oracle once and the engine under every dispatchable ISA, and
/// expects identical final models and reports. Returns the engine report
/// of the last ISA (its diagnostics are the same under every ISA).
core::RefineReport expect_same_refine(core::ApproxMlp oracle_net,
                                      const core::ApproxMlp& engine_in,
                                      const ds::QuantizedDataset& train,
                                      const core::RefineConfig& cfg) {
  const auto oracle =
      pmlp::oracles::refine_greedy_naive(oracle_net, train, cfg);
  const core::SimdIsa prev = core::active_simd_isa();
  core::RefineReport engine;
  for (core::SimdIsa isa : dispatchable_isas()) {
    SCOPED_TRACE(core::simd_isa_name(isa));
    core::set_simd_isa(isa);
    core::ApproxMlp engine_net = engine_in;
    const auto report = core::refine_greedy(engine_net, train, cfg);

    // Same decisions -> same final parameters (masks, signs, biases, shifts).
    EXPECT_EQ(core::to_text(oracle_net), core::to_text(engine_net));
    // Same report, bit for bit (early_aborts and shift_trials are
    // engine-only by design).
    EXPECT_EQ(oracle.bits_cleared, report.bits_cleared);
    EXPECT_EQ(oracle.biases_simplified, report.biases_simplified);
    EXPECT_EQ(oracle.fa_before, report.fa_before);
    EXPECT_EQ(oracle.fa_after, report.fa_after);
    EXPECT_EQ(oracle.accuracy_before, report.accuracy_before);
    EXPECT_EQ(oracle.accuracy_after, report.accuracy_after);
    EXPECT_EQ(oracle.passes, report.passes);
    EXPECT_EQ(oracle.trials, report.trials);
    if (isa != core::SimdIsa::kScalar) {
      EXPECT_EQ(engine.early_aborts, report.early_aborts);
      EXPECT_EQ(engine.shift_trials, report.shift_trials);
    }
    engine = report;
  }
  core::set_simd_isa(prev);
  return engine;
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

namespace {

/// Samples whose output logits tie at the maximum (argmax tie-break paths).
int tied_samples(const core::ApproxMlp& net, const ds::QuantizedDataset& d) {
  int ties = 0;
  for (std::size_t s = 0; s < d.size(); ++s) {
    const auto logits = net.forward(d.row(s));
    const auto best = *std::max_element(logits.begin(), logits.end());
    ties += std::count(logits.begin(), logits.end(), best) > 1 ? 1 : 0;
  }
  return ties;
}

}  // namespace

TEST(RefineEngineOracle, PendigitsShapedTenClassTies) {
  const auto spec = ds::pendigits_spec();
  const auto train = make_train(300, 63, spec);
  const auto model = trained_model(train, 63, {5}, spec);
  ASSERT_EQ(model.topology().layers, (std::vector<int>{16, 5, 10}));
  core::RefineConfig cfg;
  cfg.accuracy_floor = core::accuracy(model, train) - 0.05;
  expect_same_refine(model, model, train, cfg);
  // Output neurons 3 and 7 cloned from 0, and 8 from 2: their logits tie
  // on every sample, so the first-maximum rule decides every sample they
  // win, until refine edits one of the clones apart.
  auto tied = model;
  core::ApproxLayer& out = tied.layers().back();
  for (const auto& [dst, src] : {std::pair{3, 0}, {7, 0}, {8, 2}}) {
    for (int i = 0; i < out.n_in; ++i) out.conn(dst, i) = out.conn(src, i);
    out.biases[static_cast<std::size_t>(dst)] =
        out.biases[static_cast<std::size_t>(src)];
  }
  EXPECT_GT(tied_samples(tied, train), 0);
  cfg.accuracy_floor = core::accuracy(tied, train) - 0.05;
  expect_same_refine(tied, tied, train, cfg);
}

TEST(RefineEngineOracle, TwoHiddenLayersResweepDeeperLayers) {
  // An edit in layer 0 updates layer 1 by rank 1 and re-sweeps layer 2.
  const auto train = make_train(200, 64);
  const auto model = trained_model(train, 64, {4, 3});
  ASSERT_EQ(model.layers().size(), 3u);
  core::RefineConfig cfg;
  cfg.accuracy_floor = core::accuracy(model, train) - 0.04;
  expect_same_refine(model, model, train, cfg);
  auto perturbed = model;
  perturb(perturbed, 23, /*sync_shifts=*/true);
  cfg.accuracy_floor = core::accuracy(perturbed, train) - 0.04;
  expect_same_refine(perturbed, perturbed, train, cfg);
}

TEST(RefineEngineOracle, BlockTailSampleCounts) {
  // One sample, just under/at/over one 64-sample block, and two blocks
  // plus one: every partial-block path of the trial kernels.
  const auto full = make_train(160, 65);
  const auto model = trained_model(full, 65);
  for (std::size_t n : {1u, 63u, 64u, 65u, 129u}) {
    SCOPED_TRACE(n);
    const auto train = head(full, n);
    core::RefineConfig cfg;
    cfg.accuracy_floor = core::accuracy(model, train) - 0.03;
    expect_same_refine(model, model, train, cfg);
  }
}

TEST(RefineEngineOracle, QReluShiftChangingEdits) {
  // Clearing the bits that set a hidden layer's worst-case range moves its
  // QReLU shift, which re-activates the whole layer and re-sweeps the next
  // one. The perturbation's wide exponents give the hidden layer a nonzero
  // shift to move, and labelling every sample with the net's own class
  // makes the floor reject the shift moves that flip too many of them.
  auto train = make_train(200, 66);
  auto model = trained_model(train, 66, /*hidden=*/4);
  perturb(model, 7, /*sync_shifts=*/true);
  ASSERT_GT(model.layers().front().qrelu_shift, 0);
  for (std::size_t n = 0; n < train.size(); ++n) {
    train.labels[n] = model.predict(train.row(n));
  }
  core::RefineConfig cfg;
  cfg.accuracy_floor = 0.95;
  cfg.max_passes = 2;
  const auto report = expect_same_refine(model, model, train, cfg);
  EXPECT_GT(report.shift_trials, 0);
  EXPECT_GT(report.early_aborts, 0);
}

TEST(RefineEngineOracle, NetFailingInt32ProofRunsOnInt64Lanes) {
  // Mostly positive hidden terms give large 12-bit activations, and
  // positive output terms with exponents of 16..22 lift both logits past
  // 2^31 while keeping them close enough to compete; the int32 proof fails
  // and the engine must run the same block algorithm on int64 lanes. The
  // net is built directly because no trained baseline reaches those ranges.
  core::BitConfig bits;
  bits.weight_bits = 24;
  bits.act_bits = 12;
  auto train = make_train(150, 67, ds::cardio_spec());
  const mlp::Topology topo{{train.n_features, 4, train.n_classes}};
  core::ApproxMlp net(topo, bits);
  std::mt19937_64 rng(67);
  const auto pick = [&](int lo, int hi) {
    return lo +
           static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  for (auto& layer : net.layers()) {
    for (auto& c : layer.conns) {
      c.mask = static_cast<std::uint32_t>(
          pmlp::bitops::low_mask(layer.input_bits));
      c.sign = layer.qrelu && pick(0, 3) == 0 ? -1 : +1;
      c.exponent = layer.qrelu ? pick(4, 8) : pick(16, bits.max_exponent());
    }
    for (auto& b : layer.biases) b = pick(0, 1000);
  }
  net.update_qrelu_shifts();
  // Label every sample with the net's own class: accuracy starts at 1, so
  // the floor below rejects every edit that flips more than 3% of them.
  for (std::size_t n = 0; n < train.size(); ++n) {
    train.labels[n] = net.predict(train.row(n));
  }
  std::int64_t widest = 0;
  for (std::size_t n = 0; n < train.size(); ++n) {
    for (std::int64_t logit : net.forward(train.row(n))) {
      widest = std::max(widest, logit < 0 ? -logit : logit);
    }
  }
  ASSERT_GT(widest, std::int64_t{std::numeric_limits<std::int32_t>::max()});
  {
    auto copy = net;
    const core::SamplePlanes planes(train);
    const core::RefineEngine engine(copy, planes);
    EXPECT_FALSE(engine.int32_lanes());
    EXPECT_EQ(engine.accuracy(), core::accuracy(net, train));
  }
  core::RefineConfig cfg;
  cfg.accuracy_floor = 0.97;
  const auto report = expect_same_refine(net, net, train, cfg);
  EXPECT_GT(report.bits_cleared, 0);
  EXPECT_GT(report.early_aborts, 0);

  // A wide bias range alone fails the proof too: refine may move a bias
  // anywhere in [bias_min, bias_max], and 2^32 does not fit int32.
  core::BitConfig wide;
  wide.bias_bits = 33;
  auto model = trained_model(train, 67, {3}, ds::cardio_spec(), wide);
  const core::SamplePlanes planes(train);
  EXPECT_FALSE(core::RefineEngine(model, planes).int32_lanes());
  cfg.accuracy_floor = core::accuracy(model, train) - 0.03;
  expect_same_refine(model, model, train, cfg);
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
  const core::SamplePlanes planes(train);
  core::RefineEngine engine(model, planes);
  EXPECT_TRUE(engine.int32_lanes());  // the default BitConfig passes the proof
  EXPECT_EQ(engine.accuracy(), core::accuracy(model, train));
}

TEST(RefineKernels, VectorVariantsMatchScalarAndInt64Lanes) {
  // Each trial kernel under every dispatchable ISA must write the planes
  // the scalar variant writes, and the int64 overloads the same values.
  // Lane counts cover a lone lane, a partial vector, one vector, vectors
  // plus a tail and a whole block.
  std::mt19937_64 rng(71);
  const auto pick = [&](int lo, int hi) {
    return lo +
           static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  const auto widen = [](const std::vector<std::int32_t>& v) {
    return std::vector<std::int64_t>(v.begin(), v.end());
  };
  constexpr int kOut = 6;
  for (int n : {1, 7, 8, 29, 64}) {
    for (const core::Activation f :
         {core::Activation{true, 3, 255}, core::Activation{false, 0, 255}}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " qrelu=" << f.qrelu);
      const auto lanes = static_cast<std::size_t>(n);
      std::vector<std::int32_t> acc(lanes * kOut), x(lanes), old_in(lanes),
          new_in(lanes);
      for (auto& v : acc) v = pick(-(1 << 20), 1 << 20);
      for (auto& v : x) v = pick(0, 255);
      for (auto& v : old_in) v = pick(0, 255);
      for (auto& v : new_in) v = pick(0, 255);
      std::vector<core::CompiledConn> column(kOut);
      for (auto& c : column) {
        const auto mask = static_cast<std::uint32_t>(pick(0, 1) * pick(0, 255));
        c = core::CompiledConn{0, mask, pick(0, 6), pick(0, 1)};
      }
      const core::CompiledConn bit{0, 1u << pick(0, 7), pick(0, 6), pick(0, 1)};
      const core::CompiledConn none{};
      const std::int32_t delta = pick(-2048, 2047);

      struct Out {
        std::vector<std::int32_t> edit_acc, edit_act, bias_acc, bias_act,
            r1_acc, r1_act;
      };
      const auto run = [&](core::SimdIsa isa) {
        Out o;
        o.edit_acc.assign(lanes, 0);
        o.edit_act.assign(lanes, 0);
        o.bias_acc.assign(lanes, 0);
        o.bias_act.assign(lanes, 0);
        o.r1_acc.assign(lanes * kOut, 0);
        o.r1_act.assign(lanes * kOut, 0);
        core::edit_row(isa, acc.data(), x.data(), bit, 0, f, n,
                       o.edit_acc.data(), o.edit_act.data());
        core::edit_row(isa, acc.data(), nullptr, none, delta, f, n,
                       o.bias_acc.data(), o.bias_act.data());
        core::rank1_update(isa, old_in.data(), new_in.data(), column.data(),
                           kOut, acc.data(), f, n, o.r1_acc.data(),
                           o.r1_act.data());
        return o;
      };
      const Out scalar = run(core::SimdIsa::kScalar);
      for (core::SimdIsa isa : dispatchable_isas()) {
        const Out v = run(isa);
        EXPECT_EQ(v.edit_acc, scalar.edit_acc) << core::simd_isa_name(isa);
        EXPECT_EQ(v.edit_act, scalar.edit_act) << core::simd_isa_name(isa);
        EXPECT_EQ(v.bias_acc, scalar.bias_acc) << core::simd_isa_name(isa);
        EXPECT_EQ(v.bias_act, scalar.bias_act) << core::simd_isa_name(isa);
        EXPECT_EQ(v.r1_acc, scalar.r1_acc) << core::simd_isa_name(isa);
        EXPECT_EQ(v.r1_act, scalar.r1_act) << core::simd_isa_name(isa);
      }

      // int64 lanes: the same values from the widened inputs.
      const auto acc64 = widen(acc);
      const auto x64 = widen(x);
      std::vector<std::int64_t> a64(lanes), b64(lanes), r_acc64(lanes * kOut),
          r_act64(lanes * kOut), act64(lanes * kOut);
      core::edit_row(core::SimdIsa::kScalar, acc64.data(), x64.data(), bit, 0,
                     f, n, a64.data(), b64.data());
      EXPECT_EQ(a64, widen(scalar.edit_acc));
      EXPECT_EQ(b64, widen(scalar.edit_act));
      core::rank1_update(core::SimdIsa::kScalar, widen(old_in).data(),
                         widen(new_in).data(), column.data(), kOut,
                         acc64.data(), f, n, r_acc64.data(), r_act64.data());
      EXPECT_EQ(r_acc64, widen(scalar.r1_acc));
      EXPECT_EQ(r_act64, widen(scalar.r1_act));
      std::vector<std::int32_t> act32(lanes * kOut);
      core::activate_lanes(acc.data(), acc.size(), f, act32.data());
      core::activate_lanes(acc64.data(), acc64.size(), f, act64.data());
      EXPECT_EQ(act64, widen(act32));
    }
  }
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
    (void)pmlp::oracles::refine_greedy_naive(point.model, train, cfg);
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
