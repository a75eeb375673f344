#include <gtest/gtest.h>

#include "pmlp/baselines/date21_sc.hpp"
#include "pmlp/baselines/tc23.hpp"
#include "pmlp/baselines/tcad23.hpp"
#include "pmlp/bitops/bitops.hpp"
#include "pmlp/datasets/synthetic.hpp"
#include "pmlp/mlp/backprop.hpp"
#include "pmlp/netlist/from_quant.hpp"
#include "pmlp/netlist/opt.hpp"

namespace bl = pmlp::baselines;
namespace ds = pmlp::datasets;
namespace mlp = pmlp::mlp;
namespace hw = pmlp::hwmodel;

namespace {

struct Fixture {
  ds::QuantizedDataset train;
  ds::QuantizedDataset test;
  mlp::QuantMlp baseline;
  mlp::FloatMlp fnet;

  static Fixture make() {
    auto spec = ds::breast_cancer_spec();
    spec.n_samples = 260;
    auto raw = ds::generate(spec);
    auto split = ds::stratified_split(raw, 0.7, 2);
    mlp::BackpropConfig cfg;
    cfg.epochs = 50;
    cfg.seed = 31;
    auto fnet = mlp::train_float_mlp(
        mlp::Topology{{raw.n_features, 3, raw.n_classes}}, split.train, cfg);
    return Fixture{ds::quantize_inputs(split.train, 4),
                   ds::quantize_inputs(split.test, 4),
                   mlp::QuantMlp::from_float(fnet, 8, 4, 8), fnet};
  }
};

const Fixture& fixture() {
  static const Fixture f = Fixture::make();
  return f;
}

}  // namespace

// ----------------------------------------------------- exact bespoke MLP

TEST(ExactBaseline, DescCountsPartialProducts) {
  // A bespoke constant multiplier is shift-adds: one full-width shifted
  // copy of the input per set bit of the weight code.
  const auto& f = fixture();
  const auto desc = pmlp::netlist::to_bespoke_desc(f.baseline, "exact");
  const auto& layers = f.baseline.layers();
  ASSERT_EQ(desc.layers.size(), layers.size());
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const auto& ql = layers[l];
    ASSERT_EQ(desc.layers[l].neurons.size(), static_cast<std::size_t>(ql.n_out));
    for (int o = 0; o < ql.n_out; ++o) {
      long pp = 0;
      for (int i = 0; i < ql.n_in; ++i) {
        const auto w = ql.weight(o, i);
        pp += pmlp::bitops::popcount(static_cast<std::uint64_t>(w < 0 ? -w : w));
      }
      EXPECT_EQ(static_cast<long>(
                    desc.layers[l].neurons[static_cast<std::size_t>(o)]
                        .conns.size()),
                pp);
    }
  }
}

// ------------------------------------------------------------------ TC'23

TEST(Tc23, SnapToPopcountProperties) {
  for (std::int32_t c = -127; c <= 127; ++c) {
    for (int p = 1; p <= 3; ++p) {
      const auto s = bl::snap_to_popcount(c, p);
      const auto mag = static_cast<std::uint64_t>(s < 0 ? -s : s);
      EXPECT_LE(pmlp::bitops::popcount(mag), p) << c << " p=" << p;
      // Sign preserved.
      if (c != 0) {
        EXPECT_EQ(s < 0, c < 0) << c;
      }
      // Values already within budget are untouched.
      const auto cmag = static_cast<std::uint64_t>(c < 0 ? -c : c);
      if (pmlp::bitops::popcount(cmag) <= p) {
        EXPECT_EQ(s, c);
      }
    }
  }
}

TEST(Tc23, SnapIsNearestAmongLowPopcountValues) {
  // Exhaustive optimality check for popcount budget 1 (pure pow2).
  for (std::int32_t c = 1; c <= 127; ++c) {
    const auto s = bl::snap_to_popcount(c, 1);
    for (int k = 0; k <= 7; ++k) {
      EXPECT_LE(std::abs(s - c), std::abs((1 << k) - c)) << c;
    }
  }
}

TEST(Tc23, TruncationRemovesLowColumns) {
  const auto& f = fixture();
  const auto desc = bl::approximate_quant_mlp(f.baseline, 3, 2);
  for (const auto& layer : desc.layers) {
    for (const auto& neuron : layer.neurons) {
      for (const auto& c : neuron.conns) {
        // No retained bit may land in a column below the truncation point.
        const auto occ = static_cast<std::uint64_t>(c.mask) << c.shift;
        EXPECT_EQ(occ & 0b11u, 0u);
      }
      EXPECT_EQ(neuron.bias % 4, 0);
    }
  }
}

TEST(Tc23, NoApproximationReproducesBaseline) {
  const auto& f = fixture();
  // popcount 8 (no snapping), truncation 0 => identical behaviour.
  const auto desc = bl::approximate_quant_mlp(f.baseline, 8, 0);
  for (std::size_t i = 0; i < std::min<std::size_t>(f.test.size(), 80); ++i) {
    EXPECT_EQ(bl::predict_desc(desc, f.test.row(i), 8),
              f.baseline.predict(f.test.row(i)));
  }
}

TEST(Tc23, SweepMeetsAccuracyBoundAndShrinksCircuit) {
  const auto& f = fixture();
  const auto& lib = hw::CellLibrary::egfet_1v();
  const auto design = bl::run_tc23(f.baseline, f.train, f.test, lib);
  const double base_acc = mlp::accuracy(f.baseline, f.train);
  EXPECT_GE(design.train_accuracy, base_acc - 0.05 - 1e-9);

  // The approximate circuit must be smaller than the exact bespoke one.
  const auto exact =
      pmlp::netlist::build_bespoke_mlp(pmlp::netlist::to_bespoke_desc(
          f.baseline, "exact"));
  const auto exact_cost = exact.nl.cost(lib);
  EXPECT_LT(design.cost.area_mm2, exact_cost.area_mm2);
  EXPECT_GT(design.test_accuracy, 0.5);
}

// ---------------------------------------------------------------- TCAD'23

TEST(Tcad23, VosAccuracyDegradesWithUpsets) {
  const auto& f = fixture();
  const auto desc = bl::approximate_quant_mlp(f.baseline, 3, 1);
  const double clean = bl::vos_accuracy(desc, f.test, 8, 0.0, 1);
  const double noisy = bl::vos_accuracy(desc, f.test, 8, 0.8, 1);
  EXPECT_GT(clean, noisy);
}

TEST(Tcad23, ZeroUpsetMatchesPredictDesc) {
  const auto& f = fixture();
  const auto desc = bl::approximate_quant_mlp(f.baseline, 2, 1);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < f.test.size(); ++i) {
    if (bl::predict_desc(desc, f.test.row(i), 8) == f.test.labels[i]) ++correct;
  }
  const double expect =
      static_cast<double>(correct) / static_cast<double>(f.test.size());
  EXPECT_DOUBLE_EQ(bl::vos_accuracy(desc, f.test, 8, 0.0, 5), expect);
}

TEST(Tcad23, PowerBelowNominalVoltageRun) {
  const auto& f = fixture();
  const auto& lib = hw::CellLibrary::egfet_1v();
  bl::Tcad23Config cfg;
  const auto design = bl::run_tcad23(f.baseline, f.train, f.test, lib, cfg);
  EXPECT_DOUBLE_EQ(design.voltage, 0.8);
  // The same (synthesis-cleaned) circuit priced at 1 V must draw more
  // power, by exactly the V^3 scaling factor.
  const auto circuit = pmlp::netlist::build_bespoke_mlp(design.approx.desc);
  const auto nominal = pmlp::netlist::optimize(circuit.nl).cost(lib);
  EXPECT_LT(design.power_mw, nominal.power_mw());
  EXPECT_NEAR(design.power_mw / nominal.power_mw(), 0.512, 1e-9);
  // Relaxed printed clocks leave huge slack: no upsets at 200 ms.
  EXPECT_DOUBLE_EQ(design.upset_probability, 0.0);
}

// ---------------------------------------------------------------- DATE'21

TEST(ScMlp, XnorMultiplyIsUnbiased) {
  // Single neuron, single input, no bias influence: output counter mean
  // approximates the bipolar product of input and weight.
  mlp::FloatMlp net(mlp::Topology{{1, 1}}, 1);
  net.layers()[0].weights = {0.5};
  net.layers()[0].biases = {0.0};
  bl::ScConfig cfg;
  cfg.stream_length = 4096;
  bl::ScMlp sc(net, cfg);
  // predict() is argmax over one class -> always 0; use accuracy on a
  // fabricated dataset instead to exercise the path.
  ds::QuantizedDataset d;
  d.n_features = 1;
  d.n_classes = 1;
  d.input_bits = 4;
  d.codes = {15};
  d.labels = {0};
  EXPECT_DOUBLE_EQ(sc.accuracy(d), 1.0);
}

TEST(ScMlp, AccuracyReasonableOnEasyBinaryTask) {
  const auto& f = fixture();
  bl::ScConfig cfg;
  cfg.stream_length = 1024;
  bl::ScMlp sc(f.fnet, cfg);
  const double acc = sc.accuracy(f.test, 120);
  // SC keeps *some* signal on an easy binary task...
  EXPECT_GT(acc, 0.55);
  // ...but loses clearly against the digital baseline (paper: -35% avg).
  EXPECT_LT(acc, mlp::accuracy(f.baseline, f.test));
}

TEST(ScMlp, CollapsesOnManyClasses) {
  // Pendigits-like many-class task: SC scaled addition + short streams
  // destroy the margin (paper: 22% on Pendigits).
  auto spec = ds::pendigits_spec();
  spec.n_samples = 300;
  const auto raw = ds::generate(spec);
  mlp::BackpropConfig bp;
  bp.epochs = 40;
  bp.seed = 17;
  const auto fnet = mlp::train_float_mlp(
      mlp::Topology{{raw.n_features, 5, raw.n_classes}}, raw, bp);
  const auto q = ds::quantize_inputs(raw, 4);
  bl::ScMlp sc(fnet, {});
  const double sc_acc = sc.accuracy(q, 150);
  const double float_acc = mlp::accuracy(fnet, raw);
  EXPECT_LT(sc_acc, float_acc - 0.2);
}

TEST(ScMlp, CostIsSmallButNonzero) {
  const auto& f = fixture();
  bl::ScMlp sc(f.fnet, {});
  const auto& lib = hw::CellLibrary::egfet_1v();
  const auto cost = sc.cost(lib);
  EXPECT_GT(cost.cell_count, 0);
  EXPECT_GT(cost.area_mm2, 0.0);
  // SC is far smaller than the exact bespoke multiplier design...
  const auto exact = pmlp::netlist::build_bespoke_mlp(
      pmlp::netlist::to_bespoke_desc(f.baseline, "exact"));
  EXPECT_LT(cost.area_mm2, exact.nl.cost(lib).area_mm2);
}

TEST(ScMlp, RejectsDegenerateStream) {
  const auto& f = fixture();
  bl::ScConfig cfg;
  cfg.stream_length = 4;
  EXPECT_THROW(bl::ScMlp(f.fnet, cfg), std::invalid_argument);
}
