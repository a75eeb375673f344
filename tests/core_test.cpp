#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <stdexcept>

#include "pmlp/bitops/bitops.hpp"
#include "pmlp/core/approx_mlp.hpp"
#include "pmlp/core/chromosome.hpp"
#include "pmlp/core/hardware_analysis.hpp"
#include "pmlp/core/pareto.hpp"
#include "pmlp/core/problem.hpp"
#include "pmlp/core/suite.hpp"
#include "pmlp/core/trainer.hpp"
#include "pmlp/datasets/synthetic.hpp"
#include "pmlp/mlp/backprop.hpp"

namespace core = pmlp::core;
namespace ds = pmlp::datasets;
namespace mlp = pmlp::mlp;

namespace {

struct Fixture {
  ds::Dataset raw;
  ds::QuantizedDataset train;
  ds::QuantizedDataset test;
  mlp::Topology topology;
  mlp::QuantMlp baseline;

  static Fixture make() {
    auto spec = ds::breast_cancer_spec();
    spec.n_samples = 300;
    auto raw = ds::generate(spec);
    auto split = ds::stratified_split(raw, 0.7, 1);
    mlp::Topology topo{{raw.n_features, 3, raw.n_classes}};
    mlp::BackpropConfig cfg;
    cfg.epochs = 60;
    cfg.seed = 21;
    auto fnet = mlp::train_float_mlp(topo, split.train, cfg);
    return Fixture{std::move(raw), ds::quantize_inputs(split.train, 4),
                   ds::quantize_inputs(split.test, 4), topo,
                   mlp::QuantMlp::from_float(fnet, 8, 4, 8)};
  }
};

const Fixture& fixture() {
  static const Fixture f = Fixture::make();
  return f;
}

}  // namespace

// ------------------------------------------------------------- ApproxMlp

TEST(ApproxMlp, FreshNetworkIsFullyPruned) {
  core::ApproxMlp net(mlp::Topology{{4, 3, 2}}, core::BitConfig{});
  EXPECT_EQ(net.fa_area(), 0);
  EXPECT_EQ(net.wire_count(), 0);
  const std::vector<std::uint8_t> x = {1, 2, 3, 4};
  const auto out = net.forward(x);
  for (auto v : out) EXPECT_EQ(v, 0);
}

TEST(ApproxMlp, ForwardImplementsEq4) {
  // Hand-computed single neuron: x = {5, 12}, masks {0b0101, 0b1110},
  // signs {+,-}, exponents {1, 0}, bias 7:
  //   +((5 & 0b0101) << 1) - ((12 & 0b1110) << 0) + 7 = +10 - 12 + 7 = 5.
  core::ApproxMlp net(mlp::Topology{{2, 1, 2}}, core::BitConfig{});
  auto& l0 = net.layers()[0];
  l0.conn(0, 0) = {0b0101, +1, 1};
  l0.conn(0, 1) = {0b1110, -1, 0};
  l0.biases[0] = 7;
  // Output layer: pass hidden through with unit weight on class 0.
  auto& l1 = net.layers()[1];
  l1.conn(0, 0) = {0xFF, +1, 0};
  net.update_qrelu_shifts();

  const std::vector<std::uint8_t> x = {5, 12};
  // hidden max: 10 + 7 = 17 < 256 -> shift 0, QReLU(5) = 5.
  EXPECT_EQ(net.layers()[0].qrelu_shift, 0);
  const auto out = net.forward(x);
  EXPECT_EQ(out[0], 5);
  EXPECT_EQ(out[1], 0);
  EXPECT_EQ(net.predict(x), 0);
}

TEST(ApproxMlp, QreluShiftScalesLargeAccumulators) {
  core::ApproxMlp net(mlp::Topology{{4, 1, 2}}, core::BitConfig{});
  auto& l0 = net.layers()[0];
  for (int i = 0; i < 4; ++i) l0.conn(0, i) = {0xF, +1, 6};  // max 15<<6 each
  net.update_qrelu_shifts();
  // Max acc = 4 * 960 = 3840 -> 12 bits -> shift 4.
  EXPECT_EQ(net.layers()[0].qrelu_shift, 4);
  const std::vector<std::uint8_t> x = {15, 15, 15, 15};
  const auto out = net.forward(x);
  EXPECT_EQ(out[0], 0);  // output layer untouched (all pruned): bias 0
}

TEST(ApproxMlp, FromQuantBaselineIsNearlyExact) {
  const auto& f = fixture();
  const auto doped =
      core::ApproxMlp::from_quant_baseline(f.baseline, core::BitConfig{});
  // All masks fully set (no pruning) except genuinely zero weights.
  for (std::size_t l = 0; l < doped.layers().size(); ++l) {
    const auto& al = doped.layers()[l];
    const auto& ql = f.baseline.layers()[l];
    for (int o = 0; o < al.n_out; ++o) {
      for (int i = 0; i < al.n_in; ++i) {
        if (ql.weight(o, i) == 0) {
          EXPECT_EQ(al.conn(o, i).mask, 0u);
        } else {
          EXPECT_EQ(al.conn(o, i).mask,
                    pmlp::bitops::low_mask(al.input_bits));
        }
      }
    }
  }
  // Accuracy within pow2-snapping distance of the quantized baseline
  // (nearest-pow2 weights carry up to 33% per-weight error, so allow a
  // generous but bounded drop).
  const double base_acc = mlp::accuracy(f.baseline, f.train);
  const double doped_acc = core::accuracy(doped, f.train);
  EXPECT_GT(doped_acc, base_acc - 0.25);
}

TEST(ApproxMlp, FaAreaDropsWithPruning) {
  const auto& f = fixture();
  auto net = core::ApproxMlp::from_quant_baseline(f.baseline, core::BitConfig{});
  const long full = net.fa_area();
  // Clear the low two bits of every mask.
  for (auto& layer : net.layers()) {
    for (auto& c : layer.conns) c.mask &= ~0b11u;
  }
  net.update_qrelu_shifts();
  EXPECT_LT(net.fa_area(), full);
}

// ------------------------------------------------------------ chromosome

TEST(ChromosomeCodec, GeneCountMatchesFig3Layout) {
  // Per neuron: 3 genes per input + 1 bias.
  core::ChromosomeCodec codec(mlp::Topology{{10, 3, 2}}, core::BitConfig{});
  EXPECT_EQ(codec.n_genes(), (3 * 10 + 1) * 3 + (3 * 3 + 1) * 2);
}

TEST(ChromosomeCodec, EncodeDecodeRoundTrip) {
  const core::BitConfig bits;
  core::ChromosomeCodec codec(mlp::Topology{{5, 4, 3}}, bits);
  std::mt19937 rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<int> genes(static_cast<std::size_t>(codec.n_genes()));
    for (int g = 0; g < codec.n_genes(); ++g) {
      const auto b = codec.bounds(g);
      genes[static_cast<std::size_t>(g)] =
          b.lo + static_cast<int>(rng() % static_cast<unsigned>(b.hi - b.lo + 1));
    }
    const auto net = codec.decode(genes);
    EXPECT_EQ(codec.encode(net), genes);
  }
}

TEST(ChromosomeCodec, DecodeClampsOutOfBounds) {
  core::ChromosomeCodec codec(mlp::Topology{{2, 2}}, core::BitConfig{});
  std::vector<int> genes(static_cast<std::size_t>(codec.n_genes()), 9999);
  const auto net = codec.decode(genes);
  for (const auto& layer : net.layers()) {
    for (const auto& c : layer.conns) {
      EXPECT_LE(static_cast<int>(c.mask), codec.bounds(0).hi);
      EXPECT_LE(c.exponent, core::BitConfig{}.max_exponent());
    }
  }
}

TEST(ChromosomeCodec, BoundsMatchBitConfig) {
  core::BitConfig bits;
  bits.weight_bits = 6;
  bits.bias_bits = 5;
  core::ChromosomeCodec codec(mlp::Topology{{3, 2}}, bits);
  // Gene 0 = mask of first connection (4-bit input).
  EXPECT_EQ(codec.bounds(0).hi, 15);
  // Gene 2 = exponent: k in [0, n-2] = [0, 4].
  EXPECT_EQ(codec.bounds(2).hi, 4);
  // Last gene of first neuron = bias in [-16, 15].
  const int bias_gene = 3 * 3;
  EXPECT_EQ(codec.bounds(bias_gene).lo, -16);
  EXPECT_EQ(codec.bounds(bias_gene).hi, 15);
}

TEST(ChromosomeCodec, RejectsInputWidthBeyondIntGene) {
  // A mask gene is an int, so a layer whose inputs are 32+ bits wide has no
  // valid gene bounds. 31 bits is the widest mask that fits.
  const mlp::Topology topo{{3, 2, 2}};
  core::BitConfig bits;
  bits.act_bits = 31;  // layer 2 input width
  const core::ChromosomeCodec widest(topo, bits);
  EXPECT_EQ(widest.bounds(widest.n_genes() - 1 - 3 * 2).hi, 0x7fffffff);
  bits.act_bits = 32;
  EXPECT_THROW(core::ChromosomeCodec(topo, bits), std::invalid_argument);
  bits.act_bits = 36;
  EXPECT_THROW(core::ChromosomeCodec(topo, bits), std::invalid_argument);
  core::BitConfig wide_inputs;
  wide_inputs.input_bits = 32;  // layer 1 input width
  EXPECT_THROW(core::ChromosomeCodec(topo, wide_inputs),
               std::invalid_argument);
}

// --------------------------------------------------------------- problem

TEST(HwAwareProblem, ObjectivesAreErrorAndArea) {
  const auto& f = fixture();
  core::ChromosomeCodec codec(f.topology, core::BitConfig{});
  core::HwAwareProblem problem(codec, f.train, f.baseline, {});
  const auto doped =
      core::ApproxMlp::from_quant_baseline(f.baseline, core::BitConfig{});
  const auto ev = problem.evaluate(codec.encode(doped));
  ASSERT_EQ(ev.objectives.size(), 2u);
  EXPECT_NEAR(ev.objectives[0], 1.0 - core::accuracy(doped, f.train), 1e-12);
  EXPECT_DOUBLE_EQ(ev.objectives[1], static_cast<double>(doped.fa_area()));
}

TEST(HwAwareProblem, ConstraintViolationBeyondTenPoints) {
  const auto& f = fixture();
  core::ChromosomeCodec codec(f.topology, core::BitConfig{});
  core::HwAwareProblem problem(codec, f.train, f.baseline, {});
  // An all-pruned network predicts class 0 always: accuracy well below the
  // baseline-10% floor on this dataset => infeasible.
  const core::ApproxMlp empty(f.topology, core::BitConfig{});
  const auto ev = problem.evaluate(codec.encode(empty));
  EXPECT_GT(ev.constraint_violation, 0.0);
}

TEST(HwAwareProblem, SeedsAreDopedFromBaseline) {
  const auto& f = fixture();
  core::ChromosomeCodec codec(f.topology, core::BitConfig{});
  core::HwAwareProblem problem(codec, f.train, f.baseline, {});
  const auto seeds = problem.seed_individuals(100);
  // ~10% doping.
  EXPECT_EQ(seeds.size(), 10u);
  const auto doped =
      core::ApproxMlp::from_quant_baseline(f.baseline, core::BitConfig{});
  EXPECT_EQ(seeds.front(), codec.encode(doped));
  // Jittered seeds differ from the pristine one but share most genes.
  int shared = 0;
  for (std::size_t g = 0; g < seeds[0].size(); ++g) {
    if (seeds[0][g] == seeds[1][g]) ++shared;
  }
  EXPECT_GT(shared, static_cast<int>(seeds[0].size() * 0.9));
}

TEST(HwAwareProblem, NoBaselineNoConstraintNoSeeds) {
  const auto& f = fixture();
  core::ChromosomeCodec codec(f.topology, core::BitConfig{});
  core::HwAwareProblem problem(codec, f.train, std::nullopt, {});
  EXPECT_TRUE(problem.seed_individuals(50).empty());
  const core::ApproxMlp empty(f.topology, core::BitConfig{});
  EXPECT_DOUBLE_EQ(problem.evaluate(codec.encode(empty)).constraint_violation,
                   0.0);
}

// ---------------------------------------------------------------- pareto

TEST(Pareto, IndicesAndHypervolume) {
  const std::vector<core::Point2> pts = {
      {1, 5}, {2, 3}, {4, 1}, {3, 4}, {2.5, 3.5}, {1, 5}};
  const auto front = core::pareto_indices(pts);
  ASSERT_EQ(front.size(), 3u);
  EXPECT_EQ(pts[front[0]].f1, 1);
  EXPECT_EQ(pts[front[1]].f1, 2);
  EXPECT_EQ(pts[front[2]].f1, 4);
  // HV w.r.t. (6,6): rectangles (6-4)(6-1) + (4-2)(6-3) + (2-1)(6-5).
  EXPECT_DOUBLE_EQ(core::hypervolume2(pts, 6, 6), 10 + 6 + 1);
}

TEST(Pareto, HypervolumeIgnoresPointsBeyondReference) {
  const std::vector<core::Point2> pts = {{10, 10}};
  EXPECT_DOUBLE_EQ(core::hypervolume2(pts, 6, 6), 0.0);
}

TEST(Pareto, Dominates2) {
  EXPECT_TRUE(core::dominates2({1, 1}, {2, 2}));
  EXPECT_TRUE(core::dominates2({1, 2}, {1, 3}));
  EXPECT_FALSE(core::dominates2({1, 1}, {1, 1}));
  EXPECT_FALSE(core::dominates2({1, 3}, {2, 1}));
}

// ----------------------------------------------------- trainer end-to-end

TEST(Trainer, SmallRunProducesFeasibleFront) {
  const auto& f = fixture();
  core::TrainerConfig cfg;
  cfg.ga.population = 24;
  cfg.ga.generations = 30;
  cfg.ga.seed = 3;
  const auto result = train_ga_axc(f.topology, f.train, f.baseline, cfg);
  ASSERT_FALSE(result.estimated_pareto.empty());
  EXPECT_EQ(result.evaluations, 24 + 24 * 30);
  EXPECT_GT(result.baseline_train_accuracy, 0.8);
  // Front sorted by area; all points within the 10% training bound.
  long prev_area = -1;
  for (const auto& p : result.estimated_pareto) {
    EXPECT_GE(p.fa_area, prev_area);
    prev_area = p.fa_area;
    EXPECT_GE(p.train_accuracy, result.baseline_train_accuracy - 0.10 - 1e-9);
  }
}

TEST(Trainer, DopedRunBeatsUnseededOnHypervolume) {
  const auto& f = fixture();
  core::TrainerConfig cfg;
  cfg.ga.population = 24;
  cfg.ga.generations = 10;
  cfg.ga.seed = 5;
  const auto with_seed = train_ga_axc(f.topology, f.train, f.baseline, cfg);
  const auto without = train_ga_axc(f.topology, f.train, std::nullopt, cfg);

  auto hv = [](const core::TrainingResult& r) {
    std::vector<core::Point2> pts;
    for (const auto& p : r.estimated_pareto) {
      pts.push_back({1.0 - p.train_accuracy, static_cast<double>(p.fa_area)});
    }
    return core::hypervolume2(pts, 1.0, 2000.0);
  };
  EXPECT_GE(hv(with_seed), hv(without) * 0.9);  // doping must not hurt
}

TEST(Trainer, AccuracyOnlyGaKeepsMasksFull) {
  const auto& f = fixture();
  core::TrainerConfig cfg;
  cfg.ga.population = 16;
  cfg.ga.generations = 6;
  cfg.ga.seed = 7;
  const auto result = train_ga_accuracy_only(f.topology, f.train, cfg);
  ASSERT_FALSE(result.estimated_pareto.empty());
  for (const auto& p : result.estimated_pareto) {
    for (const auto& layer : p.model.layers()) {
      const auto full = pmlp::bitops::low_mask(layer.input_bits);
      for (const auto& c : layer.conns) {
        EXPECT_EQ(c.mask, full);
      }
    }
  }
}

// ----------------------------------------------------- hardware analysis

TEST(HardwareAnalysis, NetlistMatchesModelAndPricesCircuit) {
  const auto& f = fixture();
  core::TrainerConfig cfg;
  cfg.ga.population = 16;
  cfg.ga.generations = 8;
  cfg.ga.seed = 13;
  const auto result = train_ga_axc(f.topology, f.train, f.baseline, cfg);
  ASSERT_FALSE(result.estimated_pareto.empty());

  const auto& lib = pmlp::hwmodel::CellLibrary::egfet_1v();
  const auto evaluated = core::evaluate_hardware(
      result.estimated_pareto, f.test, lib, {/*equivalence_samples=*/32});
  ASSERT_EQ(evaluated.size(), result.estimated_pareto.size());
  for (const auto& p : evaluated) {
    EXPECT_TRUE(p.functional_match);
    EXPECT_GT(p.cost.area_mm2, 0.0);
    EXPECT_GT(p.cost.power_uw, 0.0);
  }

  const auto front = core::true_pareto(evaluated);
  ASSERT_FALSE(front.empty());
  // The true front must be mutually non-dominated.
  for (std::size_t i = 0; i < front.size(); ++i) {
    for (std::size_t j = 0; j < front.size(); ++j) {
      if (i == j) continue;
      const core::Point2 a{1.0 - front[i].test_accuracy,
                           front[i].cost.area_mm2};
      const core::Point2 b{1.0 - front[j].test_accuracy,
                           front[j].cost.area_mm2};
      EXPECT_FALSE(core::dominates2(a, b));
    }
  }
}

TEST(HardwareAnalysis, BestWithinLossPicksSmallestArea) {
  std::vector<core::HwEvaluatedPoint> pts(3);
  pts[0].test_accuracy = 0.96;
  pts[0].cost.area_mm2 = 100;
  pts[1].test_accuracy = 0.94;
  pts[1].cost.area_mm2 = 50;
  pts[2].test_accuracy = 0.80;  // outside the 5% bound
  pts[2].cost.area_mm2 = 5;
  const auto best = core::best_within_loss(pts, 0.98, 0.05);
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(best->cost.area_mm2, 50);
  EXPECT_FALSE(core::best_within_loss(pts, 0.98, 0.001).has_value());
}

// ---------------------------------------------------------- suite/UCI data

namespace {

/// Minimal but well-formed winequality-red.csv: 11 features + quality,
/// semicolon-delimited with a quoted header, as shipped by UCI.
std::string write_wine_dir(int n_rows) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "pmlp_suite_uci";
  fs::create_directories(dir);
  std::ofstream os(dir / "winequality-red.csv");
  os << "\"fixed acidity\";\"volatile acidity\";\"citric acid\";"
        "\"residual sugar\";\"chlorides\";\"free sulfur dioxide\";"
        "\"total sulfur dioxide\";\"density\";\"pH\";\"sulphates\";"
        "\"alcohol\";\"quality\"\n";
  for (int i = 0; i < n_rows; ++i) {
    for (int f = 0; f < 11; ++f) os << (0.5 + 0.01 * (i * 11 + f)) << ";";
    os << (5 + i % 2) << "\n";
  }
  return dir.string();
}

/// setenv/unsetenv guard for PMLP_UCI_DIR.
class UciDirGuard {
 public:
  explicit UciDirGuard(const std::string& dir) {
    ::setenv("PMLP_UCI_DIR", dir.c_str(), 1);
  }
  ~UciDirGuard() { ::unsetenv("PMLP_UCI_DIR"); }
};

}  // namespace

TEST(Suite, SyntheticByDefault) {
  ::unsetenv("PMLP_UCI_DIR");
  EXPECT_EQ(core::find_uci_file("RedWine"), "");
  const auto d = core::load_paper_dataset("RedWine");
  EXPECT_EQ(d.size(), 1599u);  // the Table I synthetic stand-in
}

TEST(Suite, UnknownNameThrowsWithChoices) {
  EXPECT_THROW((void)core::find_uci_file("Nope"), std::invalid_argument);
  EXPECT_THROW((void)core::load_paper_dataset("Nope"), std::invalid_argument);
}

TEST(Suite, UciDirLoadsRealFile) {
  const auto dir = write_wine_dir(40);
  UciDirGuard guard(dir);
  const auto file = core::find_uci_file("RedWine");
  ASSERT_NE(file, "");
  EXPECT_NE(file.find("winequality-red.csv"), std::string::npos);
  const auto d = core::load_paper_dataset("RedWine");
  EXPECT_EQ(d.size(), 40u);  // the real rows, not the synthetic 1599
  EXPECT_EQ(d.n_features, 11);
  // Output width stays the Table I shape even when fewer quality levels
  // appear in the file (the trained topology is sized by the spec).
  EXPECT_EQ(d.n_classes, 6);
  // Datasets without a file present still fall back to synthetic.
  EXPECT_EQ(core::find_uci_file("Pendigits"), "");
}

TEST(Suite, UciDirShapeMismatchThrows) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "pmlp_suite_uci_bad";
  fs::create_directories(dir);
  {
    std::ofstream os(dir / "winequality-red.csv");
    os << "\"a\";\"b\";\"quality\"\n1.0;2.0;5\n3.0;4.0;6\n";
  }
  UciDirGuard guard(dir.string());
  // 2 features where the Table I RedWine spec demands 11: fail fast.
  EXPECT_THROW((void)core::load_paper_dataset("RedWine"),
               std::invalid_argument);
}
