// End-to-end tests of the full Fig. 2 framework: dataset -> baseline ->
// GA-AxC training -> estimated Pareto -> netlist "synthesis" -> functional
// sign-off -> feasibility classification -> Verilog export.
#include <gtest/gtest.h>

#include <iostream>
#include <random>
#include <sstream>

#include "pmlp/core/chromosome.hpp"
#include "pmlp/core/hardware_analysis.hpp"
#include "pmlp/core/trainer.hpp"
#include "pmlp/datasets/synthetic.hpp"
#include "pmlp/hwmodel/power.hpp"
#include "pmlp/mlp/backprop.hpp"
#include "pmlp/netlist/from_quant.hpp"
#include "pmlp/netlist/verilog.hpp"

namespace core = pmlp::core;
namespace ds = pmlp::datasets;
namespace mlp = pmlp::mlp;
namespace hw = pmlp::hwmodel;
namespace nl = pmlp::netlist;

namespace {

struct Flow {
  ds::QuantizedDataset train;
  ds::QuantizedDataset test;
  mlp::Topology topology;
  mlp::QuantMlp baseline;
  hw::CircuitCost baseline_cost;
  core::TrainingResult training;
  std::vector<core::HwEvaluatedPoint> evaluated;

  static Flow make() {
    auto spec = ds::breast_cancer_spec();
    spec.n_samples = 280;
    auto raw = ds::generate(spec);
    auto split = ds::stratified_split(raw, 0.7, 4);
    mlp::Topology topo{{raw.n_features, 3, raw.n_classes}};
    mlp::BackpropConfig bp;
    bp.epochs = 60;
    bp.seed = 41;
    auto fnet = mlp::train_float_mlp(topo, split.train, bp);
    auto baseline = mlp::QuantMlp::from_float(fnet, 8, 4, 8);

    Flow f{ds::quantize_inputs(split.train, 4),
           ds::quantize_inputs(split.test, 4),
           topo,
           baseline,
           {},
           {},
           {}};
    const auto& lib = hw::CellLibrary::egfet_1v();
    f.baseline_cost =
        nl::build_bespoke_mlp(nl::to_bespoke_desc(baseline, "exact"))
            .nl.cost(lib);

    core::TrainerConfig cfg;
    cfg.ga.population = 30;
    cfg.ga.generations = 20;
    cfg.ga.seed = 8;
    f.training = core::train_ga_axc(topo, f.train, baseline, cfg);
    f.evaluated = core::evaluate_hardware(f.training.estimated_pareto, f.test,
                                          lib, {/*equivalence_samples=*/-1});
    return f;
  }
};

const Flow& flow() {
  static const Flow f = Flow::make();
  return f;
}

}  // namespace

TEST(EndToEnd, TrainingProducesNonEmptyFront) {
  ASSERT_FALSE(flow().training.estimated_pareto.empty());
  EXPECT_GT(flow().training.baseline_train_accuracy, 0.85);
}

TEST(EndToEnd, NetlistBitExactWithEq4ModelOnFullTestSet) {
  // equivalence_samples = -1 checked the entire test set per candidate.
  for (const auto& p : flow().evaluated) {
    EXPECT_TRUE(p.functional_match);
  }
}

TEST(EndToEnd, ApproximateCircuitsBeatBaselineArea) {
  // Paper headline: >5x area reduction at <=5% accuracy loss. Even this
  // scaled-down GA run must find a design several times smaller than the
  // exact bespoke baseline within the loss bound.
  const double base_acc = mlp::accuracy(flow().baseline, flow().test);
  const auto best =
      core::best_within_loss(flow().evaluated, base_acc, 0.05);
  ASSERT_TRUE(best.has_value());
  EXPECT_GT(flow().baseline_cost.area_mm2 / best->cost.area_mm2, 2.0);
  EXPECT_GT(flow().baseline_cost.power_uw / best->cost.power_uw, 2.0);
}

TEST(EndToEnd, TrueParetoIsSubsetOfEvaluated) {
  const auto front = core::true_pareto(flow().evaluated);
  ASSERT_FALSE(front.empty());
  EXPECT_LE(front.size(), flow().evaluated.size());
  // Sorted by area.
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_GE(front[i].cost.area_mm2, front[i - 1].cost.area_mm2);
    // And accuracy must increase along the front (else dominated).
    EXPECT_GT(front[i].test_accuracy, front[i - 1].test_accuracy);
  }
}

TEST(EndToEnd, VoltageScalingImprovesFeasibilityZone) {
  const double base_acc = mlp::accuracy(flow().baseline, flow().test);
  const auto best = core::best_within_loss(flow().evaluated, base_acc, 0.05);
  ASSERT_TRUE(best.has_value());

  const auto circuit =
      nl::build_bespoke_mlp(best->model.to_bespoke_desc("best"));
  const auto& lib = hw::CellLibrary::egfet_1v();
  const auto cost_1v = circuit.nl.cost(lib);
  const auto cost_06v = circuit.nl.cost(lib.at_voltage(0.6));
  EXPECT_NEAR(cost_06v.power_uw / cost_1v.power_uw, 0.216, 1e-9);
  EXPECT_DOUBLE_EQ(cost_06v.area_mm2, cost_1v.area_mm2);

  // The 0.6 V zone can only be at least as good (lower power).
  const auto zone_1v =
      hw::classify_feasibility(cost_1v.area_cm2(), cost_1v.power_mw());
  const auto zone_06v =
      hw::classify_feasibility(cost_06v.area_cm2(), cost_06v.power_mw());
  EXPECT_LE(static_cast<int>(zone_06v), static_cast<int>(zone_1v));
}

TEST(EndToEnd, VerilogExportOfBestDesign) {
  const double base_acc = mlp::accuracy(flow().baseline, flow().test);
  const auto best = core::best_within_loss(flow().evaluated, base_acc, 0.05);
  ASSERT_TRUE(best.has_value());
  const auto circuit =
      nl::build_bespoke_mlp(best->model.to_bespoke_desc("best"));
  const auto v = nl::to_verilog(circuit.nl, "approx_mlp_best");
  EXPECT_NE(v.find("module approx_mlp_best"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
  // All 10 input features at 4 bits must appear as ports.
  EXPECT_NE(v.find("x9_3_"), std::string::npos);
}

TEST(EndToEnd, BaselineNetlistMatchesQuantMlp) {
  const auto circuit = nl::build_bespoke_mlp(
      nl::to_bespoke_desc(flow().baseline, "exact"));
  for (std::size_t i = 0; i < std::min<std::size_t>(flow().test.size(), 60);
       ++i) {
    EXPECT_EQ(circuit.predict(flow().test.row(i)),
              flow().baseline.predict(flow().test.row(i)));
  }
}

TEST(EndToEnd, FaProxyCorrelatesWithNetlistArea) {
  // The training-time FA-count proxy must rank designs consistently with
  // the "synthesized" area (Spearman-like check). A GA front is too small
  // to rank, so the designs are 40 seeded random genomes of the flow's
  // topology, each pruned at its own rate so the areas spread, priced both
  // ways through evaluate_hardware.
  const core::ChromosomeCodec codec(flow().topology, core::BitConfig{});
  std::mt19937_64 rng(2024);
  std::vector<core::EstimatedPoint> designs;
  constexpr int kDesigns = 40;
  for (int d = 0; d < kDesigns; ++d) {
    std::vector<int> genes(static_cast<std::size_t>(codec.n_genes()));
    for (int g = 0; g < codec.n_genes(); ++g) {
      const auto b = codec.bounds(g);
      int v = std::uniform_int_distribution<int>(b.lo, b.hi)(rng);
      if (codec.kind(g) == core::GeneKind::kMask &&
          static_cast<int>(rng() % kDesigns) < d) {
        v = 0;
      }
      genes[static_cast<std::size_t>(g)] = v;
    }
    core::ApproxMlp model = codec.decode(genes);
    const long fa = model.fa_area();
    designs.push_back({std::move(model), 0.0, fa});
  }
  const auto pts =
      core::evaluate_hardware(designs, flow().test,
                              hw::CellLibrary::egfet_1v(),
                              {/*equivalence_samples=*/0});
  int concordant = 0, discordant = 0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      const auto d_proxy = pts[i].fa_area - pts[j].fa_area;
      const auto d_real = pts[i].cost.area_mm2 - pts[j].cost.area_mm2;
      if (d_proxy == 0 || d_real == 0.0) continue;
      if ((d_proxy > 0) == (d_real > 0)) {
        ++concordant;
      } else {
        ++discordant;
      }
    }
  }
  std::cout << "FA proxy vs netlist area: " << concordant << " concordant, "
            << discordant << " discordant pairs of " << kDesigns
            << " designs\n";
  ASSERT_GE(concordant + discordant, 6) << "too few comparable pairs";
  // The proxy omits QReLU/argmax overheads, so perfect concordance is not
  // expected — but it must rank designs better than a coin flip.
  EXPECT_GE(concordant, discordant);
}
