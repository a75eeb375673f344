// Tests for stuck-at fault injection (faults.hpp) and the random-search
// optimizer baseline (random_search.hpp) + coarse-pruning problem mode.
#include <gtest/gtest.h>

#include <random>

#include "pmlp/core/chromosome.hpp"
#include "pmlp/core/problem.hpp"
#include "pmlp/core/thread_pool.hpp"
#include "pmlp/datasets/synthetic.hpp"
#include "pmlp/mlp/backprop.hpp"
#include "pmlp/netlist/faults.hpp"
#include "pmlp/nsga2/random_search.hpp"

namespace nl = pmlp::netlist;
namespace core = pmlp::core;
namespace ds = pmlp::datasets;
namespace mlp = pmlp::mlp;
namespace nsga2 = pmlp::nsga2;

namespace {

nl::BespokeCircuit small_circuit(std::uint64_t seed) {
  const mlp::Topology topo{{4, 3, 2}};
  core::ChromosomeCodec codec(topo, core::BitConfig{});
  std::mt19937_64 rng(seed);
  std::vector<int> genes(static_cast<std::size_t>(codec.n_genes()));
  for (int g = 0; g < codec.n_genes(); ++g) {
    const auto b = codec.bounds(g);
    genes[static_cast<std::size_t>(g)] =
        b.lo + static_cast<int>(rng() % static_cast<unsigned>(b.hi - b.lo + 1));
  }
  return nl::build_bespoke_mlp(codec.decode(genes).to_bespoke_desc("f"));
}

}  // namespace

TEST(Faults, EnumerationCoversEveryGateOutput) {
  const auto circuit = small_circuit(3);
  const auto sites = nl::enumerate_fault_sites(circuit.nl);
  long outputs = 0;
  for (const auto& g : circuit.nl.gates()) {
    for (auto o : g.out) {
      if (o >= 0) ++outputs;
    }
  }
  EXPECT_EQ(sites.size(), static_cast<std::size_t>(2 * outputs));  // sa0+sa1
}

TEST(Faults, InjectionChangesSomething) {
  const auto circuit = small_circuit(5);
  const std::vector<std::uint8_t> x = {3, 9, 12, 7};
  const int clean = circuit.predict(x);
  // At least one stuck-at fault must flip the decision for some input
  // (otherwise the circuit would be entirely redundant).
  bool any_change = false;
  for (const auto& site : nl::enumerate_fault_sites(circuit.nl)) {
    if (nl::predict_with_fault(circuit, x, site) != clean) {
      any_change = true;
      break;
    }
  }
  EXPECT_TRUE(any_change);
}

TEST(Faults, BenignOverrideKeepsCleanBehaviour) {
  // Forcing a gate output to the value it already has must not change the
  // prediction: check by injecting both stuck values and asserting at
  // least one of them matches the clean run for every site.
  const auto circuit = small_circuit(7);
  const std::vector<std::uint8_t> x = {1, 2, 3, 4};
  const int clean = circuit.predict(x);
  for (const auto& site : nl::enumerate_fault_sites(circuit.nl)) {
    nl::FaultSite sa0 = site;
    sa0.stuck_value = false;
    nl::FaultSite sa1 = site;
    sa1.stuck_value = true;
    const int p0 = nl::predict_with_fault(circuit, x, sa0);
    const int p1 = nl::predict_with_fault(circuit, x, sa1);
    EXPECT_TRUE(p0 == clean || p1 == clean)
        << "gate " << site.gate_index << " slot " << site.output_slot;
  }
}

TEST(Faults, CampaignReportIsConsistent) {
  const auto circuit = small_circuit(11);
  std::mt19937_64 rng(13);
  std::vector<std::uint8_t> codes;
  std::vector<int> labels;
  for (int s = 0; s < 40; ++s) {
    for (int f = 0; f < 4; ++f) {
      codes.push_back(static_cast<std::uint8_t>(rng() & 0xF));
    }
    labels.push_back(static_cast<int>(rng() % 2));
  }
  nl::FaultCampaignConfig cfg;
  cfg.max_sites = 60;
  const auto report =
      nl::run_fault_campaign(circuit, codes, labels, 4, cfg);
  EXPECT_GT(report.sites_evaluated, 0u);
  EXPECT_LE(report.sites_evaluated, 60u);
  EXPECT_LE(report.worst_faulty_accuracy, report.mean_faulty_accuracy + 1e-12);
  EXPECT_GE(report.masked_fraction, 0.0);
  EXPECT_LE(report.masked_fraction, 1.0);
}

TEST(Faults, CampaignRejectsBadShape) {
  const auto circuit = small_circuit(17);
  std::vector<std::uint8_t> codes = {1, 2, 3};
  std::vector<int> labels = {0};
  EXPECT_THROW(
      (void)nl::run_fault_campaign(circuit, codes, labels, 4, {}),
      std::invalid_argument);
}

// ----------------------------------------------------------- random search

namespace {

/// Sphere-like discrete problem: minimize (sum g, sum (5-g)^2).
class ToyProblem final : public nsga2::Problem {
 public:
  [[nodiscard]] int n_genes() const override { return 6; }
  [[nodiscard]] nsga2::GeneBounds bounds(int) const override { return {0, 9}; }
  [[nodiscard]] Evaluation evaluate(std::span<const int> genes) const override {
    double f1 = 0, f2 = 0;
    for (int g : genes) {
      f1 += g;
      f2 += (5.0 - g) * (5.0 - g);
    }
    return {{f1, f2}, 0.0};
  }
};

}  // namespace

TEST(RandomSearch, FrontIsNonDominatedAndSorted) {
  ToyProblem problem;
  nsga2::RandomSearchConfig cfg;
  cfg.evaluations = 3000;
  cfg.seed = 3;
  const auto res = nsga2::random_search(problem, cfg);
  EXPECT_EQ(res.evaluations, 3000);
  ASSERT_FALSE(res.pareto_front.empty());
  for (std::size_t i = 0; i < res.pareto_front.size(); ++i) {
    for (std::size_t j = 0; j < res.pareto_front.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(nsga2::dominates(res.pareto_front[i], res.pareto_front[j]));
    }
  }
  for (std::size_t i = 1; i < res.pareto_front.size(); ++i) {
    EXPECT_LE(res.pareto_front[i - 1].objectives,
              res.pareto_front[i].objectives);
  }
}

TEST(RandomSearch, DeterministicAndThreadInvariant) {
  ToyProblem problem;
  nsga2::RandomSearchConfig cfg;
  cfg.evaluations = 1000;
  cfg.seed = 5;
  const auto a = nsga2::random_search(problem, cfg);
  pmlp::core::ThreadPool pool(4);
  const auto b = nsga2::random_search(problem, cfg, &pool);
  ASSERT_EQ(a.pareto_front.size(), b.pareto_front.size());
  for (std::size_t i = 0; i < a.pareto_front.size(); ++i) {
    EXPECT_EQ(a.pareto_front[i].objectives, b.pareto_front[i].objectives);
  }
}

// ----------------------------------------------------------- coarse masks

TEST(CoarsePruning, MasksAreAllOrNothingInEvaluation) {
  auto spec = ds::breast_cancer_spec();
  spec.n_samples = 160;
  const auto raw = ds::generate(spec);
  const auto train = ds::quantize_inputs(raw, 4);
  const mlp::Topology topo{{10, 3, 2}};
  core::ChromosomeCodec codec(topo, core::BitConfig{});

  core::ProblemConfig coarse_cfg;
  coarse_cfg.coarse_pruning = true;
  core::HwAwareProblem coarse(codec, train, std::nullopt, coarse_cfg);
  core::HwAwareProblem fine(codec, train, std::nullopt, {});

  // A genome with partial masks: coarse evaluation must price it as if
  // every nonzero mask were full, i.e. area strictly larger than fine.
  std::vector<int> genes(static_cast<std::size_t>(codec.n_genes()), 0);
  for (int g = 0; g < codec.n_genes(); ++g) {
    if (codec.kind(g) == core::GeneKind::kMask) {
      genes[static_cast<std::size_t>(g)] = 0b0101;
    }
  }
  const auto coarse_ev = coarse.evaluate(genes);
  const auto fine_ev = fine.evaluate(genes);
  EXPECT_GT(coarse_ev.objectives[1], fine_ev.objectives[1]);
}
