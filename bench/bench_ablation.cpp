// Ablation study of the design choices DESIGN.md calls out (not a paper
// table — supporting evidence for the framework's construction):
//   A. doped vs purely random initial population (§IV-A "semi-random"),
//   B. gene-kind-aware mutation vs generic reset/creep,
//   C. greedy post-GA refinement on vs off (our extension),
//   D. adder architecture: FA-only CSA (paper model) vs Wallace-with-HA vs
//      sequential ripple accumulation, priced on the trained designs.
// Metric for A/B: hypervolume of the estimated Pareto front (error vs FA
// area, reference (1.0, baseline FA area)).
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "pmlp/adder/variants.hpp"
#include "pmlp/core/pareto.hpp"
#include "pmlp/core/refine.hpp"
#include "pmlp/core/thread_pool.hpp"
#include "pmlp/netlist/activity.hpp"
#include "pmlp/nsga2/random_search.hpp"
#include "pmlp/netlist/builders.hpp"

namespace {

using namespace pmlp;

double front_hypervolume(const core::TrainingResult& r, double area_ref) {
  std::vector<core::Point2> pts;
  for (const auto& p : r.estimated_pareto) {
    pts.push_back({1.0 - p.train_accuracy, static_cast<double>(p.fa_area)});
  }
  return core::hypervolume2(pts, 1.0, area_ref);
}

}  // namespace

int main() {
  using namespace pmlp;
  std::cout << "=== Ablation study (dataset: BreastCancer, Cardio) ===\n\n";

  for (const char* name : {"BreastCancer", "Cardio"}) {
    const auto p = bench::prepare(name);
    auto cfg = bench::default_trainer_config(5);
    // Reference area: the doped (non-approximate) solution's FA count.
    const auto doped = core::ApproxMlp::from_quant_baseline(
        p.baseline, cfg.bits);
    const auto area_ref = static_cast<double>(doped.fa_area());

    std::cout << "--- " << name << " (baseline FA area "
              << static_cast<long>(area_ref) << ") ---\n";

    // A. doping (same constraint on both sides; only the seeding differs).
    {
      auto no_doping = cfg;
      no_doping.problem.doping_fraction = 0.0;
      const auto r1 =
          core::train_ga_axc(p.paper.topology, p.train, p.baseline, cfg);
      const auto r2 =
          core::train_ga_axc(p.paper.topology, p.train, p.baseline, no_doping);
      std::cout << "A. doped init HV  " << bench::fmt(front_hypervolume(r1, area_ref), 10, 1)
                << "   random init HV " << bench::fmt(front_hypervolume(r2, area_ref), 10, 1)
                << "\n";
    }

    // B. mutation operator.
    {
      auto generic = cfg;
      generic.problem.domain_mutation = false;
      const auto r1 =
          core::train_ga_axc(p.paper.topology, p.train, p.baseline, cfg);
      const auto r2 =
          core::train_ga_axc(p.paper.topology, p.train, p.baseline, generic);
      std::cout << "B. domain mut HV  " << bench::fmt(front_hypervolume(r1, area_ref), 10, 1)
                << "   generic mut HV " << bench::fmt(front_hypervolume(r2, area_ref), 10, 1)
                << "\n";
    }

    // C. greedy refinement on the best-within-5% design.
    if (const auto ours = bench::run_ours(p, 5); !ours.best) {
      std::cout << "C-E skipped: no GA-AxC design within 5% accuracy loss\n";
    } else {
      core::ApproxMlp refined = ours.best->model;
      core::RefineConfig rcfg;
      rcfg.accuracy_floor =
          core::accuracy(refined, p.train) - 0.01;
      const auto report = core::refine_greedy(refined, p.train, rcfg);
      std::cout << "C. refine: FA " << report.fa_before << " -> "
                << report.fa_after << " (" << report.bits_cleared
                << " bits cleared, " << report.biases_simplified
                << " biases simplified, acc "
                << bench::fmt(report.accuracy_before, 0, 3) << " -> "
                << bench::fmt(report.accuracy_after, 0, 3) << ")\n";

      // D. adder architecture on the refined design.
      double fa_only = 0, with_ha = 0, ripple = 0;
      adder::NeuronAdderSpec spec;
      for (const auto& layer : refined.layers()) {
        for (int o = 0; o < layer.n_out; ++o) {
          core::load_neuron_spec(layer, o, spec);
          fa_only += adder::fa_only_cost(spec).ha_equivalents();
          with_ha += adder::csa_with_ha_cost(spec).ha_equivalents();
          ripple += adder::ripple_accumulate_cost(spec).ha_equivalents();
        }
      }
      std::cout << "D. adder arch (HA-equiv): FA-only CSA "
                << bench::fmt(fa_only, 0, 0) << ", Wallace+HA "
                << bench::fmt(with_ha, 0, 0) << ", ripple accumulate "
                << bench::fmt(ripple, 0, 0) << "\n";

      // E. switching-activity power: confirm the static-dominated regime
      // the per-cell power model assumes (EGFET at a 200 ms clock).
      const auto circuit = netlist::build_bespoke_mlp(
          refined.to_bespoke_desc("refined"));
      std::vector<std::uint8_t> codes;
      const std::size_t n_vec = std::min<std::size_t>(p.test.size(), 64);
      for (std::size_t i = 0; i < n_vec; ++i) {
        const auto row = p.test.row(i);
        codes.insert(codes.end(), row.begin(), row.end());
      }
      const auto vectors = netlist::vectors_from_samples(
          circuit.input_buses, circuit.nl, codes, p.test.n_features);
      const auto activity = netlist::analyze_activity(
          circuit.nl, vectors, hwmodel::CellLibrary::egfet_1v(),
          p.paper.clock_ms);
      std::cout << "E. activity power: static "
                << bench::fmt(activity.static_power_uw / 1000.0, 0, 3)
                << " mW, dynamic "
                << bench::fmt(activity.dynamic_power_uw / 1000.0, 0, 6)
                << " mW (" << activity.total_toggles << " toggles over "
                << activity.vectors << " vectors)\n";
    }
    // F. NSGA-II vs uniform random search at the same evaluation budget.
    {
      core::ChromosomeCodec codec(p.paper.topology, cfg.bits);
      core::HwAwareProblem problem(codec, p.train, p.baseline, cfg.problem);
      const auto ga =
          core::train_ga_axc(p.paper.topology, p.train, p.baseline, cfg);
      nsga2::RandomSearchConfig rs;
      rs.evaluations = ga.evaluations;
      const auto random = nsga2::random_search(
          problem, rs, core::make_pool(cfg.n_threads).get());
      std::vector<core::Point2> pts;
      for (const auto& ind : random.pareto_front) {
        pts.push_back({ind.objectives[0], ind.objectives[1]});
      }
      std::cout << "F. NSGA-II HV     "
                << bench::fmt(front_hypervolume(ga, area_ref), 10, 1)
                << "   random search HV "
                << bench::fmt(core::hypervolume2(pts, 1.0, area_ref), 8, 1)
                << "  (same " << ga.evaluations << " evals)\n";
    }

    // G. fine-grained bit masks vs structured connection pruning (§III-B).
    {
      auto coarse = cfg;
      coarse.problem.coarse_pruning = true;
      const auto fine =
          core::train_ga_axc(p.paper.topology, p.train, p.baseline, cfg);
      const auto structured =
          core::train_ga_axc(p.paper.topology, p.train, p.baseline, coarse);
      std::cout << "G. fine masks HV  "
                << bench::fmt(front_hypervolume(fine, area_ref), 10, 1)
                << "   structured HV  "
                << bench::fmt(front_hypervolume(structured, area_ref), 10, 1)
                << "\n";
    }
    std::cout << "\n";
  }
  std::cout << "Interpretation: hypervolume is over (train error, FA area) "
               "with the 10% constraint active everywhere. Expected shape: "
               "NSGA-II >> random search at equal budgets (F); fine-grained "
               "bit masks dominate structured connection pruning (G, the "
               "paper's §III-B argument); refinement removes FAs at ~zero "
               "accuracy cost (C); dynamic power is negligible next to "
               "static at printed clocks (E); ripple accumulation is far "
               "costlier than the CSA tree the FA proxy assumes (D).\n";
  return 0;
}
