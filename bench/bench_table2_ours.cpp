// Reproduces Table II: our GA-AxC approximate printed MLPs at up to 5%
// accuracy loss — accuracy, area, power, and area/power reduction versus the
// exact bespoke baseline — next to the published values.
#include <cmath>
#include <iostream>
#include <iterator>
#include <string>

#include "bench_common.hpp"

int main() {
  using namespace pmlp;
  struct PaperRow {
    const char* name;
    double acc, area, power, ared, pred;
  };
  // Published Table II values for side-by-side comparison.
  const PaperRow paper[] = {
      {"BreastCancer", 0.947, 0.04, 0.15, 288, 274},
      {"Cardio", 0.873, 1.73, 6.5, 19.3, 19.0},
      {"Pendigits", 0.893, 12.7, 40.2, 5.3, 5.3},
      {"RedWine", 0.519, 0.04, 0.13, 470, 579},
      {"WhiteWine", 0.508, 0.20, 0.74, 122, 137},
  };

  std::cout << "=== Table II: our approximate printed MLPs (<=5% accuracy "
               "loss) ===\n\n";
  std::cout << "Dataset        Acc(meas) Acc(paper)  Area cm2   Power mW   "
               "AreaRed(meas) AreaRed(paper)  PowerRed(meas) PowerRed(paper)\n";

  double geo_area = 1.0, geo_power = 1.0;
  int n = 0;
  for (const auto& pr : paper) {
    const auto p = bench::prepare(pr.name);
    const auto ours = bench::run_ours(p, /*seed=*/1);
    const std::string tail =
        "  (baseline acc " + bench::fmt(p.baseline_test_accuracy, 0, 3) +
        ", GA evals " + std::to_string(ours.training.evaluations) + ")\n";
    if (!ours.best) {
      // No evaluated design is within 5% loss: report the flow's most
      // accurate design and its loss instead of a row that breaks the bound.
      const double best_acc = ours.best_test_accuracy();
      std::cout << bench::fmt(pr.name, -14) << "no pick: best test acc "
                << bench::fmt(best_acc, 0, 3) << ", loss "
                << bench::fmt(p.baseline_test_accuracy - best_acc, 0, 3)
                << " > 0.05" << tail;
      continue;
    }
    const auto& best = *ours.best;
    const double area_red = p.baseline_cost.area_mm2 / best.cost.area_mm2;
    const double power_red = p.baseline_cost.power_uw / best.cost.power_uw;
    geo_area *= area_red;
    geo_power *= power_red;
    ++n;
    std::cout << bench::fmt(pr.name, -14)
              << bench::fmt(best.test_accuracy, 9, 3)
              << bench::fmt(pr.acc, 11, 3)
              << bench::fmt(best.cost.area_cm2(), 11, 3)
              << bench::fmt(best.cost.power_mw(), 11, 3)
              << bench::fmt(area_red, 14, 1) << bench::fmt(pr.ared, 15, 1)
              << bench::fmt(power_red, 16, 1) << bench::fmt(pr.pred, 16, 1)
              << tail;
  }
  if (n == 0) {
    std::cout << "\nGeometric-mean reduction: no dataset has a pick\n";
    return 0;
  }
  std::cout << "\nGeometric-mean reduction over the " << n << " of "
            << std::size(paper) << " datasets with a pick: area "
            << bench::fmt(std::pow(geo_area, 1.0 / n), 0, 1) << "x, power "
            << bench::fmt(std::pow(geo_power, 1.0 / n), 0, 1)
            << "x  (paper reports 181x / 203x arithmetic averages at full "
               "26M-evaluation GA budgets)\n";
  return 0;
}
