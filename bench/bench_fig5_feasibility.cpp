// Reproduces Fig. 5: feasibility of printed-battery / energy-harvester
// operation. The baseline [2], the approximate TC'23 [5] designs and our
// GA-AxC designs are classified into power-source zones; ours are
// re-"synthesized" at 0.6 V (EGFET minimum), which the paper shows pushes
// every design except Pendigits into the harvester zone.
#include <iostream>

#include "bench_common.hpp"
#include "pmlp/baselines/tc23.hpp"
#include "pmlp/hwmodel/power.hpp"
#include "pmlp/netlist/builders.hpp"

int main() {
  using namespace pmlp;
  const auto& lib = hwmodel::CellLibrary::egfet_1v();
  const auto lib06 = lib.at_voltage(0.6);

  std::cout << "=== Fig. 5: feasibility zones (area vs printed power "
               "source) ===\n(paper: baselines all infeasible; [5] needs "
               "large batteries; ours at 0.6 V all harvester except "
               "Pendigits)\n\n";
  std::cout << "Dataset        Series             Area cm2   Power mW   "
               "Zone\n";

  double avg_power_gain_06 = 0.0;
  int n = 0;
  for (const auto& row : mlp::paper_table1()) {
    const auto p = bench::prepare(row.dataset);
    const auto ours = bench::run_ours(p, 1);
    if (!ours.best) {
      std::cout << bench::fmt(row.dataset, -14)
                << "skipped: no GA-AxC design within 5% accuracy loss\n\n";
      continue;
    }

    auto print = [&](const char* series, double area_cm2, double power_mw) {
      const auto zone = hwmodel::classify_feasibility(area_cm2, power_mw);
      std::cout << bench::fmt(row.dataset, -14) << bench::fmt(series, -18)
                << bench::fmt(area_cm2, 9, 2) << bench::fmt(power_mw, 11, 3)
                << "   " << hwmodel::zone_name(zone) << "\n";
    };

    // MICRO'20 [2] exact baseline at 1 V.
    print("MICRO'20 [2]", p.baseline_cost.area_cm2(),
          p.baseline_cost.power_mw());

    // TC'23 [5] at 1 V.
    const auto tc = baselines::run_tc23(p.baseline, p.train, p.test, lib);
    print("TC'23 [5]", tc.cost.area_cm2(), tc.cost.power_mw());

    // Ours at 1 V and re-synthesized at 0.6 V.
    print("ours @1.0V", ours.best->cost.area_cm2(),
          ours.best->cost.power_mw());
    const auto circuit = netlist::build_bespoke_mlp(
        ours.best->model.to_bespoke_desc(row.dataset + "_ours"));
    const auto cost06 = circuit.nl.cost(lib06);
    print("ours @0.6V", cost06.area_cm2(), cost06.power_mw());
    avg_power_gain_06 += p.baseline_cost.power_uw / cost06.power_uw;
    ++n;
    std::cout << "\n";
  }
  if (n == 0) {
    std::cout << "Average power gain of ours @0.6V: no dataset has a pick\n";
    return 0;
  }
  std::cout << "Average power gain of ours @0.6V vs baseline @1V over the "
            << n << " datasets with a pick: "
            << bench::fmt(avg_power_gain_06 / n, 0, 1)
            << "x  (paper: 912x at full GA budget)\n";
  return 0;
}
