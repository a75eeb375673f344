// Quickstart: the complete Fig. 2 flow through the staged FlowEngine.
//   1. make a dataset (synthetic Breast-Cancer stand-in),
//   2. run the pipeline — split/quantize, float training, exact bespoke
//      baseline [2], GA-AxC hardware-aware training, greedy refinement,
//      gate-level pricing/verification, Table II pick — watching each
//      stage report its wall time,
//   3. print the picked design's cost and export Verilog.
#include <fstream>
#include <iostream>

#include "pmlp/core/flow_engine.hpp"
#include "pmlp/datasets/synthetic.hpp"
#include "pmlp/netlist/builders.hpp"
#include "pmlp/netlist/verilog.hpp"

int main() {
  using namespace pmlp;

  // 1. Dataset: 10 features, 2 classes, normalized to [0,1]. The engine
  //    does the 70/30 stratified split and 4-bit input quantization itself.
  const auto raw = datasets::generate(datasets::breast_cancer_spec());

  // 2. The whole pipeline as one engine run with a progress callback.
  core::FlowConfig cfg;
  cfg.backprop.epochs = 100;
  cfg.trainer.ga.population = 40;
  cfg.trainer.ga.generations = 25;
  core::FlowEngine engine(raw, mlp::Topology{{10, 3, 2}}, cfg);
  engine.set_progress([](const core::StageReport& r) {
    std::cout << "stage " << core::flow_stage_name(r.stage) << ": "
              << r.wall_seconds << " s (" << r.items << " items)\n";
  });
  const auto result = engine.run();

  std::cout << "\nbaseline: acc " << result.baseline.baseline_test_accuracy
            << ", area " << result.baseline.baseline_cost.area_cm2()
            << " cm2, power " << result.baseline.baseline_cost.power_mw()
            << " mW\n";
  std::cout << "GA-AxC: " << result.training.evaluations << " evaluations, "
            << result.front.size() << " true-Pareto points\n";
  if (!result.best) {
    std::cout << "no design met the 5% bound at this tiny GA budget\n";
    return 1;
  }
  std::cout << "best within 5% loss: acc " << result.best->test_accuracy
            << ", area " << result.best->cost.area_cm2() << " cm2 ("
            << result.area_reduction << "x smaller), power "
            << result.best->cost.power_mw() << " mW ("
            << result.power_reduction << "x lower)\n";

  // 3. Export the bespoke circuit as Verilog.
  const auto circuit = netlist::build_bespoke_mlp(
      result.best->model.to_bespoke_desc("approx_mlp"));
  std::ofstream out("approx_mlp.v");
  netlist::EmittedModule(circuit.nl, "approx_mlp").emit(out);
  std::cout << "wrote approx_mlp.v (" << circuit.nl.gates().size()
            << " cells)\n";
  return 0;
}
