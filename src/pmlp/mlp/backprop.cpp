#include "pmlp/mlp/backprop.hpp"

#include <algorithm>

#include "pmlp/mlp/train_engine.hpp"

namespace pmlp::mlp {

BackpropReport train_backprop(FloatMlp& net, const datasets::Dataset& train,
                              const BackpropConfig& cfg,
                              core::ThreadPool* pool) {
  TrainEngine engine(train, cfg, pool);
  return engine.train(net);
}

FloatMlp train_float_mlp(const Topology& topology,
                         const datasets::Dataset& train,
                         const BackpropConfig& cfg, BackpropReport* report,
                         core::ThreadPool* pool) {
  FloatMlp best;
  double best_acc = -1.0;
  BackpropReport best_report;
  const int restarts = std::max(1, cfg.restarts);
  // One engine (and workspace) serves every restart.
  TrainEngine engine(train, cfg, pool);
  for (int r = 0; r < restarts; ++r) {
    const std::uint64_t run_seed =
        cfg.seed + static_cast<std::uint64_t>(r) * 101;
    FloatMlp net(topology, run_seed);
    auto run_report = engine.train(net, run_seed);
    if (run_report.final_train_accuracy > best_acc) {
      best_acc = run_report.final_train_accuracy;
      best = std::move(net);
      best_report = run_report;
    }
  }
  if (report != nullptr) *report = best_report;
  return best;
}

}  // namespace pmlp::mlp
