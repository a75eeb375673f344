#include "pmlp/core/hardware_analysis.hpp"

#include <algorithm>

#include "pmlp/core/eval_engine.hpp"
#include "pmlp/core/pareto.hpp"
#include "pmlp/core/thread_pool.hpp"
#include "pmlp/netlist/builders.hpp"
#include "pmlp/netlist/opt.hpp"

namespace pmlp::core {

namespace {

/// Candidates per worker below which the pool fan-out is skipped:
/// dispatching a couple of netlist builds costs more than it saves (the
/// measured tiny-n "speedup" was < 1). Results are identical either way.
constexpr std::size_t kMinCandidatesPerWorker = 2;

/// Build/price/verify one candidate — pure function of its inputs, so the
/// parallel fan-out below is bit-identical to the serial loop. Model
/// predictions run through the compiled sparse engine; `ws` is the calling
/// worker's reusable workspace.
HwEvaluatedPoint evaluate_candidate(const EstimatedPoint& cand,
                                    const datasets::QuantizedDataset& test,
                                    const hwmodel::CellLibrary& lib,
                                    const HardwareAnalysisConfig& cfg,
                                    EvalWorkspace& ws) {
  HwEvaluatedPoint p;
  p.model = cand.model;
  p.fa_area = cand.fa_area;

  // One circuit, the synthesis-cleaned one export_rtl ships: it is both
  // priced and checked against the model below.
  const auto circuit = netlist::optimize(
      netlist::build_bespoke_mlp(cand.model.to_bespoke_desc("candidate")));
  p.cost = circuit.nl.cost(lib);

  std::size_t n_check = test.size();
  if (cfg.equivalence_samples == 0) {
    n_check = 0;
  } else if (cfg.equivalence_samples > 0) {
    n_check = std::min<std::size_t>(
        n_check, static_cast<std::size_t>(cfg.equivalence_samples));
  }
  const CompiledNet net(cand.model);
  const auto preds = net.predict_batch(test, ws);
  const auto gate_level = circuit.predict_batch(test.codes, n_check);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const int model_pred = preds[i];
    if (i < n_check && gate_level[i] != model_pred) {
      p.functional_match = false;
    }
    if (model_pred == test.labels[i]) ++correct;
  }
  p.test_accuracy = test.size() == 0 ? 0.0
                                     : static_cast<double>(correct) /
                                           static_cast<double>(test.size());
  return p;
}

}  // namespace

std::vector<HwEvaluatedPoint> evaluate_hardware(
    std::span<const EstimatedPoint> candidates,
    const datasets::QuantizedDataset& test, const hwmodel::CellLibrary& lib,
    const HardwareAnalysisConfig& cfg, ThreadPool* pool) {
  std::vector<HwEvaluatedPoint> out(candidates.size());
  // Each chunk fills its own static slice of the output, so the result
  // vector is index-addressed and independent of scheduling.
  parallel_for(
      pool, candidates.size(),
      [&](std::size_t, std::size_t begin, std::size_t end) {
        EvalWorkspace ws;
        for (std::size_t i = begin; i < end; ++i) {
          out[i] = evaluate_candidate(candidates[i], test, lib, cfg, ws);
        }
      },
      kMinCandidatesPerWorker);
  return out;
}

std::vector<HwEvaluatedPoint> true_pareto(std::vector<HwEvaluatedPoint> points) {
  std::vector<Point2> objs;
  objs.reserve(points.size());
  for (const auto& p : points) {
    objs.push_back({1.0 - p.test_accuracy, p.cost.area_mm2});
  }
  std::vector<HwEvaluatedPoint> front;
  for (std::size_t i : pareto_indices(objs)) {
    front.push_back(std::move(points[i]));
  }
  std::sort(front.begin(), front.end(),
            [](const HwEvaluatedPoint& a, const HwEvaluatedPoint& b) {
              return a.cost.area_mm2 < b.cost.area_mm2;
            });
  return front;
}

std::optional<HwEvaluatedPoint> best_within_loss(
    std::span<const HwEvaluatedPoint> points, double baseline_accuracy,
    double max_loss) {
  std::optional<HwEvaluatedPoint> best;
  for (const auto& p : points) {
    if (p.test_accuracy + 1e-12 < baseline_accuracy - max_loss) continue;
    if (!best || p.cost.area_mm2 < best->cost.area_mm2) best = p;
  }
  return best;
}

}  // namespace pmlp::core
