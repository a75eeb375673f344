// Shared harness for the per-table/figure bench binaries: prepares the five
// paper datasets (synthetic stand-ins), trains + quantizes the exact bespoke
// baseline [2], prices it on the EGFET library, and runs the GA-AxC flow
// through the staged core::FlowEngine (the baseline artifacts are injected,
// so one prepared dataset serves any number of GA runs/seeds).
//
// Scale knobs (environment):
//   PMLP_POP   NSGA-II population          (default 120)
//   PMLP_GENS  NSGA-II generations         (default 600)
//   PMLP_EPOCHS backprop epochs            (default 150)
//   PMLP_THREADS the flow's thread setting (default 0 = all hardware
//              threads; sizes the one pool every flow stage borrows — and
//              in bench_table3_runtime the shared campaign-pool size)
//   PMLP_CACHE genome memo-cache entries   (default 4096; 0 = off)
//   PMLP_REFINE post-GA refinement         (default 1; 0 = off)
//   PMLP_SC_SAMPLES stochastic-sim samples (default 200)
// The paper's full-scale runs used ~26M evaluations; the defaults run 72k
// per dataset (population x generations), so expect smaller area and power
// reductions than the paper's at the default budget.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "pmlp/core/flow_engine.hpp"
#include "pmlp/core/hardware_analysis.hpp"
#include "pmlp/core/trainer.hpp"
#include "pmlp/datasets/synthetic.hpp"
#include "pmlp/hwmodel/cells.hpp"
#include "pmlp/mlp/backprop.hpp"
#include "pmlp/mlp/quant_mlp.hpp"
#include "pmlp/mlp/topology.hpp"

namespace pmlp::bench {

int env_int(const char* name, int fallback);

/// Everything the benches need about one paper dataset.
struct Prepared {
  mlp::PaperBaselineRow paper;      ///< published Table I row
  datasets::Dataset train_raw;      ///< float features (normalized)
  datasets::Dataset test_raw;
  datasets::QuantizedDataset train; ///< 4-bit codes
  datasets::QuantizedDataset test;
  mlp::FloatMlp float_net;          ///< gradient-trained reference
  mlp::QuantMlp baseline;           ///< exact bespoke baseline [2]
  hwmodel::CircuitCost baseline_cost;  ///< baseline netlist at 1 V
  double baseline_train_accuracy = 0.0;
  double baseline_test_accuracy = 0.0;
};

/// Prepare one dataset by Table I name ("BreastCancer", ...).
Prepared prepare(const std::string& dataset_name);

/// All five, Table I order.
std::vector<Prepared> prepare_suite();

/// Flow config honoring the env knobs (GA seeded with `seed`).
core::FlowConfig default_flow_config(std::uint64_t seed = 1);

/// Trainer defaults honoring the env knobs.
core::TrainerConfig default_trainer_config(std::uint64_t seed = 1);

/// FlowEngine primed with `p`'s already-built artifacts: the split,
/// float-net and baseline stages are injected (reported as reused), so
/// run() only executes GA -> refine -> hardware -> select.
core::FlowEngine make_engine(const Prepared& p, std::uint64_t seed = 1);

/// GA-AxC + hardware sign-off; returns the Table II pick (min area within
/// 5% test-accuracy loss), empty when no evaluated design is within it.
struct OursOutcome {
  core::TrainingResult training;
  std::vector<core::HwEvaluatedPoint> evaluated;
  std::optional<core::HwEvaluatedPoint> best;
  std::vector<core::StageReport> stages;  ///< ga/refine/hardware/select walls

  /// Best test accuracy among the evaluated designs (0 when none).
  [[nodiscard]] double best_test_accuracy() const;
};
OursOutcome run_ours(const Prepared& p, std::uint64_t seed = 1);

/// Fixed-width table cell helpers.
std::string fmt(double v, int width, int precision);
std::string fmt(const std::string& s, int width);

}  // namespace pmlp::bench
