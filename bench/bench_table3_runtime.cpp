// Reproduces Table III: training execution time of (1) gradient-based
// training (accuracy only), (2) GA-based training (accuracy only), and
// (3) our hardware/approximation-aware GA-AxC training, per dataset.
// The paper's absolute minutes come from ~26M-evaluation runs on an EPYC;
// here the same three trainers run at a scaled-down budget and the *ratios*
// (GA ~ GA-AxC >> gradient) are the reproduced shape.
//
// (3) runs the whole Table I suite through ONE CampaignRunner: the five
// Fig. 2 flows execute concurrently over a single shared worker pool of
// PMLP_THREADS workers (stage-granular scheduling, no per-flow thread
// forests). Cells are milliseconds so that small budgets stay readable.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "pmlp/core/campaign.hpp"
#include "pmlp/core/suite.hpp"
#include "pmlp/core/thread_pool.hpp"

int main() {
  using namespace pmlp;
  struct PaperRow {
    const char* name;
    double grad_min, ga_min, gaaxc_min;
  };
  const PaperRow paper[] = {
      {"BreastCancer", 0.5, 8, 9},   {"Cardio", 2, 42, 45},
      {"Pendigits", 14, 298, 344},   {"RedWine", 2, 21, 22},
      {"WhiteWine", 7, 77, 79},
  };

  // (3) GA-AxC: the five flows (GA seeded with default_flow_config(2)) on
  // one shared pool.
  const int env_threads = bench::env_int("PMLP_THREADS", 0);
  core::CampaignConfig campaign_cfg;
  campaign_cfg.n_threads = env_threads;
  core::CampaignRunner runner(campaign_cfg);
  for (const auto& pr : paper) {
    core::CampaignFlowSpec spec;
    spec.name = pr.name;
    spec.dataset = pr.name;
    spec.data = core::load_paper_dataset(pr.name);
    spec.topology = core::paper_topology(pr.name);
    spec.config = bench::default_flow_config(2);
    runner.add_flow(std::move(spec));
  }
  const auto campaign = runner.run();
  for (const auto& f : campaign.flows) {
    if (f.status != core::CampaignFlowStatus::kDone) {
      std::cerr << "campaign flow " << f.name << " "
                << core::campaign_flow_status_name(f.status) << ": "
                << f.error << "\n";
      return 1;
    }
  }

  std::cout << "=== Table III: training execution times (milliseconds at "
               "the scaled benchmark budget; paper minutes in parentheses) "
               "===\n\n";
  std::cout << "Dataset        Grad ms(paper min)  GA ms(paper min)  "
               "GA-AxC ms(paper min)  GA-AxC/GA ratio\n";

  const auto ms = [](double seconds, int width) {
    return bench::fmt(seconds * 1e3, width, 2);
  };
  double sum_grad = 0, sum_ga = 0, sum_axc = 0;
  for (std::size_t i = 0; i < std::size(paper); ++i) {
    const auto& pr = paper[i];
    const core::FlowResult& flow = *campaign.flows[i].result;
    const auto& axc = flow.training;

    // (1) Gradient training time: a clean rerun at the same epochs budget
    // on the blocked SIMD TrainEngine (PMLP_THREADS-wide block
    // parallelism).
    mlp::BackpropConfig bp;
    bp.epochs = bench::env_int("PMLP_EPOCHS", 150);
    bp.seed = 77;
    mlp::FloatMlp net(core::paper_topology(pr.name), 77);
    const auto grad = mlp::train_backprop(net, flow.baseline.train_raw, bp,
                                          core::make_pool(env_threads).get());

    // (2) GA accuracy-only, same evaluation budget as (3), outside the
    // campaign with PMLP_THREADS-wide intra-run fitness parallelism.
    const auto cfg = bench::default_flow_config(2);
    const auto ga = core::train_ga_accuracy_only(
        core::paper_topology(pr.name), flow.baseline.train, cfg.trainer);

    sum_grad += grad.wall_seconds;
    sum_ga += ga.wall_seconds;
    sum_axc += axc.wall_seconds;
    std::cout << bench::fmt(pr.name, -14) << ms(grad.wall_seconds, 9) << " ("
              << bench::fmt(pr.grad_min, 0, 1) << ")"
              << ms(ga.wall_seconds, 12) << " ("
              << bench::fmt(pr.ga_min, 0, 0) << ")"
              << ms(axc.wall_seconds, 12) << " ("
              << bench::fmt(pr.gaaxc_min, 0, 0) << ")"
              << bench::fmt(axc.wall_seconds / std::max(ga.wall_seconds, 1e-9),
                            14, 2)
              << "\n";
  }
  std::cout << "\nAverage: grad " << ms(sum_grad / 5, 0) << " ms, GA "
            << ms(sum_ga / 5, 0) << " ms, GA-AxC " << ms(sum_axc / 5, 0)
            << " ms  (paper: 5 / 89 / 100 min — GA-AxC stays close to "
               "hardware-unaware GA despite doubling the trainable "
               "parameters)\n";
  return 0;
}
