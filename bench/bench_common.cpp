#include "bench_common.hpp"

#include <cstdlib>
#include <iomanip>
#include <sstream>

#include "pmlp/core/flow.hpp"
#include "pmlp/core/suite.hpp"

namespace pmlp::bench {

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::atoi(v);
}

core::FlowConfig default_flow_config(std::uint64_t seed) {
  core::FlowConfig cfg;
  cfg.split_seed = 1;
  cfg.backprop.epochs = env_int("PMLP_EPOCHS", 150);
  cfg.backprop.seed = 1234;
  cfg.trainer.ga.population = env_int("PMLP_POP", 120);
  cfg.trainer.ga.generations = env_int("PMLP_GENS", 600);
  cfg.trainer.n_threads = env_int("PMLP_THREADS", 0);
  cfg.trainer.problem.eval_cache_capacity = env_int("PMLP_CACHE", 4096);
  cfg.trainer.ga.seed = seed;
  cfg.refine = env_int("PMLP_REFINE", 1) != 0;
  cfg.hardware.equivalence_samples = 16;
  return cfg;
}

Prepared prepare(const std::string& dataset_name) {
  Prepared p;
  p.paper = mlp::paper_row(dataset_name);

  const auto data = core::load_paper_dataset(dataset_name);
  auto artifacts =
      core::build_baseline(data, p.paper.topology, default_flow_config(1));
  p.train_raw = std::move(artifacts.train_raw);
  p.test_raw = std::move(artifacts.test_raw);
  p.train = std::move(artifacts.train);
  p.test = std::move(artifacts.test);
  p.float_net = std::move(artifacts.float_net);
  p.baseline = std::move(artifacts.baseline);
  p.baseline_cost = artifacts.baseline_cost;
  p.baseline_train_accuracy = artifacts.baseline_train_accuracy;
  p.baseline_test_accuracy = artifacts.baseline_test_accuracy;
  return p;
}

std::vector<Prepared> prepare_suite() {
  std::vector<Prepared> out;
  for (const auto& row : mlp::paper_table1()) {
    out.push_back(prepare(row.dataset));
  }
  return out;
}

core::TrainerConfig default_trainer_config(std::uint64_t seed) {
  return default_flow_config(seed).trainer;
}

core::FlowEngine make_engine(const Prepared& p, std::uint64_t seed) {
  core::FlowEngine engine(datasets::Dataset{}, p.paper.topology,
                          default_flow_config(seed));
  core::UpstreamArtifacts up;
  up.split.train_raw = p.train_raw;
  up.split.test_raw = p.test_raw;
  up.split.train = p.train;
  up.split.test = p.test;
  up.float_net = p.float_net;
  up.baseline.net = p.baseline;
  up.baseline.cost = p.baseline_cost;
  up.baseline.train_accuracy = p.baseline_train_accuracy;
  up.baseline.test_accuracy = p.baseline_test_accuracy;
  engine.adopt_upstream(std::move(up));
  return engine;
}

OursOutcome run_ours(const Prepared& p, std::uint64_t seed) {
  auto engine = make_engine(p, seed);
  auto result = std::move(engine).run();

  OursOutcome out;
  out.training = std::move(result.training);
  out.evaluated = std::move(result.evaluated);
  out.stages = std::move(result.stages);
  out.best = std::move(result.best);
  return out;
}

double OursOutcome::best_test_accuracy() const {
  double best_acc = 0.0;
  for (const auto& e : evaluated) best_acc = std::max(best_acc, e.test_accuracy);
  return best_acc;
}

std::string fmt(double v, int width, int precision) {
  std::ostringstream os;
  os << std::setw(width) << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string fmt(const std::string& s, int width) {
  std::ostringstream os;
  if (width < 0) {
    os << std::left << std::setw(-width) << s;
  } else {
    os << std::setw(width) << s;
  }
  return os.str();
}

}  // namespace pmlp::bench
