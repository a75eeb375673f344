// Determinism contract of the parallel evaluation subsystem: NSGA-II and
// random_search must produce bit-identical results on any borrowed pool
// (sizes 1, 2, 4 and all hardware threads) and on none, because only
// Problem::evaluate() runs off the calling thread.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "pmlp/core/problem.hpp"
#include "pmlp/core/thread_pool.hpp"
#include "pmlp/datasets/synthetic.hpp"
#include "pmlp/mlp/backprop.hpp"
#include "pmlp/nsga2/nsga2.hpp"
#include "pmlp/nsga2/random_search.hpp"

namespace core = pmlp::core;
namespace ds = pmlp::datasets;
namespace mlp = pmlp::mlp;
namespace nsga2 = pmlp::nsga2;

namespace {

void expect_identical(const std::vector<nsga2::Individual>& a,
                      const std::vector<nsga2::Individual>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].genes, b[i].genes) << "individual " << i;
    EXPECT_EQ(a[i].objectives, b[i].objectives) << "individual " << i;
    EXPECT_EQ(a[i].constraint_violation, b[i].constraint_violation)
        << "individual " << i;
    EXPECT_EQ(a[i].rank, b[i].rank) << "individual " << i;
  }
}

void expect_identical(const nsga2::Result& a, const nsga2::Result& b) {
  EXPECT_EQ(a.evaluations, b.evaluations);
  expect_identical(a.population, b.population);
  expect_identical(a.pareto_front, b.pareto_front);
}

/// Small but real GA-AxC setup (quantized baseline + doped seeds), built
/// once; each test constructs its own problem from it, so every run lays
/// the training set out as fresh SamplePlanes that all workers share.
struct Fixture {
  ds::QuantizedDataset train;
  mlp::Topology topology;
  mlp::QuantMlp baseline;

  static Fixture make() {
    auto spec = ds::breast_cancer_spec();
    spec.n_samples = 120;
    auto raw = ds::generate(spec);
    auto split = ds::stratified_split(raw, 0.7, 1);
    mlp::Topology topo{{raw.n_features, 3, raw.n_classes}};
    mlp::BackpropConfig bp;
    bp.epochs = 20;
    bp.seed = 21;
    auto fnet = mlp::train_float_mlp(topo, split.train, bp);
    return Fixture{ds::quantize_inputs(split.train, 4), topo,
                   mlp::QuantMlp::from_float(fnet, 8, 4, 8)};
  }
};

const Fixture& fixture() {
  static const Fixture f = Fixture::make();
  return f;
}

/// Pool sizes every determinism test lends; 0 = all hardware threads.
constexpr int kPoolSizes[] = {1, 2, 4, 0};

nsga2::Config small_ga() {
  nsga2::Config cfg;
  cfg.population = 16;
  cfg.generations = 4;
  cfg.seed = 77;
  return cfg;
}

/// Deterministic problem whose evaluate() sleeps, to actually exercise
/// concurrent pool execution rather than winning the race trivially.
class SlowTradeoff final : public nsga2::Problem {
 public:
  [[nodiscard]] int n_genes() const override { return 6; }
  [[nodiscard]] nsga2::GeneBounds bounds(int) const override { return {0, 9}; }
  [[nodiscard]] Evaluation evaluate(std::span<const int> genes) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    double f1 = 0, f2 = 0;
    for (int g : genes) {
      f1 += g;
      f2 += 9 - g;
    }
    return {{f1, f2}, 0.0};
  }
};

}  // namespace

TEST(ParallelEval, HwAwareProblemSerialAndParallelFrontsIdentical) {
  const auto& f = fixture();
  core::ChromosomeCodec codec(f.topology, core::BitConfig{});
  core::HwAwareProblem problem(codec, f.train, f.baseline, {});
  const auto serial = nsga2::optimize(problem, small_ga());
  for (const int n : kPoolSizes) {
    SCOPED_TRACE(n);
    core::ThreadPool pool(n);
    expect_identical(serial, nsga2::optimize(problem, small_ga(), &pool));
  }
}

TEST(ParallelEval, AutoThreadsMatchesSerial) {
  const auto& f = fixture();
  core::ChromosomeCodec codec(f.topology, core::BitConfig{});
  core::HwAwareProblem problem(codec, f.train, f.baseline, {});
  const auto serial = nsga2::optimize(problem, small_ga());
  const auto pool = core::make_pool(0);
  expect_identical(serial, nsga2::optimize(problem, small_ga(), pool.get()));
}

TEST(ParallelEval, PopulationEvaluatorMatchesDirectEvaluation) {
  const auto& f = fixture();
  core::ChromosomeCodec codec(f.topology, core::BitConfig{});
  core::HwAwareProblem problem(codec, f.train, f.baseline, {});
  std::mt19937_64 rng(5);
  std::vector<nsga2::Individual> pop(12);
  for (auto& ind : pop) {
    ind.genes.resize(static_cast<std::size_t>(problem.n_genes()));
    for (std::size_t g = 0; g < ind.genes.size(); ++g) {
      const auto b = problem.bounds(static_cast<int>(g));
      ind.genes[g] = std::uniform_int_distribution<int>(b.lo, b.hi)(rng);
    }
  }
  auto expected = pop;
  for (auto& ind : expected) {
    auto ev = problem.evaluate(ind.genes);
    ind.objectives = ev.objectives;
    ind.constraint_violation = ev.constraint_violation;
  }
  for (const int n : kPoolSizes) {
    SCOPED_TRACE(n);
    core::ThreadPool pool(n);
    auto scored = pop;
    nsga2::PopulationEvaluator evaluator(problem, &pool);
    EXPECT_EQ(evaluator.evaluate(scored), static_cast<long>(pop.size()));
    expect_identical(expected, scored);
  }
}

TEST(ParallelEval, SlowProblemStressStaysDeterministic) {
  SlowTradeoff slow;
  nsga2::Config cfg;
  cfg.population = 16;
  cfg.generations = 3;
  cfg.seed = 9;
  const auto serial = nsga2::optimize(slow, cfg);
  core::ThreadPool pool(8);
  expect_identical(serial, nsga2::optimize(slow, cfg, &pool));
}

TEST(RandomSearchDeterminism, SameSeedSameResult) {
  const auto& f = fixture();
  core::ChromosomeCodec codec(f.topology, core::BitConfig{});
  core::HwAwareProblem problem(codec, f.train, f.baseline, {});
  nsga2::RandomSearchConfig cfg;
  cfg.evaluations = 200;
  cfg.seed = 3;
  const auto a = nsga2::random_search(problem, cfg);
  const auto b = nsga2::random_search(problem, cfg);
  expect_identical(a, b);
}

TEST(RandomSearchDeterminism, ParallelMatchesSerial) {
  const auto& f = fixture();
  core::ChromosomeCodec codec(f.topology, core::BitConfig{});
  core::HwAwareProblem problem(codec, f.train, f.baseline, {});
  nsga2::RandomSearchConfig cfg;
  cfg.evaluations = 200;
  cfg.seed = 3;
  const auto serial = nsga2::random_search(problem, cfg);
  for (const int n : kPoolSizes) {
    SCOPED_TRACE(n);
    core::ThreadPool pool(n);
    expect_identical(serial, nsga2::random_search(problem, cfg, &pool));
  }
}
