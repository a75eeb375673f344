#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>

#include "nsga2_oracle.hpp"
#include "pmlp/core/thread_pool.hpp"
#include "pmlp/nsga2/nsga2.hpp"

namespace nsga2 = pmlp::nsga2;

namespace {

nsga2::Individual make_ind(std::vector<double> objs, double violation = 0.0) {
  nsga2::Individual ind;
  ind.objectives = std::move(objs);
  ind.constraint_violation = violation;
  return ind;
}

/// Discrete bi-objective test problem: genes g_i in [0, 10];
/// f1 = sum(g), f2 = sum((10 - g)) — the whole diagonal is Pareto-optimal,
/// so convergence and spread are easy to quantify.
class LinearTradeoff final : public nsga2::Problem {
 public:
  explicit LinearTradeoff(int n = 8) : n_(n) {}
  [[nodiscard]] int n_genes() const override { return n_; }
  [[nodiscard]] nsga2::GeneBounds bounds(int) const override { return {0, 10}; }
  [[nodiscard]] Evaluation evaluate(std::span<const int> genes) const override {
    double f1 = 0, f2 = 0;
    for (int g : genes) {
      f1 += g;
      f2 += 10 - g;
    }
    return {{f1, f2}, 0.0};
  }

 private:
  int n_;
};

/// Problem with a constraint: f1 must be >= 20 (violation otherwise).
class ConstrainedTradeoff final : public nsga2::Problem {
 public:
  [[nodiscard]] int n_genes() const override { return 6; }
  [[nodiscard]] nsga2::GeneBounds bounds(int) const override { return {0, 10}; }
  [[nodiscard]] Evaluation evaluate(std::span<const int> genes) const override {
    double f1 = 0, f2 = 0;
    for (int g : genes) {
      f1 += g;
      f2 += 10 - g;
    }
    return {{f1, f2}, std::max(0.0, 20.0 - f1)};
  }
};

/// Problem exposing seeding.
class SeededProblem final : public nsga2::Problem {
 public:
  [[nodiscard]] int n_genes() const override { return 4; }
  [[nodiscard]] nsga2::GeneBounds bounds(int) const override { return {0, 5}; }
  [[nodiscard]] Evaluation evaluate(std::span<const int> genes) const override {
    double f1 = 0;
    for (int g : genes) f1 += g;
    return {{f1, -f1}, 0.0};
  }
  [[nodiscard]] std::vector<std::vector<int>> seed_individuals(
      int) const override {
    return {{5, 5, 5, 5}, {9, -3, 2, 2}};  // second is out of bounds
  }
};

}  // namespace

TEST(Dominates, ParetoRules) {
  const auto a = make_ind({1.0, 2.0});
  const auto b = make_ind({2.0, 3.0});
  const auto c = make_ind({2.0, 1.0});
  EXPECT_TRUE(nsga2::dominates(a, b));
  EXPECT_FALSE(nsga2::dominates(b, a));
  EXPECT_FALSE(nsga2::dominates(a, c));
  EXPECT_FALSE(nsga2::dominates(c, a));
  EXPECT_FALSE(nsga2::dominates(a, a));  // equal never dominates
}

TEST(Dominates, ConstraintDomination) {
  const auto feas = make_ind({9.0, 9.0}, 0.0);
  const auto infeas_small = make_ind({1.0, 1.0}, 0.5);
  const auto infeas_big = make_ind({0.0, 0.0}, 2.0);
  EXPECT_TRUE(nsga2::dominates(feas, infeas_small));
  EXPECT_FALSE(nsga2::dominates(infeas_small, feas));
  EXPECT_TRUE(nsga2::dominates(infeas_small, infeas_big));
}

TEST(FastNonDominatedSort, KnownFronts) {
  std::vector<nsga2::Individual> pop = {
      make_ind({1, 5}), make_ind({2, 3}), make_ind({4, 1}),  // front 0
      make_ind({2, 6}), make_ind({3, 4}),                    // front 1
      make_ind({5, 5}),                                      // front 2
  };
  const int fronts = nsga2::fast_non_dominated_sort(pop);
  EXPECT_EQ(fronts, 3);
  EXPECT_EQ(pop[0].rank, 0);
  EXPECT_EQ(pop[1].rank, 0);
  EXPECT_EQ(pop[2].rank, 0);
  EXPECT_EQ(pop[3].rank, 1);
  EXPECT_EQ(pop[4].rank, 1);
  EXPECT_EQ(pop[5].rank, 2);
}

namespace {

/// Random population for the oracle comparison. Each draw mixes one
/// objective shape (few tied integers, uniform reals, a single front, a
/// chain of N fronts) with one feasibility mix and optional exact
/// duplicates, +-inf objectives, tied violations and -0.0 violations.
std::vector<nsga2::Individual> random_population(std::size_t n,
                                                 std::mt19937_64& rng) {
  const auto pick = [&rng](std::uint64_t k) { return rng() % k; };
  const std::uint64_t shape = pick(4);
  const std::uint64_t levels = 1 + pick(12);
  const std::uint64_t feasibility = pick(3);  // all / none / 25% infeasible
  const bool tied_violations = pick(2) == 0;
  const bool negative_zero = pick(2) == 0;
  const bool infinities = pick(4) == 0;
  const bool duplicates = pick(3) == 0;
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  constexpr double kInf = std::numeric_limits<double>::infinity();

  std::vector<nsga2::Individual> pop(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& ind = pop[i];
    const double t = static_cast<double>(i);
    switch (shape) {
      case 0:
        ind.objectives = {static_cast<double>(pick(levels)),
                          static_cast<double>(pick(levels))};
        break;
      case 1:
        ind.objectives = {unit(rng), unit(rng)};
        break;
      case 2:
        ind.objectives = {t, -t};  // one front
        break;
      default:
        ind.objectives = {t, 2.0 * t};  // a chain of N fronts
        break;
    }
    if (infinities && pick(8) == 0) {
      ind.objectives[pick(2)] = pick(2) == 0 ? kInf : -kInf;
    }
    const bool infeasible =
        feasibility == 1 || (feasibility == 2 && pick(4) == 0);
    if (infeasible) {
      ind.constraint_violation =
          tied_violations ? 0.25 * static_cast<double>(1 + pick(3))
                          : unit(rng) + 1e-3;
    } else {
      ind.constraint_violation = negative_zero && pick(2) == 0 ? -0.0 : 0.0;
    }
    if (duplicates && i > 0 && pick(3) == 0) ind = pop[pick(i)];
  }
  std::shuffle(pop.begin(), pop.end(), rng);
  return pop;
}

}  // namespace

TEST(FastNonDominatedSort, MatchesDebsLoopAndCrowdingIsBitIdentical) {
  std::mt19937_64 rng(0x5eed);
  for (int trial = 0; trial < 10000; ++trial) {
    // Mostly small populations, every 50th up to 500 (and both ends).
    const std::size_t n = trial == 0   ? 0
                          : trial == 1 ? 500
                          : trial % 50 == 0 ? rng() % 501
                                            : rng() % 65;
    auto sweep = random_population(n, rng);
    auto naive = sweep;
    const int naive_fronts = pmlp::oracles::non_dominated_sort_naive(naive);
    const int sweep_fronts = nsga2::fast_non_dominated_sort(sweep);
    ASSERT_EQ(sweep_fronts, naive_fronts) << "trial " << trial << " n " << n;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(sweep[i].rank, naive[i].rank)
          << "trial " << trial << " n " << n << " individual " << i;
    }
    pmlp::oracles::assign_crowding_distances_naive(naive);
    nsga2::assign_crowding_distances(sweep);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(sweep[i].crowding),
                std::bit_cast<std::uint64_t>(naive[i].crowding))
          << "trial " << trial << " n " << n << " individual " << i;
    }
  }
}

TEST(FastNonDominatedSort, DuplicatesShareAFrontAndViolationsRankLast) {
  std::vector<nsga2::Individual> pop = {
      make_ind({1, 1}),       make_ind({1, 1}),       make_ind({1, 2}),
      make_ind({9, 9}, 0.5),  make_ind({0, 0}, 0.5),  make_ind({0, 0}, 2.0),
      make_ind({2, 2}, -0.0),
  };
  EXPECT_EQ(nsga2::fast_non_dominated_sort(pop), 5);
  const std::vector<int> want = {0, 0, 1, 3, 3, 4, 2};
  for (std::size_t i = 0; i < pop.size(); ++i) {
    EXPECT_EQ(pop[i].rank, want[i]) << i;
  }
}

TEST(FastNonDominatedSort, RejectsNanObjective) {
  std::vector<nsga2::Individual> pop = {
      make_ind({1, 2}), make_ind({std::nan(""), 1})};
  EXPECT_THROW(nsga2::fast_non_dominated_sort(pop), std::invalid_argument);
  pop[1] = make_ind({1, std::nan("")}, 1.0);  // infeasible too
  EXPECT_THROW(nsga2::fast_non_dominated_sort(pop), std::invalid_argument);
}

TEST(FastNonDominatedSort, RejectsNanViolation) {
  std::vector<nsga2::Individual> pop = {
      make_ind({1, 2}), make_ind({2, 1}, std::nan(""))};
  EXPECT_THROW(nsga2::fast_non_dominated_sort(pop), std::invalid_argument);
}

TEST(FastNonDominatedSort, RejectsOtherObjectiveCounts) {
  for (const std::vector<double>& objs :
       {std::vector<double>{}, std::vector<double>{1.0},
        std::vector<double>{1.0, 2.0, 3.0}}) {
    std::vector<nsga2::Individual> pop = {make_ind({1, 2}), make_ind(objs)};
    EXPECT_THROW(nsga2::fast_non_dominated_sort(pop), std::invalid_argument)
        << objs.size();
  }
}

TEST(CrowdingDistance, BoundaryPointsInfinite) {
  std::vector<nsga2::Individual> pop = {
      make_ind({1, 5}), make_ind({2, 3}), make_ind({4, 1})};
  nsga2::fast_non_dominated_sort(pop);
  nsga2::assign_crowding_distances(pop);
  EXPECT_TRUE(std::isinf(pop[0].crowding));
  EXPECT_TRUE(std::isinf(pop[2].crowding));
  EXPECT_TRUE(std::isfinite(pop[1].crowding));
  EXPECT_GT(pop[1].crowding, 0.0);
}

TEST(ExtractParetoFront, DropsInfeasibleAndDuplicates) {
  std::vector<nsga2::Individual> pop = {
      make_ind({1, 5}), make_ind({1, 5}),  // duplicate objectives
      make_ind({0, 0}, 1.0),               // infeasible (would dominate)
      make_ind({2, 3})};
  const auto front = nsga2::extract_pareto_front(pop);
  ASSERT_EQ(front.size(), 2u);
  EXPECT_EQ(front[0].objectives, (std::vector<double>{1, 5}));
  EXPECT_EQ(front[1].objectives, (std::vector<double>{2, 3}));
}

TEST(Optimize, ConvergesToLinearFront) {
  LinearTradeoff problem(8);
  nsga2::Config cfg;
  cfg.population = 40;
  cfg.generations = 40;
  cfg.seed = 1;
  const auto res = nsga2::optimize(problem, cfg);
  EXPECT_EQ(res.evaluations, 40 + 40 * 40);
  ASSERT_FALSE(res.pareto_front.empty());
  // Every point on the true front satisfies f1 + f2 == 80.
  for (const auto& ind : res.pareto_front) {
    EXPECT_DOUBLE_EQ(ind.objectives[0] + ind.objectives[1], 80.0);
  }
  // The front should spread over a substantial objective range.
  double lo = 1e9, hi = -1e9;
  for (const auto& ind : res.pareto_front) {
    lo = std::min(lo, ind.objectives[0]);
    hi = std::max(hi, ind.objectives[0]);
  }
  EXPECT_GT(hi - lo, 20.0);
}

TEST(Optimize, DeterministicInSeed) {
  LinearTradeoff problem(5);
  nsga2::Config cfg;
  cfg.population = 20;
  cfg.generations = 10;
  cfg.seed = 123;
  const auto r1 = nsga2::optimize(problem, cfg);
  const auto r2 = nsga2::optimize(problem, cfg);
  ASSERT_EQ(r1.pareto_front.size(), r2.pareto_front.size());
  for (std::size_t i = 0; i < r1.pareto_front.size(); ++i) {
    EXPECT_EQ(r1.pareto_front[i].genes, r2.pareto_front[i].genes);
  }
}

TEST(Optimize, ParallelEvaluationMatchesSerial) {
  LinearTradeoff problem(6);
  nsga2::Config cfg;
  cfg.population = 24;
  cfg.generations = 8;
  cfg.seed = 9;
  const auto serial = nsga2::optimize(problem, cfg);
  for (const int n : {1, 2, 4, 0}) {
    SCOPED_TRACE(n);
    pmlp::core::ThreadPool pool(n);
    const auto parallel = nsga2::optimize(problem, cfg, &pool);
    ASSERT_EQ(serial.pareto_front.size(), parallel.pareto_front.size());
    for (std::size_t i = 0; i < serial.pareto_front.size(); ++i) {
      EXPECT_EQ(serial.pareto_front[i].genes, parallel.pareto_front[i].genes);
    }
  }
}

TEST(Optimize, RespectsConstraints) {
  ConstrainedTradeoff problem;
  nsga2::Config cfg;
  cfg.population = 40;
  cfg.generations = 30;
  cfg.seed = 4;
  const auto res = nsga2::optimize(problem, cfg);
  ASSERT_FALSE(res.pareto_front.empty());
  for (const auto& ind : res.pareto_front) {
    EXPECT_GE(ind.objectives[0], 20.0);  // constraint satisfied
  }
}

TEST(Optimize, UsesAndClampsSeeds) {
  SeededProblem problem;
  nsga2::Config cfg;
  cfg.population = 8;
  cfg.generations = 0;
  cfg.seed = 2;
  const auto res = nsga2::optimize(problem, cfg);
  // Gen 0 population contains the seeded all-fives individual.
  bool found = false;
  for (const auto& ind : res.population) {
    if (ind.genes == std::vector<int>{5, 5, 5, 5}) found = true;
    for (std::size_t g = 0; g < ind.genes.size(); ++g) {
      EXPECT_GE(ind.genes[g], 0);
      EXPECT_LE(ind.genes[g], 5);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Optimize, RejectsBadConfig) {
  LinearTradeoff problem(4);
  nsga2::Config cfg;
  cfg.population = 3;  // odd and too small
  EXPECT_THROW((void)nsga2::optimize(problem, cfg), std::invalid_argument);
}

TEST(Optimize, GenerationCallbackFires) {
  LinearTradeoff problem(4);
  nsga2::Config cfg;
  cfg.population = 8;
  cfg.generations = 5;
  int calls = 0;
  cfg.on_generation = [&](int gen, const std::vector<nsga2::Individual>& pop) {
    EXPECT_EQ(gen, calls);
    EXPECT_EQ(pop.size(), 8u);
    ++calls;
  };
  (void)nsga2::optimize(problem, cfg);
  EXPECT_EQ(calls, 5);
}

TEST(Optimize, CheckpointKnobsAreBitNeutral) {
  LinearTradeoff problem(6);
  nsga2::Config plain;
  plain.population = 20;
  plain.generations = 12;
  plain.seed = 77;
  const auto ref = nsga2::optimize(problem, plain);

  nsga2::Config ticking = plain;
  ticking.checkpoint_every = 3;
  int checkpoints = 0;
  ticking.on_checkpoint = [&](const nsga2::GenerationState& st) {
    ++checkpoints;
    EXPECT_EQ(st.next_generation % 3, 0);
    EXPECT_LT(st.next_generation, 12);  // never after the final generation
    EXPECT_EQ(st.population.size(), 20u);
    EXPECT_FALSE(st.rng.empty());
  };
  const auto r = nsga2::optimize(problem, ticking);
  EXPECT_EQ(checkpoints, 3);  // gens 3, 6, 9
  ASSERT_EQ(r.population.size(), ref.population.size());
  for (std::size_t i = 0; i < ref.population.size(); ++i) {
    EXPECT_EQ(r.population[i].genes, ref.population[i].genes);
  }
}

TEST(Optimize, ResumeFromCheckpointBitIdentical) {
  LinearTradeoff problem(6);
  nsga2::Config cfg;
  cfg.population = 20;
  cfg.generations = 12;
  cfg.seed = 31;
  const auto ref = nsga2::optimize(problem, cfg);

  // Capture every generation boundary, then restart from each one: the
  // continuation must land on the uninterrupted run bit-for-bit (this is
  // what makes a SIGKILL inside the GA stage recoverable from
  // ga_state.txt).
  std::vector<std::shared_ptr<nsga2::GenerationState>> states;
  nsga2::Config capture = cfg;
  capture.checkpoint_every = 1;
  capture.on_checkpoint = [&](const nsga2::GenerationState& st) {
    states.push_back(std::make_shared<nsga2::GenerationState>(st));
  };
  (void)nsga2::optimize(problem, capture);
  ASSERT_EQ(states.size(), 11u);  // gens 1..11

  // Each state resumes from an `rng` line written by std::mt19937_64 (as
  // GA states were before core::Rng): std reads the engine's line and
  // writes it back byte for byte, and the engine continues from std's.
  for (const auto& state : states) {
    std::mt19937_64 std_rng;
    std::istringstream in(state->rng);
    in >> std_rng;
    ASSERT_TRUE(in);
    std::ostringstream out;
    out << std_rng;
    EXPECT_EQ(out.str(), state->rng);
    state->rng = out.str();
  }

  for (const auto& state : states) {
    nsga2::Config resumed = cfg;
    resumed.resume = state;
    const auto r = nsga2::optimize(problem, resumed);
    ASSERT_EQ(r.population.size(), ref.population.size())
        << "resume at gen " << state->next_generation;
    for (std::size_t i = 0; i < ref.population.size(); ++i) {
      EXPECT_EQ(r.population[i].genes, ref.population[i].genes)
          << "resume at gen " << state->next_generation;
      EXPECT_EQ(r.population[i].objectives, ref.population[i].objectives);
    }
    EXPECT_EQ(r.evaluations, ref.evaluations)
        << "resume at gen " << state->next_generation;
  }
}

TEST(Optimize, ResumeRejectsMismatchedState) {
  LinearTradeoff problem(4);
  nsga2::Config cfg;
  cfg.population = 8;
  cfg.generations = 4;
  auto state = std::make_shared<nsga2::GenerationState>();
  state->next_generation = 1;
  state->population.resize(6);  // wrong population size
  cfg.resume = state;
  EXPECT_THROW((void)nsga2::optimize(problem, cfg), std::invalid_argument);
  auto state2 = std::make_shared<nsga2::GenerationState>();
  state2->next_generation = 1;
  state2->population.resize(8);
  state2->rng = "not a valid mt19937_64 stream";
  cfg.resume = state2;
  EXPECT_THROW((void)nsga2::optimize(problem, cfg), std::invalid_argument);
}

TEST(Optimize, ResumeRejectsWrongObjectiveCount) {
  LinearTradeoff problem(4);
  nsga2::Config cfg;
  cfg.population = 8;
  cfg.generations = 4;
  cfg.checkpoint_every = 1;
  std::shared_ptr<nsga2::GenerationState> state;
  cfg.on_checkpoint = [&](const nsga2::GenerationState& st) {
    if (!state) state = std::make_shared<nsga2::GenerationState>(st);
  };
  (void)nsga2::optimize(problem, cfg);
  ASSERT_TRUE(state);
  cfg.on_checkpoint = nullptr;
  state->population[3].objectives.push_back(0.0);
  cfg.resume = state;
  EXPECT_THROW((void)nsga2::optimize(problem, cfg), std::invalid_argument);
}

namespace {

/// optimize() with one Config field changed must throw invalid_argument.
template <typename Edit>
void expect_config_rejected(Edit edit) {
  LinearTradeoff problem(4);
  nsga2::Config cfg;
  cfg.population = 8;
  cfg.generations = 2;
  edit(cfg);
  EXPECT_THROW((void)nsga2::optimize(problem, cfg), std::invalid_argument);
}

constexpr double kOutsideUnit[] = {
    -0.1, 1.5, std::numeric_limits<double>::quiet_NaN()};

}  // namespace

TEST(Optimize, RejectsCrossoverProbOutsideUnitInterval) {
  for (const double p : kOutsideUnit) {
    expect_config_rejected([p](nsga2::Config& c) { c.crossover_prob = p; });
  }
}

TEST(Optimize, RejectsMutationProbOutsideUnitInterval) {
  for (const double p : kOutsideUnit) {
    expect_config_rejected([p](nsga2::Config& c) { c.mutation_prob = p; });
  }
}

TEST(Optimize, RejectsCreepFractionOutsideUnitInterval) {
  for (const double p : kOutsideUnit) {
    expect_config_rejected([p](nsga2::Config& c) { c.creep_fraction = p; });
  }
}

TEST(Optimize, RejectsPerGeneRateOutsideUnitInterval) {
  for (const double p : kOutsideUnit) {
    expect_config_rejected([p](nsga2::Config& c) { c.per_gene_rate = p; });
  }
}

TEST(Optimize, RejectsCreepStepBelowOne) {
  for (const int step : {0, -3}) {
    expect_config_rejected([step](nsga2::Config& c) { c.creep_step = step; });
  }
}

TEST(Optimize, AcceptsUnitIntervalEndpoints) {
  LinearTradeoff problem(4);
  nsga2::Config cfg;
  cfg.population = 8;
  cfg.generations = 2;
  cfg.crossover_prob = 1.0;
  cfg.mutation_prob = 1.0;
  cfg.creep_fraction = 0.0;
  cfg.per_gene_rate = 1.0;
  EXPECT_NO_THROW((void)nsga2::optimize(problem, cfg));
}

class CrossoverKinds
    : public ::testing::TestWithParam<nsga2::CrossoverKind> {};

TEST_P(CrossoverKinds, AllKindsConverge) {
  LinearTradeoff problem(6);
  nsga2::Config cfg;
  cfg.population = 24;
  cfg.generations = 25;
  cfg.crossover = GetParam();
  cfg.seed = 11;
  const auto res = nsga2::optimize(problem, cfg);
  ASSERT_FALSE(res.pareto_front.empty());
  for (const auto& ind : res.pareto_front) {
    EXPECT_DOUBLE_EQ(ind.objectives[0] + ind.objectives[1], 60.0);
  }
}

INSTANTIATE_TEST_SUITE_P(All, CrossoverKinds,
                         ::testing::Values(nsga2::CrossoverKind::kUniform,
                                           nsga2::CrossoverKind::kOnePoint,
                                           nsga2::CrossoverKind::kTwoPoint));

namespace {

/// Genes with mixed bounds: wide, narrow, negative and degenerate (lo == hi).
class MixedBounds final : public nsga2::Problem {
 public:
  explicit MixedBounds(int n) : n_(n) {}
  [[nodiscard]] int n_genes() const override { return n_; }
  [[nodiscard]] nsga2::GeneBounds bounds(int g) const override {
    const int lo = -(g % 7);
    return {lo, lo + (g % 13) * (g % 5)};
  }
  [[nodiscard]] Evaluation evaluate(std::span<const int>) const override {
    return {{0.0, 0.0}, 0.0};
  }

 private:
  int n_;
};

/// Parents in bounds with ranks 0..3 and crowding ties (incl. infinity),
/// the inputs a tournament reads.
std::vector<nsga2::Individual> random_parents(const nsga2::Problem& problem,
                                              int n, std::mt19937_64& rng) {
  std::vector<nsga2::Individual> pop(static_cast<std::size_t>(n));
  for (auto& ind : pop) {
    for (int g = 0; g < problem.n_genes(); ++g) {
      const auto b = problem.bounds(g);
      std::uniform_int_distribution<int> value(b.lo, b.hi);
      ind.genes.push_back(value(rng));
    }
    ind.rank = static_cast<int>(rng() % 4);
    const double crowding[] = {0.0, 0.5, 1.25,
                               std::numeric_limits<double>::infinity()};
    ind.crowding = crowding[rng() % 4];
  }
  return pop;
}

std::string engine_text(const auto& engine) {
  std::ostringstream os;
  os << engine;
  return os.str();
}

/// Run `generations` generations of Variation and of the std oracle from
/// one seed, feeding each generation's offspring (re-ranked at random) to
/// the next, and require equal offspring and equal engine text throughout.
void expect_variation_matches_oracle(const nsga2::Problem& problem,
                                     const nsga2::Config& cfg,
                                     const pmlp::oracles::GeneMutator& naive,
                                     int generations) {
  std::mt19937_64 fixture_rng(cfg.seed * 7 + 1);
  std::vector<nsga2::Individual> parents =
      random_parents(problem, cfg.population, fixture_rng);
  const nsga2::Variation variation(problem, cfg);
  pmlp::core::Rng rng(cfg.seed);
  std::mt19937_64 ref(cfg.seed);
  for (int gen = 0; gen < generations; ++gen) {
    const auto got = variation.offspring(parents, rng);
    const auto want =
        pmlp::oracles::offspring_naive(parents, problem, cfg, ref, naive);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].genes, want[i].genes)
          << "generation " << gen << " child " << i;
    }
    ASSERT_EQ(engine_text(rng), engine_text(ref)) << "generation " << gen;
    parents = got;
    for (auto& ind : parents) {
      ind.rank = static_cast<int>(fixture_rng() % 4);
      ind.crowding = static_cast<double>(fixture_rng() % 3);
    }
  }
}

}  // namespace

TEST(Variation, MatchesStdOracleAcrossKindsRatesAndCreep) {
  const MixedBounds problem(61);
  const nsga2::CrossoverKind kinds[] = {nsga2::CrossoverKind::kUniform,
                                        nsga2::CrossoverKind::kOnePoint,
                                        nsga2::CrossoverKind::kTwoPoint};
  std::uint64_t seed = 40;
  for (const auto kind : kinds) {
    for (const double rate : {0.0, 0.3, 1.0}) {
      for (const double creep : {0.0, 1.0}) {
        for (const double xo : {0.7, 1.0}) {
          nsga2::Config cfg;
          cfg.population = 20;
          cfg.crossover = kind;
          cfg.per_gene_rate = rate;
          cfg.creep_fraction = creep;
          cfg.creep_step = 3;
          cfg.crossover_prob = xo;
          cfg.mutation_prob = xo == 1.0 ? 1.0 : 0.2;
          cfg.seed = ++seed;
          SCOPED_TRACE(testing::Message()
                       << "kind " << static_cast<int>(kind) << " rate "
                       << rate << " creep " << creep << " xo " << xo);
          expect_variation_matches_oracle(problem, cfg, {}, 8);
        }
      }
    }
  }
}

TEST(Variation, RejectsWhatOptimizeRejects) {
  const MixedBounds problem(5);
  nsga2::Config cfg;
  cfg.population = 7;
  EXPECT_THROW((void)nsga2::Variation(problem, cfg), std::invalid_argument);
  cfg.population = 8;
  cfg.per_gene_rate = 1.5;
  EXPECT_THROW((void)nsga2::Variation(problem, cfg), std::invalid_argument);
  cfg.per_gene_rate = 0.0;
  cfg.creep_step = 0;
  EXPECT_THROW((void)nsga2::Variation(problem, cfg), std::invalid_argument);
  EXPECT_THROW((void)nsga2::Variation(MixedBounds(0), nsga2::Config{}),
               std::invalid_argument);
}
