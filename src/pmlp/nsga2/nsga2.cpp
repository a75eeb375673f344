#include "pmlp/nsga2/nsga2.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "pmlp/core/thread_pool.hpp"

namespace pmlp::nsga2 {

bool dominates(const Individual& a, const Individual& b) {
  const bool a_feasible = a.constraint_violation <= 0.0;
  const bool b_feasible = b.constraint_violation <= 0.0;
  if (a_feasible != b_feasible) return a_feasible;
  if (!a_feasible) return a.constraint_violation < b.constraint_violation;

  bool strictly_better = false;
  for (std::size_t m = 0; m < a.objectives.size(); ++m) {
    if (a.objectives[m] > b.objectives[m]) return false;
    if (a.objectives[m] < b.objectives[m]) strictly_better = true;
  }
  return strictly_better;
}

namespace {

/// One feasible individual's place in the sweep.
struct SweepKey {
  double f0;
  double f1;
  std::size_t index;
};

}  // namespace

int fast_non_dominated_sort(std::vector<Individual>& pop) {
  std::vector<SweepKey> feasible;
  std::vector<std::pair<double, std::size_t>> infeasible;  // (violation, index)
  feasible.reserve(pop.size());
  for (std::size_t i = 0; i < pop.size(); ++i) {
    const Individual& ind = pop[i];
    if (ind.objectives.size() != 2) {
      throw std::invalid_argument(
          "nsga2: individuals need exactly 2 objectives");
    }
    const double f0 = ind.objectives[0];
    const double f1 = ind.objectives[1];
    const double cv = ind.constraint_violation;
    if (std::isnan(f0) || std::isnan(f1) || std::isnan(cv)) {
      throw std::invalid_argument(
          "nsga2: NaN objective or constraint violation");
    }
    if (cv <= 0.0) {
      feasible.push_back({f0, f1, i});
    } else {
      infeasible.emplace_back(cv, i);
    }
  }

  // Feasible fronts: sweep in (f0, f1) order, so every dominator of p comes
  // before p, and an earlier q dominates p exactly when q.f1 <= p.f1 and q is
  // not p's exact duplicate. last[k] is the last point placed in front k;
  // front k dominates p iff last[k] does, and the fronts that dominate p
  // form a prefix, so p's front is found by binary search.
  std::sort(feasible.begin(), feasible.end(),
            [](const SweepKey& a, const SweepKey& b) {
              return a.f0 < b.f0 || (a.f0 == b.f0 && a.f1 < b.f1);
            });
  std::vector<SweepKey> last;
  for (const SweepKey& p : feasible) {
    const auto front = std::partition_point(
        last.begin(), last.end(), [&p](const SweepKey& q) {
          return q.f1 <= p.f1 && !(q.f0 == p.f0 && q.f1 == p.f1);
        });
    const auto rank = front - last.begin();
    if (front == last.end()) {
      last.push_back(p);
    } else {
      *front = p;
    }
    pop[p.index].rank = static_cast<int>(rank);
  }

  // Infeasible points rank after every feasible front, one front per
  // distinct violation, smallest first (Deb's constraint domination).
  int fronts = static_cast<int>(last.size());
  std::sort(infeasible.begin(), infeasible.end());
  for (std::size_t k = 0; k < infeasible.size(); ++k) {
    if (k == 0 || infeasible[k].first != infeasible[k - 1].first) ++fronts;
    pop[infeasible[k].second].rank = fronts - 1;
  }
  return fronts;
}

void assign_crowding_distances(std::vector<Individual>& pop) {
  if (pop.empty()) return;
  const std::size_t n_obj = pop.front().objectives.size();
  int max_rank = 0;
  for (auto& ind : pop) {
    ind.crowding = 0.0;
    max_rank = std::max(max_rank, ind.rank);
  }

  // Bucket the indices by rank, ascending within each rank: the same index
  // sequence a per-rank scan of the population builds. The per-objective
  // std::sort below is unstable, so this identical input order is what
  // keeps the distances bit-identical.
  std::vector<std::size_t> start(static_cast<std::size_t>(max_rank) + 2, 0);
  for (const auto& ind : pop) {
    if (ind.rank >= 0) ++start[static_cast<std::size_t>(ind.rank) + 1];
  }
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<std::size_t> order(start.back());
  std::vector<std::size_t> next(start.begin(), start.end() - 1);
  for (std::size_t i = 0; i < pop.size(); ++i) {
    if (pop[i].rank < 0) continue;
    order[next[static_cast<std::size_t>(pop[i].rank)]++] = i;
  }

  for (std::size_t r = 0; r + 1 < start.size(); ++r) {
    const std::span<std::size_t> idx(order.begin() + start[r],
                                     order.begin() + start[r + 1]);
    if (idx.empty()) continue;
    for (std::size_t m = 0; m < n_obj; ++m) {
      std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
        return pop[a].objectives[m] < pop[b].objectives[m];
      });
      const double lo = pop[idx.front()].objectives[m];
      const double hi = pop[idx.back()].objectives[m];
      pop[idx.front()].crowding = std::numeric_limits<double>::infinity();
      pop[idx.back()].crowding = std::numeric_limits<double>::infinity();
      if (hi <= lo) continue;
      for (std::size_t k = 1; k + 1 < idx.size(); ++k) {
        pop[idx[k]].crowding += (pop[idx[k + 1]].objectives[m] -
                                 pop[idx[k - 1]].objectives[m]) /
                                (hi - lo);
      }
    }
  }
}

std::vector<Individual> extract_pareto_front(std::vector<Individual> pop) {
  fast_non_dominated_sort(pop);
  const bool any_feasible =
      std::any_of(pop.begin(), pop.end(), [](const Individual& i) {
        return i.constraint_violation <= 0.0;
      });
  std::vector<Individual> front;
  for (auto& ind : pop) {
    // With constraint domination, rank 0 is feasible whenever anything is;
    // if nothing is feasible yet, return the least-violating front instead
    // of an empty result.
    if (ind.rank == 0 &&
        (ind.constraint_violation <= 0.0 || !any_feasible)) {
      front.push_back(std::move(ind));
    }
  }
  std::sort(front.begin(), front.end(),
            [](const Individual& a, const Individual& b) {
              return a.objectives < b.objectives;
            });
  front.erase(std::unique(front.begin(), front.end(),
                          [](const Individual& a, const Individual& b) {
                            return a.objectives == b.objectives;
                          }),
              front.end());
  return front;
}

PopulationEvaluator::PopulationEvaluator(const Problem& problem,
                                         core::ThreadPool* pool)
    : problem_(problem), pool_(pool) {
  const int chunks = core::pool_size(pool);
  workspaces_.reserve(static_cast<std::size_t>(chunks));
  for (int k = 0; k < chunks; ++k) {
    workspaces_.push_back(problem.make_workspace());
  }
}

PopulationEvaluator::~PopulationEvaluator() = default;

long PopulationEvaluator::evaluate(std::span<Individual> pop) {
  auto work = [this, pop](std::size_t chunk, std::size_t begin,
                          std::size_t end) {
    Problem::Workspace* ws = workspaces_[chunk].get();
    for (std::size_t i = begin; i < end; ++i) {
      auto ev = problem_.evaluate(pop[i].genes, ws);
      pop[i].objectives = std::move(ev.objectives);
      pop[i].constraint_violation = ev.constraint_violation;
    }
  };
  // A chromosome already evaluates as whole sample blocks through the
  // batched engine, so a chunk must hold several chromosomes for dispatch
  // to amortize: never split below 2 per worker — at bench-scale
  // populations a lone-chromosome chunk costs more in wakeup/join than its
  // evaluation (often a single cache hit) saves.
  core::parallel_for(pool_, pop.size(), work, /*min_per_chunk=*/2);
  return static_cast<long>(pop.size());
}

namespace {

/// Binary tournament by (rank, crowding) — the canonical crowded comparison.
const Individual& tournament(const std::vector<Individual>& pop,
                             std::mt19937_64& rng) {
  std::uniform_int_distribution<std::size_t> pick(0, pop.size() - 1);
  const Individual& a = pop[pick(rng)];
  const Individual& b = pop[pick(rng)];
  if (a.rank != b.rank) return a.rank < b.rank ? a : b;
  return a.crowding >= b.crowding ? a : b;
}

void crossover_genes(std::vector<int>& c1, std::vector<int>& c2,
                     CrossoverKind kind, std::mt19937_64& rng) {
  const std::size_t n = c1.size();
  if (n < 2) return;
  std::uniform_int_distribution<std::size_t> pos(1, n - 1);
  switch (kind) {
    case CrossoverKind::kUniform: {
      std::bernoulli_distribution coin(0.5);
      for (std::size_t g = 0; g < n; ++g) {
        if (coin(rng)) std::swap(c1[g], c2[g]);
      }
      break;
    }
    case CrossoverKind::kOnePoint: {
      const std::size_t cut = pos(rng);
      for (std::size_t g = cut; g < n; ++g) std::swap(c1[g], c2[g]);
      break;
    }
    case CrossoverKind::kTwoPoint: {
      std::size_t p1 = pos(rng);
      std::size_t p2 = pos(rng);
      if (p1 > p2) std::swap(p1, p2);
      for (std::size_t g = p1; g < p2; ++g) std::swap(c1[g], c2[g]);
      break;
    }
  }
}

void mutate_genes(std::vector<int>& genes, const Problem& problem,
                  const Config& cfg, std::mt19937_64& rng) {
  const double rate = cfg.per_gene_rate > 0.0
                          ? cfg.per_gene_rate
                          : 1.0 / static_cast<double>(genes.size());
  std::bernoulli_distribution hit(rate);
  std::bernoulli_distribution creep(cfg.creep_fraction);
  for (std::size_t g = 0; g < genes.size(); ++g) {
    if (!hit(rng)) continue;
    const GeneBounds b = problem.bounds(static_cast<int>(g));
    // Domain-aware mutation takes precedence when the problem provides one.
    if (auto custom = problem.mutate_gene(static_cast<int>(g), genes[g], rng)) {
      genes[g] = std::clamp(*custom, b.lo, b.hi);
      continue;
    }
    if (b.hi <= b.lo) {
      genes[g] = b.lo;
      continue;
    }
    if (creep(rng)) {
      std::uniform_int_distribution<int> step(1, cfg.creep_step);
      const int delta = (rng() & 1u) ? step(rng) : -step(rng);
      genes[g] = std::clamp(genes[g] + delta, b.lo, b.hi);
    } else {
      std::uniform_int_distribution<int> reset(b.lo, b.hi);
      genes[g] = reset(rng);
    }
  }
}

std::vector<int> random_genes(const Problem& problem, std::mt19937_64& rng) {
  std::vector<int> genes(static_cast<std::size_t>(problem.n_genes()));
  for (std::size_t g = 0; g < genes.size(); ++g) {
    const GeneBounds b = problem.bounds(static_cast<int>(g));
    std::uniform_int_distribution<int> pick(b.lo, b.hi);
    genes[g] = pick(rng);
  }
  return genes;
}

/// Elitist environmental selection: best `size` by (rank, crowding).
std::vector<Individual> select_survivors(std::vector<Individual> merged,
                                         std::size_t size) {
  fast_non_dominated_sort(merged);
  assign_crowding_distances(merged);
  std::sort(merged.begin(), merged.end(),
            [](const Individual& a, const Individual& b) {
              if (a.rank != b.rank) return a.rank < b.rank;
              return a.crowding > b.crowding;
            });
  merged.resize(size);
  return merged;
}

}  // namespace

Result optimize(const Problem& problem, const Config& cfg,
                core::ThreadPool* pool) {
  if (cfg.population < 4 || cfg.population % 2 != 0) {
    throw std::invalid_argument("nsga2: population must be even and >= 4");
  }
  if (problem.n_genes() <= 0) {
    throw std::invalid_argument("nsga2: problem has no genes");
  }
  // bernoulli_distribution requires p in [0, 1]; NaN fails these tests too.
  for (const double p : {cfg.crossover_prob, cfg.mutation_prob,
                         cfg.creep_fraction, cfg.per_gene_rate}) {
    if (!(p >= 0.0 && p <= 1.0)) {
      throw std::invalid_argument(
          "nsga2: probabilities and rates must lie in [0, 1]");
    }
  }
  if (cfg.creep_step < 1) {
    throw std::invalid_argument("nsga2: creep_step must be >= 1");
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::mt19937_64 rng(cfg.seed);
  Result result;
  PopulationEvaluator evaluator(problem, pool);

  std::vector<Individual> pop;
  int start_generation = 0;
  if (cfg.resume && !cfg.resume->population.empty()) {
    // --- Resume from a generation checkpoint: the state IS the evolution
    // (survivor order, ranks/crowding from the merged sort, RNG stream),
    // so restoring it verbatim reproduces the uninterrupted run exactly.
    if (static_cast<int>(cfg.resume->population.size()) != cfg.population) {
      throw std::invalid_argument(
          "nsga2: resume state population size mismatch");
    }
    if (cfg.resume->next_generation < 0 ||
        cfg.resume->next_generation > cfg.generations) {
      throw std::invalid_argument("nsga2: resume state generation out of "
                                  "range");
    }
    pop = cfg.resume->population;
    std::istringstream rng_in(cfg.resume->rng);
    rng_in >> rng;
    if (!rng_in) {
      throw std::invalid_argument("nsga2: resume state RNG does not parse");
    }
    result.evaluations = cfg.resume->evaluations;
    start_generation = cfg.resume->next_generation;
  } else {
    // --- Initial population: optional seeds + random fill.
    pop.reserve(static_cast<std::size_t>(cfg.population));
    for (auto& seed_genes : problem.seed_individuals(cfg.population)) {
      if (static_cast<int>(pop.size()) >= cfg.population) break;
      Individual ind;
      ind.genes = std::move(seed_genes);
      ind.genes.resize(static_cast<std::size_t>(problem.n_genes()), 0);
      for (std::size_t g = 0; g < ind.genes.size(); ++g) {
        const GeneBounds b = problem.bounds(static_cast<int>(g));
        ind.genes[g] = std::clamp(ind.genes[g], b.lo, b.hi);
      }
      pop.push_back(std::move(ind));
    }
    while (static_cast<int>(pop.size()) < cfg.population) {
      Individual ind;
      ind.genes = random_genes(problem, rng);
      pop.push_back(std::move(ind));
    }
    result.evaluations += evaluator.evaluate(pop);
    fast_non_dominated_sort(pop);
    assign_crowding_distances(pop);
  }

  std::bernoulli_distribution do_crossover(cfg.crossover_prob);
  std::bernoulli_distribution do_mutation(cfg.mutation_prob);

  for (int gen = start_generation; gen < cfg.generations; ++gen) {
    // --- Variation: tournament parents -> crossover -> mutation.
    std::vector<Individual> offspring;
    offspring.reserve(static_cast<std::size_t>(cfg.population));
    while (static_cast<int>(offspring.size()) < cfg.population) {
      std::vector<int> c1 = tournament(pop, rng).genes;
      std::vector<int> c2 = tournament(pop, rng).genes;
      if (do_crossover(rng)) crossover_genes(c1, c2, cfg.crossover, rng);
      if (do_mutation(rng)) mutate_genes(c1, problem, cfg, rng);
      if (do_mutation(rng)) mutate_genes(c2, problem, cfg, rng);
      Individual i1, i2;
      i1.genes = std::move(c1);
      i2.genes = std::move(c2);
      offspring.push_back(std::move(i1));
      offspring.push_back(std::move(i2));
    }
    result.evaluations += evaluator.evaluate(offspring);

    // --- Elitist survivor selection over parents + offspring.
    std::vector<Individual> merged = std::move(pop);
    merged.insert(merged.end(), std::make_move_iterator(offspring.begin()),
                  std::make_move_iterator(offspring.end()));
    pop = select_survivors(std::move(merged),
                           static_cast<std::size_t>(cfg.population));
    if (cfg.on_generation) cfg.on_generation(gen, pop);
    if (cfg.checkpoint_every > 0 && cfg.on_checkpoint &&
        gen + 1 < cfg.generations &&
        (gen + 1) % cfg.checkpoint_every == 0) {
      GenerationState state;
      state.next_generation = gen + 1;
      state.evaluations = result.evaluations;
      std::ostringstream rng_out;
      rng_out << rng;
      state.rng = rng_out.str();
      state.population = pop;
      cfg.on_checkpoint(state);
    }
  }

  result.pareto_front = extract_pareto_front(pop);
  result.population = std::move(pop);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace pmlp::nsga2
