#include "pmlp/nsga2/random_search.hpp"

#include <algorithm>
#include <chrono>
#include <random>

namespace pmlp::nsga2 {

Result random_search(const Problem& problem, const RandomSearchConfig& cfg,
                     core::ThreadPool* pool) {
  const auto t0 = std::chrono::steady_clock::now();
  std::mt19937_64 rng(cfg.seed);

  std::vector<Individual> candidates;
  candidates.reserve(static_cast<std::size_t>(cfg.evaluations));
  for (auto& genes : problem.seed_individuals(
           static_cast<int>(std::min<long>(cfg.evaluations, 1000)))) {
    Individual ind;
    ind.genes = std::move(genes);
    ind.genes.resize(static_cast<std::size_t>(problem.n_genes()), 0);
    for (std::size_t g = 0; g < ind.genes.size(); ++g) {
      const GeneBounds b = problem.bounds(static_cast<int>(g));
      ind.genes[g] = std::clamp(ind.genes[g], b.lo, b.hi);
    }
    candidates.push_back(std::move(ind));
  }
  while (static_cast<long>(candidates.size()) < cfg.evaluations) {
    Individual ind;
    ind.genes.resize(static_cast<std::size_t>(problem.n_genes()));
    for (std::size_t g = 0; g < ind.genes.size(); ++g) {
      const GeneBounds b = problem.bounds(static_cast<int>(g));
      std::uniform_int_distribution<int> pick(b.lo, b.hi);
      ind.genes[g] = pick(rng);
    }
    candidates.push_back(std::move(ind));
  }

  PopulationEvaluator evaluator(problem, pool);
  evaluator.evaluate(candidates);

  // Incremental non-dominated archive (cheaper than sorting the whole
  // pool: the archive stays small in practice).
  std::vector<Individual> archive;
  for (auto& ind : candidates) {
    bool dominated = false;
    for (auto it = archive.begin(); it != archive.end();) {
      if (dominates(*it, ind)) {
        dominated = true;
        break;
      }
      if (dominates(ind, *it)) {
        it = archive.erase(it);
      } else {
        ++it;
      }
    }
    if (!dominated) archive.push_back(ind);
  }
  const bool any_feasible =
      std::any_of(archive.begin(), archive.end(), [](const Individual& i) {
        return i.constraint_violation <= 0.0;
      });
  if (any_feasible) {
    archive.erase(std::remove_if(archive.begin(), archive.end(),
                                 [](const Individual& i) {
                                   return i.constraint_violation > 0.0;
                                 }),
                  archive.end());
  }
  std::sort(archive.begin(), archive.end(),
            [](const Individual& a, const Individual& b) {
              return a.objectives < b.objectives;
            });

  Result result;
  result.evaluations = static_cast<long>(candidates.size());
  result.pareto_front = std::move(archive);
  result.population.clear();  // the candidates are not retained
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace pmlp::nsga2
