#include "nsga2_oracle.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "pmlp/bitops/bitops.hpp"

namespace pmlp::oracles {

int non_dominated_sort_naive(std::vector<nsga2::Individual>& pop) {
  const std::size_t n = pop.size();
  std::vector<std::vector<std::size_t>> dominated(n);
  std::vector<int> dominate_count(n, 0);
  std::vector<std::size_t> current;

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (nsga2::dominates(pop[i], pop[j])) {
        dominated[i].push_back(j);
        ++dominate_count[j];
      } else if (nsga2::dominates(pop[j], pop[i])) {
        dominated[j].push_back(i);
        ++dominate_count[i];
      }
    }
    if (dominate_count[i] == 0) {
      pop[i].rank = 0;
      current.push_back(i);
    }
  }

  int rank = 0;
  while (!current.empty()) {
    std::vector<std::size_t> next;
    for (std::size_t i : current) {
      for (std::size_t j : dominated[i]) {
        if (--dominate_count[j] == 0) {
          pop[j].rank = rank + 1;
          next.push_back(j);
        }
      }
    }
    current = std::move(next);
    ++rank;
  }
  return rank;
}

void assign_crowding_distances_naive(std::vector<nsga2::Individual>& pop) {
  if (pop.empty()) return;
  const std::size_t n_obj = pop.front().objectives.size();
  for (auto& ind : pop) ind.crowding = 0.0;

  int max_rank = 0;
  for (const auto& ind : pop) max_rank = std::max(max_rank, ind.rank);

  std::vector<std::size_t> idx;
  for (int r = 0; r <= max_rank; ++r) {
    idx.clear();
    for (std::size_t i = 0; i < pop.size(); ++i) {
      if (pop[i].rank == r) idx.push_back(i);
    }
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

namespace {

const nsga2::Individual& tournament(
    const std::vector<nsga2::Individual>& pop, std::mt19937_64& rng) {
  std::uniform_int_distribution<std::size_t> pick(0, pop.size() - 1);
  const nsga2::Individual& a = pop[pick(rng)];
  const nsga2::Individual& b = pop[pick(rng)];
  if (a.rank != b.rank) return a.rank < b.rank ? a : b;
  return a.crowding >= b.crowding ? a : b;
}

void crossover_genes(std::vector<int>& c1, std::vector<int>& c2,
                     nsga2::CrossoverKind kind, std::mt19937_64& rng) {
  const std::size_t n = c1.size();
  if (n < 2) return;
  std::uniform_int_distribution<std::size_t> pos(1, n - 1);
  switch (kind) {
    case nsga2::CrossoverKind::kUniform: {
      std::bernoulli_distribution coin(0.5);
      for (std::size_t g = 0; g < n; ++g) {
        if (coin(rng)) std::swap(c1[g], c2[g]);
      }
      break;
    }
    case nsga2::CrossoverKind::kOnePoint: {
      const std::size_t cut = pos(rng);
      for (std::size_t g = cut; g < n; ++g) std::swap(c1[g], c2[g]);
      break;
    }
    case nsga2::CrossoverKind::kTwoPoint: {
      std::size_t p1 = pos(rng);
      std::size_t p2 = pos(rng);
      if (p1 > p2) std::swap(p1, p2);
      for (std::size_t g = p1; g < p2; ++g) std::swap(c1[g], c2[g]);
      break;
    }
  }
}

void mutate_genes(std::vector<int>& genes, const nsga2::Problem& problem,
                  const nsga2::Config& cfg, std::mt19937_64& rng,
                  const GeneMutator& mutate_gene) {
  const double rate = cfg.per_gene_rate > 0.0
                          ? cfg.per_gene_rate
                          : 1.0 / static_cast<double>(genes.size());
  std::bernoulli_distribution hit(rate);
  std::bernoulli_distribution creep(cfg.creep_fraction);
  for (std::size_t g = 0; g < genes.size(); ++g) {
    if (!hit(rng)) continue;
    const nsga2::GeneBounds b = problem.bounds(static_cast<int>(g));
    if (mutate_gene) {
      if (auto custom = mutate_gene(static_cast<int>(g), genes[g], rng)) {
        genes[g] = std::clamp(*custom, b.lo, b.hi);
        continue;
      }
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

}  // namespace

std::vector<nsga2::Individual> offspring_naive(
    const std::vector<nsga2::Individual>& parents,
    const nsga2::Problem& problem, const nsga2::Config& cfg,
    std::mt19937_64& rng, const GeneMutator& mutate_gene) {
  std::bernoulli_distribution do_crossover(cfg.crossover_prob);
  std::bernoulli_distribution do_mutation(cfg.mutation_prob);
  std::vector<nsga2::Individual> offspring;
  offspring.reserve(static_cast<std::size_t>(cfg.population));
  while (static_cast<int>(offspring.size()) < cfg.population) {
    std::vector<int> c1 = tournament(parents, rng).genes;
    std::vector<int> c2 = tournament(parents, rng).genes;
    if (do_crossover(rng)) crossover_genes(c1, c2, cfg.crossover, rng);
    if (do_mutation(rng)) mutate_genes(c1, problem, cfg, rng, mutate_gene);
    if (do_mutation(rng)) mutate_genes(c2, problem, cfg, rng, mutate_gene);
    nsga2::Individual i1, i2;
    i1.genes = std::move(c1);
    i2.genes = std::move(c2);
    offspring.push_back(std::move(i1));
    offspring.push_back(std::move(i2));
  }
  return offspring;
}

std::optional<int> hw_mutate_gene_naive(const core::ChromosomeCodec& codec,
                                        int gene, int current,
                                        std::mt19937_64& rng) {
  const auto b = codec.bounds(gene);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  switch (codec.kind(gene)) {
    case core::GeneKind::kMask: {
      const double r = u01(rng);
      if (r < 0.08) return 0;
      if (r < 0.16) return b.hi;
      const int width = bitops::bit_width_u(static_cast<std::uint64_t>(b.hi));
      const int bit = static_cast<int>(rng() % static_cast<unsigned>(width));
      return current ^ (1 << bit);
    }
    case core::GeneKind::kSign:
      return 1 - current;
    case core::GeneKind::kExponent: {
      if (u01(rng) < 0.2) {
        std::uniform_int_distribution<int> reset(b.lo, b.hi);
        return reset(rng);
      }
      return current + ((rng() & 1u) ? 1 : -1);
    }
    case core::GeneKind::kBias: {
      if (u01(rng) < 0.1) {
        std::uniform_int_distribution<int> reset(b.lo, b.hi);
        return reset(rng);
      }
      const int magnitude = 1 << (rng() % 6);
      return current + ((rng() & 1u) ? magnitude : -magnitude);
    }
  }
  return std::nullopt;
}

}  // namespace pmlp::oracles
