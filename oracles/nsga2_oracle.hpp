// Test- and bench-only oracles for NSGA-II.
//
// Ranking: Deb's O(M·N²) pairwise fast non-dominated sort with constraint
// domination (Deb et al., 2002) and the crowding assignment that rescans
// the population once per rank. The library's sort-and-sweep
// fast_non_dominated_sort must give the same ranks and front count, and
// assign_crowding_distances the same distances bit for bit (nsga2_test);
// bench_micro times the pairwise loop as the reference.
//
// Variation: one generation of tournaments, crossover and mutation with a
// std::bernoulli_distribution per trial on std::mt19937_64, as optimize()
// bred offspring before its engine became core::Rng with thresholded
// trials. nsga2::Variation must produce the same offspring and leave its
// engine with the same text (nsga2_test, core_test); BM_Variation times
// both.
#pragma once

#include <functional>
#include <optional>
#include <random>
#include <vector>

#include "pmlp/core/chromosome.hpp"
#include "pmlp/nsga2/nsga2.hpp"

namespace pmlp::oracles {

/// Assign ranks (fronts) in place by Deb's pairwise loop over
/// nsga2::dominates; returns the number of fronts.
int non_dominated_sort_naive(std::vector<nsga2::Individual>& pop);

/// Assign crowding distances within each rank, scanning the whole
/// population for the members of each rank in turn.
void assign_crowding_distances_naive(std::vector<nsga2::Individual>& pop);

/// A problem's domain-aware mutation on std::mt19937_64 (the
/// Problem::mutate_gene contract); empty = none, so the generic reset/creep
/// mutation runs.
using GeneMutator =
    std::function<std::optional<int>(int gene, int current, std::mt19937_64&)>;

/// cfg.population unevaluated offspring of the ranked, crowded `parents`,
/// bred exactly as nsga2::Variation::offspring documents but with one std
/// distribution draw per trial. `cfg` must pass optimize()'s checks.
[[nodiscard]] std::vector<nsga2::Individual> offspring_naive(
    const std::vector<nsga2::Individual>& parents,
    const nsga2::Problem& problem, const nsga2::Config& cfg,
    std::mt19937_64& rng, const GeneMutator& mutate_gene = {});

/// core::HwAwareProblem's domain mutation (domain_mutation on) on
/// std::mt19937_64, for offspring_naive.
[[nodiscard]] std::optional<int> hw_mutate_gene_naive(
    const core::ChromosomeCodec& codec, int gene, int current,
    std::mt19937_64& rng);

}  // namespace pmlp::oracles
