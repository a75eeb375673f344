// Random-search baseline over the same Problem interface as NSGA-II: draws
// uniform random genomes (plus the problem's seeds), evaluates the same
// number of candidates, and keeps the non-dominated feasible set. Exists to
// quantify how much the evolutionary machinery (selection, crossover,
// domain mutation) actually contributes — see bench_ablation.
#pragma once

#include "pmlp/nsga2/nsga2.hpp"

namespace pmlp::nsga2 {

struct RandomSearchConfig {
  long evaluations = 10000;
  std::uint64_t seed = 1;
};

/// Evaluate `evaluations` random candidates on the borrowed `pool` (null =
/// serial); returns the feasible non-dominated subset (same Result contract
/// as optimize()). Candidate genomes are drawn serially from cfg.seed before
/// evaluation, so results are bit-identical for any pool.
[[nodiscard]] Result random_search(const Problem& problem,
                                   const RandomSearchConfig& cfg,
                                   core::ThreadPool* pool = nullptr);

}  // namespace pmlp::nsga2
