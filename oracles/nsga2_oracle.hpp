// Test- and bench-only oracle for NSGA-II ranking: Deb's O(M·N²) pairwise
// fast non-dominated sort with constraint domination (Deb et al., 2002) and
// the crowding assignment that rescans the population once per rank. The
// library's sort-and-sweep fast_non_dominated_sort must give the same ranks
// and front count, and assign_crowding_distances the same distances bit for
// bit (nsga2_test); bench_micro times the pairwise loop as the reference.
#pragma once

#include <vector>

#include "pmlp/nsga2/nsga2.hpp"

namespace pmlp::oracles {

/// Assign ranks (fronts) in place by Deb's pairwise loop over
/// nsga2::dominates; returns the number of fronts.
int non_dominated_sort_naive(std::vector<nsga2::Individual>& pop);

/// Assign crowding distances within each rank, scanning the whole
/// population for the members of each rank in turn.
void assign_crowding_distances_naive(std::vector<nsga2::Individual>& pop);

}  // namespace pmlp::oracles
