#include "nsga2_oracle.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>

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

}  // namespace pmlp::oracles
