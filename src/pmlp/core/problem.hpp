// The paper's multi-objective training problem (Eq. 3):
//   min_theta [ 1 - Accuracy(theta, D),  Area(theta) ]
// with Area the FA-count proxy (Eq. 2) and a constraint-dominated bound of
// 10% acceptable accuracy loss versus the exact baseline (§IV-A). The
// initial population is doped with ~10% nearly non-approximate solutions
// derived from the quantized baseline.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "pmlp/core/chromosome.hpp"
#include "pmlp/core/eval_engine.hpp"
#include "pmlp/datasets/dataset.hpp"
#include "pmlp/nsga2/nsga2.hpp"

namespace pmlp::core {

struct ProblemConfig {
  double max_accuracy_loss = 0.10;  ///< training-time bound (paper: 10%)
  double doping_fraction = 0.10;    ///< share of seeded individuals
  std::uint64_t doping_seed = 7;    ///< jitter seed for seed diversity
  /// Gene-kind-aware mutation (bit flips on masks, creep on exponents and
  /// biases); disable to fall back to the engine's generic reset/creep —
  /// ablated in bench_ablation.
  bool domain_mutation = true;
  /// Classic structured (connection-level) unstructured pruning instead of
  /// the paper's fine-grained bit-level masks: every non-zero mask is
  /// coarsened to all-ones before evaluation, so a connection is either
  /// fully present or fully removed. Reproduces the §III-B observation
  /// that coarse pruning trades accuracy much worse than bit-level masks.
  bool coarse_pruning = false;
  /// Genome memo cache capacity (entries) of the evaluation engine:
  /// duplicate individuals that NSGA-II elitism/crossover produce every
  /// generation short-circuit to their cached objectives. 0 disables.
  /// Cached and uncached runs are bit-identical, because evaluation is a
  /// pure function of the genes. Each entry stores a full gene vector, so
  /// the default (many generations of a paper-sized population) stays in
  /// the tens of MB even on the largest Table I topology.
  int eval_cache_capacity = 4096;
};

class HwAwareProblem final : public nsga2::Problem {
 public:
  /// `train` is read only here: it is laid out once as SamplePlanes that
  /// every evaluation reads. `baseline` (optional) provides both the doped
  /// seeds and the accuracy reference for the loss constraint; without it
  /// the constraint is disabled and seeding is empty.
  HwAwareProblem(ChromosomeCodec codec, const datasets::QuantizedDataset& train,
                 std::optional<mlp::QuantMlp> baseline, ProblemConfig cfg);

  [[nodiscard]] int n_genes() const override { return codec_.n_genes(); }
  [[nodiscard]] nsga2::GeneBounds bounds(int gene) const override {
    return codec_.bounds(gene);
  }
  /// Reference path: compiles the genome and evaluates through a private
  /// workspace. Prefer the workspace overload on hot loops.
  [[nodiscard]] Evaluation evaluate(std::span<const int> genes) const override;
  /// Hot path: memo-cache lookup, else decode -> CompiledNet -> batched
  /// allocation-free inference over the training planes through the
  /// worker's EvalWorkspace.
  [[nodiscard]] Evaluation evaluate(std::span<const int> genes,
                                    Workspace* ws) const override;
  [[nodiscard]] std::unique_ptr<Workspace> make_workspace() const override;
  [[nodiscard]] std::vector<std::vector<int>> seed_individuals(
      int max) const override;

  /// Domain-aware mutation (the paper's "random alterations to neuron
  /// weights" specialized per gene kind): masks flip single bits (fine-
  /// grained pruning steps), signs flip, exponents creep by +/-1, biases
  /// creep geometrically — occasionally falling back to a uniform reset
  /// for global exploration.
  [[nodiscard]] std::optional<int> mutate_gene(
      int gene, int current, std::mt19937_64& rng) const override;

  [[nodiscard]] const ChromosomeCodec& codec() const { return codec_; }
  [[nodiscard]] double baseline_accuracy() const { return baseline_accuracy_; }
  /// Memo-cache hit/miss counters accumulated over this problem's lifetime.
  [[nodiscard]] EvalCacheStats cache_stats() const { return cache_.stats(); }

 private:
  ChromosomeCodec codec_;
  SamplePlanes train_;  ///< shared read-only by every worker
  std::optional<mlp::QuantMlp> baseline_;
  ProblemConfig cfg_;
  double baseline_accuracy_ = 0.0;
  mutable EvalCache cache_;
};

}  // namespace pmlp::core
