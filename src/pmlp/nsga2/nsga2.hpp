// NSGA-II (Deb et al., 2002) over integer genomes, as the paper's training
// engine (§IV-A): non-dominated sorting, crowding distance, binary
// tournament, uniform/k-point crossover and reset/creep mutation, with
// constraint domination for the paper's 10% accuracy-loss bound. Variation
// draws from core::Rng (pmlp/core/rng.hpp), whose stream and text equal
// std::mt19937_64's, one raw draw per Bernoulli trial.
//
// Every problem has exactly two minimized objectives (the library's are
// accuracy loss and FA area), so ranking is a sort-and-sweep front peeling
// (Kung et al., 1975; Jensen, 2003) in O(N log N) instead of Deb's O(M·N²)
// pairwise loop. Feasible individuals (violation <= 0) are sorted by
// (f0, f1) and swept in that order, so every dominator of a point p comes
// before it: an earlier q dominates p exactly when q.f1 <= p.f1 and q is
// not p's exact duplicate. The sweep keeps the last point placed in each
// front; front k dominates p iff its last point does, the fronts that
// dominate p form a prefix, and p joins the first one that does not, found
// by binary search. Exact duplicates therefore share a front, as in Deb's
// loop. Infeasible individuals rank after every feasible front, one front
// per distinct violation value, smallest first — exactly Deb's constraint
// domination. Ranks and the front count equal Deb's loop, which survives
// as the test oracle pmlp::oracles::non_dominated_sort_naive. NaN
// objectives or violations break the strict weak ordering the sort needs,
// so they are rejected.
//
// Ranks are exact, but the survivor order is not fixed by the ranks alone:
// crowding sorts each front per objective with the unstable std::sort, and
// survivor selection sorts by (rank, crowding) with it too. Both keep their
// exact std::sort calls and inputs, because the resulting order is part of
// GenerationState: a different tie order would change which individual a
// tournament picks, and every front after it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "pmlp/core/rng.hpp"

namespace pmlp::core {
class ThreadPool;  // pmlp/core/thread_pool.hpp — only nsga2.cpp needs it
}

namespace pmlp::nsga2 {

/// Inclusive integer bounds of one gene.
struct GeneBounds {
  int lo = 0;
  int hi = 0;
};

/// A candidate solution with its evaluation and NSGA-II bookkeeping.
struct Individual {
  std::vector<int> genes;
  std::vector<double> objectives;       ///< exactly 2, minimized, not NaN
  double constraint_violation = 0.0;    ///< 0 = feasible, >0 = infeasible
  int rank = -1;                        ///< 0 = non-dominated front
  double crowding = 0.0;
};

/// Problem interface. evaluate() must be thread-safe (const) and return
/// exactly two minimized objectives and a violation, none of them NaN;
/// ranking throws std::invalid_argument otherwise.
class Problem {
 public:
  virtual ~Problem() = default;

  [[nodiscard]] virtual int n_genes() const = 0;
  [[nodiscard]] virtual GeneBounds bounds(int gene) const = 0;

  struct Evaluation {
    std::vector<double> objectives;
    double constraint_violation = 0.0;
  };
  [[nodiscard]] virtual Evaluation evaluate(std::span<const int> genes) const = 0;

  /// Opaque per-worker scratch state for evaluate(). PopulationEvaluator
  /// creates one per worker and keeps it alive across generations, so a
  /// derived workspace can hold reusable buffers (see core::EvalWorkspace).
  class Workspace {
   public:
    virtual ~Workspace() = default;
  };
  /// Create a fresh per-worker workspace; nullptr (the default) means the
  /// problem keeps no per-worker state.
  [[nodiscard]] virtual std::unique_ptr<Workspace> make_workspace() const {
    return nullptr;
  }
  /// Workspace-aware evaluation hot path. `ws` is the calling worker's own
  /// object from make_workspace() (nullptr for workspace-free problems or
  /// direct calls). Must return exactly what evaluate(genes) returns; the
  /// default forwards to it.
  [[nodiscard]] virtual Evaluation evaluate(std::span<const int> genes,
                                            Workspace* /*ws*/) const {
    return evaluate(genes);
  }

  /// Optional seed individuals for the initial population (e.g. the paper's
  /// ~10% doping with nearly non-approximate solutions). At most `max` are
  /// used; out-of-bounds genes are clamped.
  [[nodiscard]] virtual std::vector<std::vector<int>> seed_individuals(
      int /*max*/) const {
    return {};
  }

  /// Optional domain-aware mutation of a single gene. Return the new value,
  /// or std::nullopt to let the engine apply its generic reset/creep
  /// mutation. Must be thread-compatible (called under the engine's RNG).
  [[nodiscard]] virtual std::optional<int> mutate_gene(
      int /*gene*/, int /*current*/, core::Rng& /*rng*/) const {
    return std::nullopt;
  }
};

enum class CrossoverKind { kUniform, kOnePoint, kTwoPoint };

/// Exact evolution state at a generation boundary: everything optimize()
/// needs to continue bit-identically from generation `next_generation`.
/// The population carries the ranks/crowding assigned by the survivor
/// selection over the MERGED parent+offspring set (they drive the next
/// tournament and are NOT recomputable from the survivors alone), in the
/// exact survivor order (the selection sort is unstable, so order is state).
struct GenerationState {
  int next_generation = 0;  ///< first generation still to run
  long evaluations = 0;     ///< evaluations performed so far
  /// The variation RNG as std::mt19937_64 text. core::Rng writes and reads
  /// the same words and position, so a state written by a build whose
  /// engine was std::mt19937_64 resumes on the same stream.
  std::string rng;
  std::vector<Individual> population;
};

struct Config {
  int population = 100;
  int generations = 100;
  /// Probability a selected pair undergoes crossover (paper: 0.7).
  double crossover_prob = 0.7;
  /// Probability an offspring undergoes mutation (paper: 0.2).
  double mutation_prob = 0.2;
  /// Per-gene mutation rate once an offspring mutates; 0 selects 1/n_genes.
  double per_gene_rate = 0.0;
  /// Fraction of mutations that creep (+/- small step) instead of resetting
  /// the gene uniformly — creep helps fine-tuning discrete exponents/biases.
  double creep_fraction = 0.5;
  int creep_step = 1;  ///< largest creep move, >= 1
  CrossoverKind crossover = CrossoverKind::kUniform;
  std::uint64_t seed = 1;
  /// Called after each generation with the sorted parent population.
  std::function<void(int generation, const std::vector<Individual>&)>
      on_generation;
  /// Generation-level checkpointing: every `checkpoint_every` generations
  /// (0 = off) on_checkpoint receives the exact GenerationState; persisting
  /// it lets a killed run resume bit-identically from the last block via
  /// `resume`. Never invoked after the final generation (the caller
  /// persists the finished result itself). Both knobs are bit-neutral:
  /// they never perturb the RNG stream or the population.
  int checkpoint_every = 0;
  std::function<void(const GenerationState&)> on_checkpoint;
  /// When set (and its population is non-empty), evolution continues from
  /// this state instead of a fresh population: the initial evaluation and
  /// sort are skipped and the loop starts at resume->next_generation. The
  /// result is bit-identical to the uninterrupted run that produced the
  /// state. Throws std::invalid_argument on a state whose population size
  /// does not match cfg.population, whose individuals do not have exactly
  /// 2 objectives or whose RNG blob does not parse.
  std::shared_ptr<const GenerationState> resume;
};

struct Result {
  std::vector<Individual> population;    ///< final parents, sorted by rank
  std::vector<Individual> pareto_front;  ///< feasible rank-0 individuals
  long evaluations = 0;
  double wall_seconds = 0.0;
};

/// Batched population evaluator: scores individuals against one Problem on
/// a borrowed worker pool (null = serial on the caller). Each result is
/// written into its individual's own slot under a static index partition,
/// so the outcome is bit-identical for any pool size. Every pool chunk owns
/// one Problem::Workspace for the evaluator's lifetime, so workspace-aware
/// problems evaluate allocation-free. The pool must outlive the evaluator.
class PopulationEvaluator {
 public:
  PopulationEvaluator(const Problem& problem, core::ThreadPool* pool);
  ~PopulationEvaluator();

  PopulationEvaluator(const PopulationEvaluator&) = delete;
  PopulationEvaluator& operator=(const PopulationEvaluator&) = delete;

  /// Fill objectives/constraint_violation for every individual; returns the
  /// number of evaluations performed (pop.size()).
  long evaluate(std::span<Individual> pop);

 private:
  const Problem& problem_;
  core::ThreadPool* pool_;  ///< borrowed; null when serial
  /// One workspace per worker; entries may be null (workspace-free problem).
  std::vector<std::unique_ptr<Problem::Workspace>> workspaces_;
};

/// Run NSGA-II, evaluating fitness on the borrowed `pool` (null = serial).
/// Deterministic in cfg.seed for any pool: only evaluate() runs off the
/// calling thread; selection and mutation RNG stay serial. Throws
/// std::invalid_argument on an odd or < 4 population, a gene-less problem,
/// a probability or rate outside [0, 1], or creep_step < 1.
[[nodiscard]] Result optimize(const Problem& problem, const Config& cfg,
                              core::ThreadPool* pool = nullptr);

// --- Internals exposed for unit testing -----------------------------------

/// One generation's variation as optimize() runs it: two binary
/// tournaments by (rank, crowding) per pair, then crossover and mutation.
/// Each Bernoulli probability of the config becomes a core::BernoulliTrial
/// once, here, and each trial takes one raw draw, so the offspring and the
/// RNG stream equal those of std::bernoulli_distribution on
/// std::mt19937_64 (the oracle pmlp::oracles::offspring_naive) draw for
/// draw. Uniform crossover is a branchless masked swap. The problem must
/// outlive the object; the fields it reads of `cfg` are copied. Throws
/// std::invalid_argument on what optimize() rejects.
class Variation {
 public:
  Variation(const Problem& problem, const Config& cfg);

  /// cfg.population unevaluated offspring of the ranked, crowded `parents`.
  [[nodiscard]] std::vector<Individual> offspring(
      const std::vector<Individual>& parents, core::Rng& rng) const;

 private:
  void crossover(std::vector<int>& c1, std::vector<int>& c2,
                 core::Rng& rng) const;
  void mutate(std::vector<int>& genes, core::Rng& rng) const;

  const Problem& problem_;
  int population_;
  CrossoverKind kind_;
  int creep_step_;
  core::BernoulliTrial do_crossover_;
  core::BernoulliTrial do_mutation_;
  core::BernoulliTrial coin_;   ///< uniform crossover's p = 0.5 swap
  core::BernoulliTrial hit_;    ///< per-gene mutation rate
  core::BernoulliTrial creep_;  ///< creep instead of reset
};

/// Constraint domination (Deb): feasible beats infeasible; two infeasible
/// compare by violation; two feasible by Pareto dominance on objectives.
[[nodiscard]] bool dominates(const Individual& a, const Individual& b);

/// Assign ranks (fronts) in place by the sort-and-sweep above, in
/// O(N log N); returns the number of fronts. Throws std::invalid_argument
/// on an individual without exactly 2 objectives or with a NaN objective
/// or violation.
int fast_non_dominated_sort(std::vector<Individual>& pop);

/// Assign crowding distances within each rank, in place: one counting pass
/// buckets the indices by rank, then each front is sorted per objective.
void assign_crowding_distances(std::vector<Individual>& pop);

/// Deduplicated feasible rank-0 subset (by objective vector).
[[nodiscard]] std::vector<Individual> extract_pareto_front(
    std::vector<Individual> pop);

}  // namespace pmlp::nsga2
