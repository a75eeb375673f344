#include "pmlp/core/trainer.hpp"

#include <algorithm>
#include <chrono>

#include "pmlp/bitops/bitops.hpp"
#include "pmlp/core/simd.hpp"
#include "pmlp/core/thread_pool.hpp"

namespace pmlp::core {

namespace {

std::vector<EstimatedPoint> collect_front(
    const ChromosomeCodec& codec, const std::vector<nsga2::Individual>& front) {
  std::vector<EstimatedPoint> points;
  points.reserve(front.size());
  for (const auto& ind : front) {
    EstimatedPoint p;
    p.model = codec.decode(ind.genes);
    p.train_accuracy = 1.0 - ind.objectives[0];
    p.fa_area = static_cast<long>(ind.objectives[1]);
    points.push_back(std::move(p));
  }
  std::sort(points.begin(), points.end(),
            [](const EstimatedPoint& a, const EstimatedPoint& b) {
              return a.fa_area < b.fa_area;
            });
  return points;
}

void fill_perf_counters(TrainingResult& result, const EvalCacheStats& stats) {
  result.evals_per_second =
      result.wall_seconds > 0.0
          ? static_cast<double>(result.evaluations) / result.wall_seconds
          : 0.0;
  result.cache_hits = stats.hits;
  result.cache_hit_rate = stats.hit_rate();
  result.simd_isa = simd_isa_name(active_simd_isa());
  result.eval_block = CompiledNet::kBlockSamples;
}

}  // namespace

TrainingResult train_ga_axc(const mlp::Topology& topology,
                            const datasets::QuantizedDataset& train,
                            std::optional<mlp::QuantMlp> baseline,
                            const TrainerConfig& cfg, ThreadPool* pool) {
  ChromosomeCodec codec(topology, cfg.bits);
  HwAwareProblem problem(codec, train, std::move(baseline), cfg.problem);
  const nsga2::Result ga = nsga2::optimize(problem, cfg.ga, pool);

  TrainingResult result;
  result.estimated_pareto = collect_front(problem.codec(), ga.pareto_front);
  result.evaluations = ga.evaluations;
  result.wall_seconds = ga.wall_seconds;
  result.baseline_train_accuracy = problem.baseline_accuracy();
  fill_perf_counters(result, problem.cache_stats());
  return result;
}

TrainingResult train_ga_axc(const mlp::Topology& topology,
                            const datasets::QuantizedDataset& train,
                            std::optional<mlp::QuantMlp> baseline,
                            const TrainerConfig& cfg) {
  return train_ga_axc(topology, train, std::move(baseline), cfg,
                      make_pool(cfg.n_threads).get());
}

namespace {

/// Accuracy-only GA problem (Table III reference): the same chromosome but
/// with every mask gene pinned to all-ones and a constant area objective —
/// conventional GA training without approximation or hardware awareness.
/// Like HwAwareProblem it lays its training set out as SamplePlanes once.
class AccuracyOnlyProblem final : public nsga2::Problem {
 public:
  AccuracyOnlyProblem(ChromosomeCodec codec,
                      const datasets::QuantizedDataset& train,
                      int eval_cache_capacity)
      : codec_(std::move(codec)),
        train_(train),
        cache_(static_cast<std::size_t>(std::max(0, eval_cache_capacity))) {}

  [[nodiscard]] int n_genes() const override { return codec_.n_genes(); }

  [[nodiscard]] nsga2::GeneBounds bounds(int gene) const override {
    const auto b = codec_.bounds(gene);
    if (is_mask_gene(gene)) return {b.hi, b.hi};  // pinned: no pruning
    return b;
  }

  [[nodiscard]] std::unique_ptr<Workspace> make_workspace() const override {
    return std::make_unique<EvalWorkspace>();
  }

  [[nodiscard]] Evaluation evaluate(std::span<const int> genes) const override {
    return evaluate(genes, nullptr);
  }

  [[nodiscard]] Evaluation evaluate(std::span<const int> genes,
                                    Workspace* ws) const override {
    Evaluation ev;
    const std::uint64_t key = EvalCache::hash(genes);
    if (cache_.lookup(genes, key, ev)) return ev;
    std::vector<int> pinned(genes.begin(), genes.end());
    for (int g = 0; g < codec_.n_genes(); ++g) {
      if (is_mask_gene(g)) pinned[static_cast<std::size_t>(g)] = codec_.bounds(g).hi;
    }
    const CompiledNet compiled(codec_.decode(pinned));
    EvalWorkspace local;
    ev = {{1.0 - compiled.accuracy(train_, resolve_workspace(ws, local)), 0.0},
          0.0};
    cache_.insert(genes, key, ev);
    return ev;
  }

  [[nodiscard]] const ChromosomeCodec& codec() const { return codec_; }
  [[nodiscard]] EvalCacheStats cache_stats() const { return cache_.stats(); }

 private:
  /// Gene layout per neuron: n_in * (mask, sign, k) then bias. Mask genes
  /// are those at stride-3 offsets within the weight block.
  [[nodiscard]] bool is_mask_gene(int gene) const {
    int g = gene;
    const auto& topo = codec_.topology();
    for (int l = 0; l < topo.n_layers(); ++l) {
      const int n_in = topo.layers[static_cast<std::size_t>(l)];
      const int n_out = topo.layers[static_cast<std::size_t>(l) + 1];
      const int per_neuron = 3 * n_in + 1;
      const int layer_genes = per_neuron * n_out;
      if (g < layer_genes) {
        const int in_neuron = g % per_neuron;
        return in_neuron < 3 * n_in && in_neuron % 3 == 0;
      }
      g -= layer_genes;
    }
    return false;
  }

  ChromosomeCodec codec_;
  SamplePlanes train_;
  mutable EvalCache cache_;
};

}  // namespace

TrainingResult train_ga_accuracy_only(const mlp::Topology& topology,
                                      const datasets::QuantizedDataset& train,
                                      const TrainerConfig& cfg,
                                      ThreadPool* pool) {
  ChromosomeCodec codec(topology, cfg.bits);
  AccuracyOnlyProblem problem(std::move(codec), train,
                              cfg.problem.eval_cache_capacity);
  const nsga2::Result ga = nsga2::optimize(problem, cfg.ga, pool);

  TrainingResult result;
  result.estimated_pareto = collect_front(problem.codec(), ga.pareto_front);
  result.evaluations = ga.evaluations;
  result.wall_seconds = ga.wall_seconds;
  fill_perf_counters(result, problem.cache_stats());
  return result;
}

TrainingResult train_ga_accuracy_only(const mlp::Topology& topology,
                                      const datasets::QuantizedDataset& train,
                                      const TrainerConfig& cfg) {
  return train_ga_accuracy_only(topology, train, cfg,
                                make_pool(cfg.n_threads).get());
}

}  // namespace pmlp::core
