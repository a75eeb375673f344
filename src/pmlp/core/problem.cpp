#include "pmlp/core/problem.hpp"

#include <algorithm>
#include <random>

#include "pmlp/bitops/bitops.hpp"

namespace pmlp::core {

HwAwareProblem::HwAwareProblem(ChromosomeCodec codec,
                               const datasets::QuantizedDataset& train,
                               std::optional<mlp::QuantMlp> baseline,
                               ProblemConfig cfg)
    : codec_(std::move(codec)),
      train_(train),
      baseline_(std::move(baseline)),
      cfg_(cfg),
      cache_(static_cast<std::size_t>(std::max(0, cfg.eval_cache_capacity))) {
  if (baseline_) {
    baseline_accuracy_ = mlp::accuracy(*baseline_, train);
  }
}

std::unique_ptr<nsga2::Problem::Workspace> HwAwareProblem::make_workspace()
    const {
  return std::make_unique<EvalWorkspace>();
}

nsga2::Problem::Evaluation HwAwareProblem::evaluate(
    std::span<const int> genes) const {
  return evaluate(genes, nullptr);
}

nsga2::Problem::Evaluation HwAwareProblem::evaluate(std::span<const int> genes,
                                                    Workspace* ws) const {
  Evaluation ev;
  if (cache_.lookup(genes, ev)) return ev;

  ApproxMlp net = codec_.decode(genes);
  if (cfg_.coarse_pruning) {
    // Structured pruning baseline: a connection is all-or-nothing.
    for (auto& layer : net.layers()) {
      const auto full =
          static_cast<std::uint32_t>(bitops::low_mask(layer.input_bits));
      for (auto& c : layer.conns) {
        if (c.mask != 0) c.mask = full;
      }
    }
    net.update_qrelu_shifts();
  }
  EvalWorkspace local;
  EvalWorkspace& workspace = resolve_workspace(ws, local);
  const CompiledNet compiled(net, workspace);
  const double acc = compiled.accuracy(train_, workspace);
  const auto area = static_cast<double>(compiled.fa_area());

  ev.objectives = {1.0 - acc, area};
  if (baseline_) {
    // Accuracy loss beyond the 10% (absolute points) training bound makes
    // the individual infeasible; constraint domination steers it back.
    const double floor_acc = baseline_accuracy_ - cfg_.max_accuracy_loss;
    ev.constraint_violation = std::max(0.0, floor_acc - acc);
  }
  cache_.insert(genes, ev);
  return ev;
}

std::optional<int> HwAwareProblem::mutate_gene(int gene, int current,
                                               std::mt19937_64& rng) const {
  if (!cfg_.domain_mutation) return std::nullopt;
  const auto b = codec_.bounds(gene);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  switch (codec_.kind(gene)) {
    case GeneKind::kMask: {
      const double r = u01(rng);
      if (r < 0.08) return 0;      // prune the whole connection
      if (r < 0.16) return b.hi;   // restore all bits
      // Flip one random bit: the fine-grained pruning step of §III-B.
      const int width = bitops::bit_width_u(static_cast<std::uint64_t>(b.hi));
      const int bit = static_cast<int>(rng() % static_cast<unsigned>(width));
      return current ^ (1 << bit);
    }
    case GeneKind::kSign:
      return 1 - current;
    case GeneKind::kExponent: {
      if (u01(rng) < 0.2) {
        std::uniform_int_distribution<int> reset(b.lo, b.hi);
        return reset(rng);
      }
      return current + ((rng() & 1u) ? 1 : -1);
    }
    case GeneKind::kBias: {
      if (u01(rng) < 0.1) {
        std::uniform_int_distribution<int> reset(b.lo, b.hi);
        return reset(rng);
      }
      // Geometric creep: mostly small nudges, occasionally large jumps.
      const int magnitude = 1 << (rng() % 6);  // 1..32
      return current + ((rng() & 1u) ? magnitude : -magnitude);
    }
  }
  return std::nullopt;
}

std::vector<std::vector<int>> HwAwareProblem::seed_individuals(int max) const {
  if (!baseline_ || cfg_.doping_fraction <= 0.0) return {};
  const int n_seeds = std::max(
      1, static_cast<int>(cfg_.doping_fraction * static_cast<double>(max)));

  const ApproxMlp doped =
      ApproxMlp::from_quant_baseline(*baseline_, codec_.bits());
  const std::vector<int> base_genes = codec_.encode(doped);

  // Magnitude-sorted connection weights for the pruned seed variants.
  std::vector<std::int64_t> magnitudes;
  for (const auto& ql : baseline_->layers()) {
    for (auto w : ql.weights) {
      magnitudes.push_back(w < 0 ? -static_cast<std::int64_t>(w) : w);
    }
  }
  std::sort(magnitudes.begin(), magnitudes.end());

  /// Doped variant with every connection whose |w| falls below the
  /// `drop_fraction` percentile fully masked, and `lsb_clear` low mask bits
  /// cleared on the survivors — a sparse but still near-exact seed.
  auto pruned_seed = [&](double drop_fraction, int lsb_clear) {
    const auto idx = static_cast<std::size_t>(
        drop_fraction * static_cast<double>(magnitudes.size() - 1));
    const std::int64_t threshold = magnitudes[idx];
    ApproxMlp net = doped;
    for (std::size_t l = 0; l < net.layers().size(); ++l) {
      auto& al = net.layers()[l];
      const auto& ql = baseline_->layers()[l];
      for (int o = 0; o < al.n_out; ++o) {
        for (int i = 0; i < al.n_in; ++i) {
          const std::int32_t w = ql.weight(o, i);
          const std::int64_t mag = w < 0 ? -static_cast<std::int64_t>(w) : w;
          auto& c = al.conn(o, i);
          if (mag <= threshold) {
            c.mask = 0;
          } else if (lsb_clear > 0) {
            c.mask &= ~static_cast<std::uint32_t>(
                bitops::low_mask(lsb_clear));
          }
        }
      }
    }
    net.update_qrelu_shifts();
    return codec_.encode(net);
  };

  std::mt19937_64 rng(cfg_.doping_seed);
  std::vector<std::vector<int>> seeds;
  seeds.reserve(static_cast<std::size_t>(n_seeds));
  seeds.push_back(base_genes);  // one pristine nearly-exact solution
  // A ladder of increasingly pruned near-exact seeds spreads the doped
  // block along the area axis instead of stacking clones at max area.
  const double fractions[] = {0.25, 0.5, 0.7, 0.85};
  int variant = 0;
  while (static_cast<int>(seeds.size()) < n_seeds) {
    if (variant < 8) {
      seeds.push_back(pruned_seed(fractions[variant % 4], variant / 4));
      ++variant;
      continue;
    }
    // Remaining seeds: jitter a few genes of the pristine solution.
    std::vector<int> genes = base_genes;
    const auto n_flips = std::max<std::size_t>(1, genes.size() / 50);
    std::uniform_int_distribution<std::size_t> pick(0, genes.size() - 1);
    for (std::size_t f = 0; f < n_flips; ++f) {
      const std::size_t g = pick(rng);
      const auto b = codec_.bounds(static_cast<int>(g));
      std::uniform_int_distribution<int> value(b.lo, b.hi);
      genes[g] = value(rng);
    }
    seeds.push_back(std::move(genes));
  }
  return seeds;
}

}  // namespace pmlp::core
