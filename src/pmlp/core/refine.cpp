#include "pmlp/core/refine.hpp"

#include <algorithm>

#include "pmlp/bitops/bitops.hpp"
#include "pmlp/core/refine_engine.hpp"
#include "pmlp/core/thread_pool.hpp"

namespace pmlp::core {

namespace {

/// Round a bias to the nearest value with fewer set bits (magnitude-wise),
/// e.g. 0b0110111 -> 0b0111000. Returns the candidate (may equal input).
std::int64_t simplify_bias(std::int64_t b) {
  if (b == 0) return 0;
  const bool neg = b < 0;
  const auto mag = static_cast<std::uint64_t>(neg ? -b : b);
  if (bitops::popcount(mag) <= 2) return b;
  // Keep the top two set bits, round at the second.
  const int top = bitops::msb_index(mag);
  std::uint64_t kept = std::uint64_t{1} << top;
  std::uint64_t rest = mag ^ kept;
  if (rest != 0) {
    const int second = bitops::msb_index(rest);
    kept |= std::uint64_t{1} << second;
    rest ^= std::uint64_t{1} << second;
    if (second > 0 && rest >= (std::uint64_t{1} << (second - 1))) {
      kept += std::uint64_t{1} << second;  // round up at the kept LSB
    }
  }
  const auto out = static_cast<std::int64_t>(kept);
  return neg ? -out : out;
}

}  // namespace

std::int64_t bias_candidate(const ApproxMlp& net, int l, int o) {
  const std::int64_t bias = net.layers()[static_cast<std::size_t>(l)]
                                .biases[static_cast<std::size_t>(o)];
  const std::int64_t candidate = simplify_bias(bias);
  if (candidate < net.bits().bias_min() || candidate > net.bits().bias_max()) {
    return bias;
  }
  return candidate;
}

RefineReport refine_greedy(ApproxMlp& net, const SamplePlanes& train,
                           const RefineConfig& cfg) {
  RefineReport report;
  report.fa_before = net.fa_area();
  RefineEngine engine(net, train);
  report.accuracy_before = engine.accuracy_before();

  double current_acc = report.accuracy_before;
  const int n_layers = static_cast<int>(net.layers().size());
  for (int pass = 0; pass < cfg.max_passes; ++pass) {
    bool changed = false;
    for (int l = 0; l < n_layers; ++l) {
      auto& layer = net.layers()[static_cast<std::size_t>(l)];
      const auto width_mask =
          static_cast<std::uint32_t>(bitops::low_mask(layer.input_bits));
      for (int o = 0; o < layer.n_out; ++o) {
        for (int i = 0; i < layer.n_in; ++i) {
          std::uint32_t remaining = layer.conn(o, i).mask & width_mask;
          while (remaining != 0) {
            // Clear the least significant retained bit first: it carries
            // the least signal and sits in the cheapest column, so if any
            // bit can go, this one is the most likely.
            const int bit = std::countr_zero(remaining);
            remaining &= remaining - 1;
            const auto acc = engine.try_clear_mask_bit(
                l, o, i, bit,
                std::max(cfg.accuracy_floor, current_acc - 0.002));
            if (acc) {
              current_acc = std::max(current_acc, *acc);
              report.bits_cleared += 1;
              changed = true;
            }
          }
        }
        if (cfg.refine_biases) {
          const std::int64_t bias =
              layer.biases[static_cast<std::size_t>(o)];
          const std::int64_t candidate = bias_candidate(net, l, o);
          if (candidate != bias) {
            const auto acc = engine.try_set_bias(
                l, o, candidate,
                std::max(cfg.accuracy_floor, current_acc - 0.002));
            if (acc) {
              current_acc = std::max(current_acc, *acc);
              report.biases_simplified += 1;
              changed = true;
            }
          }
        }
      }
    }
    report.passes = pass + 1;
    if (!changed) break;
  }
  net.update_qrelu_shifts();
  report.fa_after = net.fa_area();
  report.accuracy_after = engine.accuracy();
  report.trials = engine.stats().trials;
  report.early_aborts = engine.stats().early_aborts;
  report.shift_trials = engine.stats().shift_trials;
  return report;
}

RefineReport refine_greedy(ApproxMlp& net,
                           const datasets::QuantizedDataset& train,
                           const RefineConfig& cfg) {
  return refine_greedy(net, SamplePlanes(train), cfg);
}

RefineFrontReport refine_front(std::span<EstimatedPoint> front,
                               const datasets::QuantizedDataset& train,
                               double baseline_train_accuracy,
                               double max_point_loss, double max_total_loss,
                               ThreadPool* pool) {
  // Each point refines independently (own engine, own output slot), so the
  // fan-out is bit-identical to the serial loop for any pool size. The
  // engines only read the one shared layout of the training set.
  const SamplePlanes planes(train);
  const auto refine_one = [&](EstimatedPoint& point) {
    RefineConfig cfg;
    cfg.accuracy_floor = std::max(point.train_accuracy - max_point_loss,
                                  baseline_train_accuracy - max_total_loss);
    const RefineReport report = refine_greedy(point.model, planes, cfg);
    // accuracy_after IS accuracy(point.model, train) — no extra full pass.
    point.train_accuracy = report.accuracy_after;
    point.fa_area = report.fa_after;
    return report;
  };

  std::vector<RefineReport> reports(front.size());
  parallel_for(pool, front.size(),
               [&](std::size_t, std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i) {
                   reports[i] = refine_one(front[i]);
                 }
               });

  RefineFrontReport total;
  total.points = static_cast<long>(front.size());
  for (const auto& r : reports) {
    total.trials += r.trials;
    total.early_aborts += r.early_aborts;
    total.bits_cleared += r.bits_cleared;
    total.biases_simplified += r.biases_simplified;
  }
  return total;
}

}  // namespace pmlp::core
