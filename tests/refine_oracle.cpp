#include "refine_oracle.hpp"

#include <algorithm>
#include <bit>

#include "pmlp/bitops/bitops.hpp"

namespace pmlp::oracles {

core::RefineReport refine_greedy_naive(core::ApproxMlp& net,
                                       const datasets::QuantizedDataset& train,
                                       const core::RefineConfig& cfg) {
  core::RefineReport report;
  report.fa_before = net.fa_area();
  report.accuracy_before = core::accuracy(net, train);

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
          core::ApproxConn& c = layer.conn(o, i);
          std::uint32_t remaining = c.mask & width_mask;
          while (remaining != 0) {
            const int bit = std::countr_zero(remaining);
            remaining &= remaining - 1;
            const std::uint32_t saved = c.mask;
            c.mask = static_cast<std::uint32_t>(
                bitops::set_bit(c.mask, bit, false));
            net.update_qrelu_shifts();
            report.trials += 1;
            const double acc = core::accuracy(net, train);
            if (acc + 1e-12 >= cfg.accuracy_floor &&
                acc + 1e-12 >= current_acc - 0.002) {
              current_acc = std::max(current_acc, acc);
              report.bits_cleared += 1;
              changed = true;
            } else {
              c.mask = saved;  // revert
            }
          }
        }
        if (cfg.refine_biases) {
          auto& bias = layer.biases[static_cast<std::size_t>(o)];
          const std::int64_t candidate = core::bias_candidate(net, l, o);
          if (candidate != bias) {
            const std::int64_t saved = bias;
            bias = candidate;
            net.update_qrelu_shifts();
            report.trials += 1;
            const double acc = core::accuracy(net, train);
            if (acc + 1e-12 >= cfg.accuracy_floor &&
                acc + 1e-12 >= current_acc - 0.002) {
              current_acc = std::max(current_acc, acc);
              report.biases_simplified += 1;
              changed = true;
            } else {
              bias = saved;
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
  report.accuracy_after = core::accuracy(net, train);
  return report;
}

}  // namespace pmlp::oracles
