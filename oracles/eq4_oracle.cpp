#include "eq4_oracle.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "pmlp/bitops/bitops.hpp"

namespace pmlp::oracles {

int argmax_first(std::span<const std::int64_t> logits) {
  int best = 0;
  for (int k = 1; k < static_cast<int>(logits.size()); ++k) {
    if (logits[static_cast<std::size_t>(k)] >
        logits[static_cast<std::size_t>(best)]) {
      best = k;
    }
  }
  return best;
}

std::vector<std::int64_t> forward_naive(const core::ApproxMlp& net,
                                        std::span<const std::uint8_t> x) {
  if (x.size() != static_cast<std::size_t>(net.topology().n_inputs())) {
    throw std::invalid_argument("forward_naive: bad input size");
  }
  const std::int64_t act_max = (std::int64_t{1} << net.bits().act_bits) - 1;
  std::vector<std::int64_t> act(x.begin(), x.end());
  for (const auto& layer : net.layers()) {
    const auto in_mask =
        static_cast<std::uint32_t>(bitops::low_mask(layer.input_bits));
    std::vector<std::int64_t> next(static_cast<std::size_t>(layer.n_out));
    for (int o = 0; o < layer.n_out; ++o) {
      std::int64_t a = layer.biases[static_cast<std::size_t>(o)];
      for (int i = 0; i < layer.n_in; ++i) {
        const core::ApproxConn& c = layer.conn(o, i);
        const auto xi =
            static_cast<std::uint32_t>(act[static_cast<std::size_t>(i)]);
        const std::int64_t term =
            static_cast<std::int64_t>(xi & c.mask & in_mask) << c.exponent;
        a += c.sign < 0 ? -term : term;
      }
      if (layer.qrelu) {
        a = a <= 0 ? 0 : std::min(a >> layer.qrelu_shift, act_max);
      }
      next[static_cast<std::size_t>(o)] = a;
    }
    act = std::move(next);
  }
  return act;
}

int predict_naive(const core::ApproxMlp& net,
                  std::span<const std::uint8_t> x) {
  return argmax_first(forward_naive(net, x));
}

double accuracy_naive(const core::ApproxMlp& net,
                      const datasets::QuantizedDataset& d) {
  if (d.size() == 0) return 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (predict_naive(net, d.row(i)) == d.labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(d.size());
}

}  // namespace pmlp::oracles
