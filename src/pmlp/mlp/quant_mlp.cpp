#include "pmlp/mlp/quant_mlp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "pmlp/bitops/bitops.hpp"
#include "pmlp/bitops/fixed_point.hpp"

namespace pmlp::mlp {

QuantMlp::QuantMlp(Topology topology, std::vector<QuantLayer> layers,
                   int weight_bits, int activation_bits)
    : topology_(std::move(topology)),
      layers_(std::move(layers)),
      weight_bits_(weight_bits),
      activation_bits_(activation_bits) {
  if (layers_.size() != static_cast<std::size_t>(topology_.n_layers())) {
    throw std::invalid_argument("QuantMlp: layer count mismatch");
  }
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const auto& layer = layers_[l];
    if (layer.n_in != topology_.layers[l] ||
        layer.n_out != topology_.layers[l + 1] ||
        layer.weights.size() !=
            static_cast<std::size_t>(layer.n_in) * layer.n_out ||
        layer.biases.size() != static_cast<std::size_t>(layer.n_out)) {
      throw std::invalid_argument("QuantMlp: layer shape mismatch");
    }
  }
}

QuantMlp QuantMlp::from_float(const FloatMlp& net, int weight_bits,
                              int input_bits, int activation_bits) {
  QuantMlp q;
  q.topology_ = net.topology();
  q.weight_bits_ = weight_bits;
  q.activation_bits_ = activation_bits;

  // Real value represented by one unit of the incoming activation code.
  double x_scale = 1.0 / static_cast<double>((1u << input_bits) - 1u);
  int in_bits = input_bits;

  for (std::size_t l = 0; l < net.layers().size(); ++l) {
    const DenseLayer& fl = net.layers()[l];
    const bool is_last = l + 1 == net.layers().size();

    const auto wq = bitops::SignedQuantizer::fit(fl.weights, weight_bits);
    QuantLayer ql;
    ql.n_in = fl.n_in;
    ql.n_out = fl.n_out;
    ql.input_bits = in_bits;
    ql.weights.reserve(fl.weights.size());
    for (double w : fl.weights) ql.weights.push_back(wq.quantize(w));

    // Accumulator scale: one accumulator unit == wq.scale * x_scale reals.
    const double acc_scale = wq.scale * x_scale;
    ql.biases.reserve(fl.biases.size());
    for (double b : fl.biases) {
      ql.biases.push_back(static_cast<std::int64_t>(std::llround(b / acc_scale)));
    }

    if (!is_last) {
      // QReLU shift: map the largest reachable positive accumulator into
      // `activation_bits` bits (static worst-case range analysis).
      const std::int64_t x_max = (std::int64_t{1} << in_bits) - 1;
      std::int64_t acc_max = 0;
      for (int o = 0; o < ql.n_out; ++o) {
        std::int64_t pos = std::max<std::int64_t>(ql.biases[static_cast<std::size_t>(o)], 0);
        for (int i = 0; i < ql.n_in; ++i) {
          const std::int64_t w = ql.weight(o, i);
          if (w > 0) pos += w * x_max;
        }
        acc_max = std::max(acc_max, pos);
      }
      const int acc_w = bitops::bit_width_u(static_cast<std::uint64_t>(acc_max));
      ql.qrelu_shift = std::max(0, acc_w - activation_bits);
      // Next layer sees activation codes worth acc_scale * 2^shift reals.
      x_scale = acc_scale * std::exp2(ql.qrelu_shift);
      in_bits = activation_bits;
    }
    q.layers_.push_back(std::move(ql));
  }
  return q;
}

std::vector<std::int64_t> QuantMlp::forward(
    std::span<const std::uint8_t> x) const {
  QuantScratch scratch;
  const auto out = forward(x, scratch);
  return {out.begin(), out.end()};
}

std::span<const std::int64_t> QuantMlp::forward(std::span<const std::uint8_t> x,
                                                QuantScratch& scratch) const {
  // Size the two ping-pong buffers to the widest activation vector once;
  // after that the whole pass is allocation-free.
  std::size_t width = x.size();
  for (const auto& layer : layers_) {
    width = std::max(width, static_cast<std::size_t>(layer.n_out));
  }
  if (scratch.a.size() < width) {
    scratch.a.resize(width);
    scratch.b.resize(width);
  }
  std::int64_t* act = scratch.a.data();
  std::int64_t* next = scratch.b.data();
  for (std::size_t i = 0; i < x.size(); ++i) act[i] = x[i];
  const std::int64_t act_max =
      (std::int64_t{1} << activation_bits_) - 1;

  std::size_t n_out = x.size();
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const QuantLayer& layer = layers_[l];
    const bool is_last = l + 1 == layers_.size();
    for (int o = 0; o < layer.n_out; ++o) {
      // Hoisted row pointer: the weight(o, i) index arithmetic is loop-
      // invariant in i.
      const std::int32_t* w_row =
          layer.weights.data() + static_cast<std::size_t>(o) * layer.n_in;
      std::int64_t acc = layer.biases[static_cast<std::size_t>(o)];
      for (int i = 0; i < layer.n_in; ++i) {
        acc += static_cast<std::int64_t>(w_row[i]) * act[i];
      }
      if (!is_last) {
        // QReLU: clamp-below at 0, shift, clamp-above at 2^bits - 1.
        acc = acc <= 0 ? 0 : std::min(acc >> layer.qrelu_shift, act_max);
      }
      next[o] = acc;
    }
    std::swap(act, next);
    n_out = static_cast<std::size_t>(layer.n_out);
  }
  return {act, n_out};
}

int QuantMlp::predict(std::span<const std::uint8_t> x) const {
  QuantScratch scratch;
  return predict(x, scratch);
}

int QuantMlp::predict(std::span<const std::uint8_t> x,
                      QuantScratch& scratch) const {
  const auto logits = forward(x, scratch);
  return static_cast<int>(std::distance(
      logits.begin(), std::max_element(logits.begin(), logits.end())));
}

double accuracy(const QuantMlp& net, const datasets::QuantizedDataset& d) {
  if (d.size() == 0) return 0.0;
  QuantScratch scratch;  // shared across the whole pass: no per-sample allocs
  std::size_t correct = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (net.predict(d.row(i), scratch) == d.labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(d.size());
}

}  // namespace pmlp::mlp
