#include "pmlp/core/approx_mlp.hpp"

#include <algorithm>
#include <stdexcept>

#include "pmlp/adder/fa_model.hpp"
#include "pmlp/bitops/bitops.hpp"
#include "pmlp/bitops/fixed_point.hpp"

namespace pmlp::core {

ApproxMlp::ApproxMlp(const mlp::Topology& topology, const BitConfig& bits)
    : topology_(topology), bits_(bits) {
  if (topology.layers.size() < 2) {
    throw std::invalid_argument("ApproxMlp: topology needs >=2 layers");
  }
  for (int l = 0; l < topology.n_layers(); ++l) {
    ApproxLayer layer;
    layer.n_in = topology.layers[static_cast<std::size_t>(l)];
    layer.n_out = topology.layers[static_cast<std::size_t>(l) + 1];
    layer.input_bits = l == 0 ? bits.input_bits : bits.act_bits;
    layer.qrelu = l + 1 < topology.n_layers();
    layer.conns.assign(
        static_cast<std::size_t>(layer.n_in) * layer.n_out, ApproxConn{});
    layer.biases.assign(static_cast<std::size_t>(layer.n_out), 0);
    layers_.push_back(std::move(layer));
  }
}

int ApproxMlp::compute_qrelu_shift(int l) const {
  const ApproxLayer& layer = layers_[static_cast<std::size_t>(l)];
  if (!layer.qrelu) return 0;
  const std::uint32_t in_mask =
      static_cast<std::uint32_t>(bitops::low_mask(layer.input_bits));
  std::int64_t acc_max = 0;
  for (int o = 0; o < layer.n_out; ++o) {
    std::int64_t pos =
        std::max<std::int64_t>(layer.biases[static_cast<std::size_t>(o)], 0);
    for (int i = 0; i < layer.n_in; ++i) {
      const ApproxConn& c = layer.conn(o, i);
      if (c.sign < 0) continue;
      // Max of (m (.) x) << k is the (truncated) mask itself, shifted.
      pos += static_cast<std::int64_t>(c.mask & in_mask) << c.exponent;
    }
    acc_max = std::max(acc_max, pos);
  }
  const int acc_w = bitops::bit_width_u(static_cast<std::uint64_t>(acc_max));
  return std::max(0, acc_w - bits_.act_bits);
}

void ApproxMlp::update_qrelu_shifts() {
  for (int l = 0; l < static_cast<int>(layers_.size()); ++l) {
    layers_[static_cast<std::size_t>(l)].qrelu_shift = compute_qrelu_shift(l);
  }
}

long ApproxMlp::fa_area() const {
  long area = 0;
  adder::NeuronAdderSpec scratch;
  for (const auto& layer : layers_) {
    for (int o = 0; o < layer.n_out; ++o) {
      load_neuron_spec(layer, o, scratch);
      area += adder::estimate_adder(scratch).total_fa();
    }
  }
  return area;
}

long ApproxMlp::wire_count() const {
  long wires = 0;
  for (const auto& layer : layers_) {
    const std::uint32_t in_mask =
        static_cast<std::uint32_t>(bitops::low_mask(layer.input_bits));
    for (const auto& c : layer.conns) {
      wires += bitops::popcount(c.mask & in_mask);
    }
  }
  return wires;
}

netlist::BespokeMlpDesc ApproxMlp::to_bespoke_desc(
    const std::string& name) const {
  netlist::BespokeMlpDesc desc;
  desc.name = name;
  for (const auto& layer : layers_) {
    netlist::LayerDesc ld;
    ld.n_in = layer.n_in;
    ld.n_out = layer.n_out;
    ld.input_bits = layer.input_bits;
    ld.qrelu = layer.qrelu;
    ld.qrelu_shift = layer.qrelu_shift;
    ld.act_bits = bits_.act_bits;
    const std::uint32_t in_mask =
        static_cast<std::uint32_t>(bitops::low_mask(layer.input_bits));
    for (int o = 0; o < layer.n_out; ++o) {
      netlist::NeuronDesc nd;
      nd.bias = layer.biases[static_cast<std::size_t>(o)];
      for (int i = 0; i < layer.n_in; ++i) {
        const ApproxConn& c = layer.conn(o, i);
        if ((c.mask & in_mask) == 0) continue;  // fully pruned connection
        nd.conns.push_back(
            netlist::ConnDesc{i, c.mask & in_mask, c.exponent, c.sign});
      }
      ld.neurons.push_back(std::move(nd));
    }
    desc.layers.push_back(std::move(ld));
  }
  return desc;
}

ApproxMlp ApproxMlp::from_quant_baseline(const mlp::QuantMlp& baseline,
                                         const BitConfig& bits) {
  ApproxMlp net(baseline.topology(), bits);
  for (std::size_t l = 0; l < baseline.layers().size(); ++l) {
    const auto& ql = baseline.layers()[l];
    auto& al = net.layers_[l];
    const auto full_mask =
        static_cast<std::uint32_t>(bitops::low_mask(al.input_bits));
    for (int o = 0; o < ql.n_out; ++o) {
      for (int i = 0; i < ql.n_in; ++i) {
        const std::int32_t w = ql.weight(o, i);
        ApproxConn& c = al.conn(o, i);
        if (w == 0) {
          c = ApproxConn{0, +1, 0};  // zero weight == zero mask (paper §III-B)
          continue;
        }
        const auto p2 = bitops::nearest_pow2(w, bits.max_exponent());
        c.mask = full_mask;
        c.sign = p2.sign;
        c.exponent = p2.exponent;
      }
      al.biases[static_cast<std::size_t>(o)] =
          std::clamp<std::int64_t>(ql.biases[static_cast<std::size_t>(o)],
                                   bits.bias_min(), bits.bias_max());
    }
  }
  net.update_qrelu_shifts();
  return net;
}

}  // namespace pmlp::core
