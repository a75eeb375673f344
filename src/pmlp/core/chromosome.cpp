#include "pmlp/core/chromosome.hpp"

#include <algorithm>
#include <stdexcept>

#include "pmlp/bitops/bitops.hpp"

namespace pmlp::core {

ChromosomeCodec::ChromosomeCodec(const mlp::Topology& topology,
                                 const BitConfig& bits)
    : topology_(topology), bits_(bits) {
  // Gene order (Fig. 3): for each layer, for each neuron, for each input:
  // [mask, sign, exponent]; then the neuron's bias.
  const ApproxMlp shape(topology, bits);
  for (const auto& layer : shape.layers()) {
    // Genes are ints: a mask gene must hold every mask bit.
    if (layer.input_bits > 31) {
      throw std::invalid_argument(
          "ChromosomeCodec: layer input width exceeds 31 bits");
    }
    const int mask_hi =
        static_cast<int>(bitops::low_mask(layer.input_bits));
    for (int o = 0; o < layer.n_out; ++o) {
      for (int i = 0; i < layer.n_in; ++i) {
        (void)i;
        bounds_.push_back({0, mask_hi});                    // m
        kinds_.push_back(GeneKind::kMask);
        bounds_.push_back({0, 1});                          // s (0 -> -1)
        kinds_.push_back(GeneKind::kSign);
        bounds_.push_back({0, bits.max_exponent()});        // k
        kinds_.push_back(GeneKind::kExponent);
      }
      bounds_.push_back({static_cast<int>(bits.bias_min()),
                         static_cast<int>(bits.bias_max())});  // b
      kinds_.push_back(GeneKind::kBias);
    }
  }
  n_genes_ = static_cast<int>(bounds_.size());
}

std::vector<int> ChromosomeCodec::encode(const ApproxMlp& net) const {
  std::vector<int> genes;
  genes.reserve(static_cast<std::size_t>(n_genes_));
  for (const auto& layer : net.layers()) {
    for (int o = 0; o < layer.n_out; ++o) {
      for (int i = 0; i < layer.n_in; ++i) {
        const ApproxConn& c = layer.conn(o, i);
        genes.push_back(static_cast<int>(c.mask));
        genes.push_back(c.sign < 0 ? 0 : 1);
        genes.push_back(c.exponent);
      }
      genes.push_back(
          static_cast<int>(layer.biases[static_cast<std::size_t>(o)]));
    }
  }
  if (static_cast<int>(genes.size()) != n_genes_) {
    throw std::logic_error("ChromosomeCodec::encode: size mismatch");
  }
  return genes;
}

ApproxMlp ChromosomeCodec::decode(std::span<const int> genes) const {
  if (static_cast<int>(genes.size()) != n_genes_) {
    throw std::invalid_argument("ChromosomeCodec::decode: size mismatch");
  }
  ApproxMlp net(topology_, bits_);
  std::size_t g = 0;
  for (auto& layer : net.layers()) {
    for (int o = 0; o < layer.n_out; ++o) {
      for (int i = 0; i < layer.n_in; ++i) {
        ApproxConn& c = layer.conn(o, i);
        const auto b_mask = bounds_[g];
        c.mask = static_cast<std::uint32_t>(
            std::clamp(genes[g], b_mask.lo, b_mask.hi));
        ++g;
        c.sign = std::clamp(genes[g], 0, 1) == 0 ? -1 : +1;
        ++g;
        const auto b_k = bounds_[g];
        c.exponent = std::clamp(genes[g], b_k.lo, b_k.hi);
        ++g;
      }
      const auto b_b = bounds_[g];
      layer.biases[static_cast<std::size_t>(o)] =
          std::clamp(genes[g], b_b.lo, b_b.hi);
      ++g;
    }
  }
  net.update_qrelu_shifts();
  return net;
}

}  // namespace pmlp::core
