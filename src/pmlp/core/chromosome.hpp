// Chromosome encoding of an approximate MLP (paper Fig. 3): genes are
// grouped per weight (mask m, sign s, exponent k), then per neuron (with the
// bias b appended), then per layer. Every gene is an integer with bounds
// derived from the bit configuration, so the codec fully defines the GA
// search space.
#pragma once

#include <span>
#include <vector>

#include "pmlp/core/approx_mlp.hpp"
#include "pmlp/nsga2/nsga2.hpp"

namespace pmlp::core {

/// What a gene encodes (Fig. 3 layout).
enum class GeneKind { kMask, kSign, kExponent, kBias };

class ChromosomeCodec {
 public:
  /// Throws std::invalid_argument when a layer's input width (input_bits
  /// or act_bits) exceeds 31 bits: its mask would not fit an int gene.
  ChromosomeCodec(const mlp::Topology& topology, const BitConfig& bits);

  [[nodiscard]] int n_genes() const { return n_genes_; }
  [[nodiscard]] nsga2::GeneBounds bounds(int gene) const {
    return bounds_[static_cast<std::size_t>(gene)];
  }
  [[nodiscard]] GeneKind kind(int gene) const {
    return kinds_[static_cast<std::size_t>(gene)];
  }
  [[nodiscard]] const mlp::Topology& topology() const { return topology_; }
  [[nodiscard]] const BitConfig& bits() const { return bits_; }

  /// Model -> genes. Exact inverse of decode for in-bounds models.
  [[nodiscard]] std::vector<int> encode(const ApproxMlp& net) const;
  /// Genes -> model (with QReLU shifts recomputed). Out-of-bounds gene
  /// values are clamped, making any integer vector decodable.
  [[nodiscard]] ApproxMlp decode(std::span<const int> genes) const;

 private:
  mlp::Topology topology_;
  BitConfig bits_;
  int n_genes_ = 0;
  std::vector<nsga2::GeneBounds> bounds_;
  std::vector<GeneKind> kinds_;
};

}  // namespace pmlp::core
