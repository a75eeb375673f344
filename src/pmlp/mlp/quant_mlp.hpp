// The exact bespoke printed-MLP baseline of Mubarik et al. (MICRO'20) [2],
// as used by the paper: 8-bit fixed-point weights, 4-bit inputs, 8-bit QReLU
// hidden activations, integer-only inference. In a bespoke circuit each
// constant-coefficient multiplier synthesizes to shift-adds (one shifted copy
// of the input per set bit of the coefficient); netlist::to_bespoke_desc
// builds the baseline circuit that way.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pmlp/datasets/dataset.hpp"
#include "pmlp/mlp/float_mlp.hpp"

namespace pmlp::mlp {

/// One integer layer of the bespoke baseline.
struct QuantLayer {
  int n_in = 0;
  int n_out = 0;
  int input_bits = 4;   ///< bits of the incoming activation codes
  int qrelu_shift = 0;  ///< accumulator right-shift before the 8-bit clamp
  std::vector<std::int32_t> weights;  ///< signed codes, weights[o*n_in+i]
  std::vector<std::int64_t> biases;   ///< in accumulator scale

  [[nodiscard]] std::int32_t weight(int out, int in) const {
    return weights[static_cast<std::size_t>(out) * n_in + in];
  }
};

/// Reusable flat activation buffers for allocation-free QuantMlp inference.
/// Grows monotonically, so one scratch serves any number of nets/samples.
struct QuantScratch {
  std::vector<std::int64_t> a;
  std::vector<std::int64_t> b;
};

class QuantMlp {
 public:
  QuantMlp() = default;
  /// Reassemble a net from explicit layers (checkpoint deserialization —
  /// see core::load_quant_mlp). Throws std::invalid_argument when the layer
  /// shapes do not match the topology.
  QuantMlp(Topology topology, std::vector<QuantLayer> layers, int weight_bits,
           int activation_bits);

  /// Quantize a trained float MLP (paper §V-A: 8-bit weights, 4-bit inputs).
  static QuantMlp from_float(const FloatMlp& net, int weight_bits = 8,
                             int input_bits = 4, int activation_bits = 8);

  [[nodiscard]] const Topology& topology() const { return topology_; }
  [[nodiscard]] const std::vector<QuantLayer>& layers() const { return layers_; }
  [[nodiscard]] int weight_bits() const { return weight_bits_; }
  [[nodiscard]] int activation_bits() const { return activation_bits_; }

  /// Integer forward pass; returns output-layer accumulators (logits).
  [[nodiscard]] std::vector<std::int64_t> forward(
      std::span<const std::uint8_t> x) const;
  [[nodiscard]] int predict(std::span<const std::uint8_t> x) const;

  /// Allocation-free forward through reusable scratch buffers; the returned
  /// span aliases scratch storage (valid until the next call). Bit-identical
  /// to forward(x).
  [[nodiscard]] std::span<const std::int64_t> forward(
      std::span<const std::uint8_t> x, QuantScratch& scratch) const;
  [[nodiscard]] int predict(std::span<const std::uint8_t> x,
                            QuantScratch& scratch) const;

 private:
  Topology topology_;
  std::vector<QuantLayer> layers_;
  int weight_bits_ = 8;
  int activation_bits_ = 8;
};

/// Fraction of quantized samples classified correctly.
[[nodiscard]] double accuracy(const QuantMlp& net,
                              const datasets::QuantizedDataset& d);

}  // namespace pmlp::mlp
