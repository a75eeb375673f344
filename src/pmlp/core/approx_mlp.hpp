// The paper's approximate printed MLP (θ): per connection a power-of-two
// weight (sign s, exponent k) and a fine-grained pruning mask m on the input
// activation bits; per neuron a low-bitwidth bias b. Inference follows Eq. 4:
//
//   QReLU( sum_i  s_i * ((m_i (.) x_i) << k_i)  +  b )
//
// Multiplications are wiring (shift), masked bits are hard-wired zeros, so
// the circuit is a bare multi-operand adder — priced by the FA-count model.
// This type holds the parameters; Eq. 4 itself runs in CompiledNet
// (eval_engine.hpp), whose test oracle is the naive walk in
// oracles/eq4_oracle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pmlp/adder/summand.hpp"
#include "pmlp/bitops/bitops.hpp"
#include "pmlp/mlp/quant_mlp.hpp"
#include "pmlp/mlp/topology.hpp"
#include "pmlp/netlist/builders.hpp"

namespace pmlp::core {

/// Bit-width configuration shared by training, inference and hardware.
struct BitConfig {
  int weight_bits = 8;  ///< n of Eq. 1: exponents k in [0, n-2]
  int input_bits = 4;   ///< primary input activation width
  int act_bits = 8;     ///< QReLU output width (hidden activations)
  /// Signed bias codes in [-2^(b-1), 2^(b-1)-1]. Biases live at accumulator
  /// scale (a single pow2 summand reaches 15 << 6 = 960, and a baseline
  /// bias re-quantized into that scale can be a few thousand), so they need
  /// several bits more than the weights.
  int bias_bits = 12;

  [[nodiscard]] int max_exponent() const { return weight_bits - 2; }
  [[nodiscard]] std::int64_t bias_min() const {
    return -(std::int64_t{1} << (bias_bits - 1));
  }
  [[nodiscard]] std::int64_t bias_max() const {
    return (std::int64_t{1} << (bias_bits - 1)) - 1;
  }
};

/// One approximate connection (paper parameters m, s, k).
struct ApproxConn {
  std::uint32_t mask = 0;
  int sign = +1;      ///< -1 or +1
  int exponent = 0;   ///< k
};

struct ApproxLayer {
  int n_in = 0;
  int n_out = 0;
  int input_bits = 4;   ///< width of this layer's inputs
  bool qrelu = true;    ///< false on the output layer
  int qrelu_shift = 0;  ///< derived by range analysis, not trained
  std::vector<ApproxConn> conns;   ///< conns[o * n_in + i]
  std::vector<std::int64_t> biases;

  [[nodiscard]] const ApproxConn& conn(int out, int in) const {
    return conns[static_cast<std::size_t>(out) * n_in + in];
  }
  ApproxConn& conn(int out, int in) {
    return conns[static_cast<std::size_t>(out) * n_in + in];
  }
};

/// Takes no action on a connection; load_neuron_spec's default.
struct IgnoreConn {
  void operator()(int, const ApproxConn&, std::uint32_t) const noexcept {}
};

/// The one per-neuron walk behind Eq. 2 (ApproxMlp::fa_area and
/// compile_layer both price through it): loads `spec` with neuron `o`'s
/// bias and one summand per active connection, i.e. one whose mask keeps an
/// input bit. A fully pruned connection is a provably-zero term and costs
/// no hardware. `on_active(i, conn, m)` sees each active connection with
/// its input index and its mask cut to the layer's input width.
template <class OnActive = IgnoreConn>
void load_neuron_spec(const ApproxLayer& layer, int o,
                      adder::NeuronAdderSpec& spec, OnActive on_active = {}) {
  const auto in_mask =
      static_cast<std::uint32_t>(bitops::low_mask(layer.input_bits));
  spec.summands.clear();
  spec.bias = layer.biases[static_cast<std::size_t>(o)];
  for (int i = 0; i < layer.n_in; ++i) {
    const ApproxConn& c = layer.conn(o, i);
    const std::uint32_t m = c.mask & in_mask;
    if (m == 0) continue;
    on_active(i, c, m);
    spec.summands.push_back(
        adder::SummandSpec{m, layer.input_bits, c.exponent, c.sign});
  }
}

class ApproxMlp {
 public:
  ApproxMlp() = default;
  /// All-masks-zero network of the right shape.
  ApproxMlp(const mlp::Topology& topology, const BitConfig& bits);

  [[nodiscard]] const mlp::Topology& topology() const { return topology_; }
  [[nodiscard]] const BitConfig& bits() const { return bits_; }
  [[nodiscard]] const std::vector<ApproxLayer>& layers() const { return layers_; }
  [[nodiscard]] std::vector<ApproxLayer>& layers() { return layers_; }

  /// Recompute every hidden layer's QReLU shift from the current parameters
  /// (static worst-case range analysis). Must be called after editing
  /// parameters; decode()/builders call it automatically.
  void update_qrelu_shifts();

  /// The QReLU shift update_qrelu_shifts() would assign to layer `l` under
  /// the current parameters, without modifying the net. Editing one layer's
  /// masks/biases only changes that layer's shift, so incremental editors
  /// (the refine engine) re-derive a single layer instead of all of them.
  [[nodiscard]] int compute_qrelu_shift(int l) const;

  /// Paper Eq. 2 with AdderArea = FA count: the training-time area proxy,
  /// priced neuron by neuron through load_neuron_spec.
  [[nodiscard]] long fa_area() const;
  /// Total retained activation bits (wires) — a sparsity diagnostic.
  [[nodiscard]] long wire_count() const;

  /// Netlist-buildable description (same structure the FA model prices).
  [[nodiscard]] netlist::BespokeMlpDesc to_bespoke_desc(
      const std::string& name) const;

  /// Seed model for the paper's doped initialization: snap a quantized
  /// baseline's weights to the nearest pow2 and keep all mask bits set
  /// ("nearly non-approximate"). Biases are clamped into bias range.
  static ApproxMlp from_quant_baseline(const mlp::QuantMlp& baseline,
                                       const BitConfig& bits);

 private:
  mlp::Topology topology_;
  BitConfig bits_;
  std::vector<ApproxLayer> layers_;
};

}  // namespace pmlp::core
