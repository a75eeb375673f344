// Bespoke-circuit builders: from a structural MLP description (connections
// as mask/shift/sign, folded bias constants) to a complete gate-level
// netlist — CSA 3:2 reduction trees, ripple CPA, QReLU clamp logic and the
// argmax comparator chain (paper Fig. 1: "only rewiring" multipliers,
// hard-wired zeros in the summands, hard-coded signs).
//
// The builder applies the constant foldings a logic synthesizer would
// (FA with a constant input degenerates to HA / XNOR+OR, etc.), so the cell
// count is at most the FA-count model's estimate; tests assert both the
// bound and bit-exact functional equivalence with the behavioural models.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pmlp/adder/summand.hpp"
#include "pmlp/netlist/netlist.hpp"

namespace pmlp::netlist {

/// One connection of a bespoke neuron: sign * ((mask (.) x[input_index]) << shift).
struct ConnDesc {
  int input_index = 0;
  std::uint32_t mask = 0;
  int shift = 0;
  int sign = +1;
};

struct NeuronDesc {
  std::vector<ConnDesc> conns;
  std::int64_t bias = 0;
};

struct LayerDesc {
  int n_in = 0;
  int n_out = 0;
  int input_bits = 4;    ///< width of this layer's input activations
  bool qrelu = true;     ///< false for the output layer (raw accumulators)
  int qrelu_shift = 0;
  int act_bits = 8;      ///< QReLU output width
  std::vector<NeuronDesc> neurons;
};

struct BespokeMlpDesc {
  std::string name = "bespoke_mlp";
  std::vector<LayerDesc> layers;
};

/// Translate a neuron into the adder model's structural form: build_neuron
/// sizes its accumulator and folds its constant from this spec, the same
/// analysis the FA-count model prices.
[[nodiscard]] adder::NeuronAdderSpec to_adder_spec(const NeuronDesc& neuron,
                                                   int input_bits);

/// Multi-operand addition: reduce `columns` (bits per weight) with FAs,
/// then a ripple CPA; returns the two's-complement sum bus of exactly
/// `columns.size()` bits (wrap-around beyond the MSB, as in hardware).
[[nodiscard]] Bus build_column_adder(Netlist& nl,
                                     std::vector<std::vector<NetId>> columns);

/// One bespoke neuron: wiring/inversion of masked input bits, folded
/// constant, CSA + CPA. Returns the accumulator bus (analyze_neuron width).
[[nodiscard]] Bus build_neuron(Netlist& nl, const NeuronDesc& neuron,
                               const std::vector<Bus>& inputs, int input_bits);

/// QReLU: clamp(acc >> shift, 0, 2^out_bits - 1) with clamp-to-0 on
/// negative accumulators. `acc` is two's complement.
[[nodiscard]] Bus build_qrelu(Netlist& nl, const Bus& acc, int shift,
                              int out_bits);

/// Strict signed greater-than comparator (equal-width buses).
[[nodiscard]] NetId build_signed_gt(Netlist& nl, const Bus& a, const Bus& b);

/// Per-bit 2:1 mux: sel ? b : a (buses must have equal width).
[[nodiscard]] Bus build_mux_bus(Netlist& nl, const Bus& a, const Bus& b,
                                NetId sel);

/// Argmax over signed accumulator buses (first maximum wins, matching
/// std::max_element). Returns the winner-index bus (ceil(log2 n) bits).
[[nodiscard]] Bus build_argmax(Netlist& nl, std::vector<Bus> accs);

/// A fully built bespoke MLP circuit.
struct BespokeCircuit {
  Netlist nl;
  std::vector<Bus> input_buses;        ///< one bus per input feature
  Bus class_index;                     ///< argmax output bus
  std::vector<int> neuron_acc_widths;  ///< layer-major accumulator widths

  /// Classify one quantized sample (codes must fit the input width).
  [[nodiscard]] int predict(std::span<const std::uint8_t> codes) const;

  /// Classify the first `n` rows of row-major `codes` (input_buses.size()
  /// codes per row) on the packed simulator, 64 rows per pass. Equal to
  /// predict() row by row, which is its oracle.
  [[nodiscard]] std::vector<int> predict_batch(
      std::span<const std::uint8_t> codes, std::size_t n) const;

  /// Transpose rows [first, first + lanes) of row-major `codes` into
  /// bit-planes on the input-bus nets of per-net `words` (n_nets()
  /// entries): bit l of bus f's bit b is bit b of row first+l's code f.
  /// Lanes at and above `lanes` (<= 64) read 0.
  void drive_block(std::span<const std::uint8_t> codes, std::size_t first,
                   std::size_t lanes, std::vector<std::uint64_t>& words) const;
};

/// Build the complete circuit: all layers, QReLUs, argmax.
[[nodiscard]] BespokeCircuit build_bespoke_mlp(const BespokeMlpDesc& desc);

}  // namespace pmlp::netlist
