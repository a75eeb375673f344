#include "pmlp/netlist/builders.hpp"

#include <algorithm>
#include <stdexcept>

#include "pmlp/bitops/bitops.hpp"

namespace pmlp::netlist {

adder::NeuronAdderSpec to_adder_spec(const NeuronDesc& neuron, int input_bits) {
  adder::NeuronAdderSpec spec;
  spec.bias = neuron.bias;
  spec.summands.reserve(neuron.conns.size());
  for (const auto& c : neuron.conns) {
    adder::SummandSpec s;
    s.mask = c.mask;
    s.input_width = input_bits;
    s.shift = c.shift;
    s.sign = c.sign;
    spec.summands.push_back(s);
  }
  return spec;
}

Bus build_column_adder(Netlist& nl, std::vector<std::vector<NetId>> columns) {
  const std::size_t width = columns.size();
  if (width == 0) return {};

  // 3:2 reduction until every column holds at most two bits. Taking bits
  // FIFO keeps the tree balanced enough for a combinational design.
  bool again = true;
  while (again) {
    again = false;
    std::vector<std::vector<NetId>> next(width);
    for (std::size_t c = 0; c < width; ++c) {
      auto& col = columns[c];
      std::size_t i = 0;
      while (col.size() - i >= 3) {
        const auto [sum, carry] = nl.add_fa(col[i], col[i + 1], col[i + 2]);
        i += 3;
        next[c].push_back(sum);
        if (c + 1 < width) next[c + 1].push_back(carry);
        // A carry out of the MSB column drops (mod 2^W arithmetic).
      }
      for (; i < col.size(); ++i) next[c].push_back(col[i]);
    }
    columns = std::move(next);
    for (const auto& col : columns) {
      if (col.size() > 2) again = true;
    }
  }

  // Ripple carry-propagate over the remaining <=2 rows.
  Bus sum_bus(width, nl.const0());
  NetId carry = nl.const0();
  for (std::size_t c = 0; c < width; ++c) {
    const auto& col = columns[c];
    const NetId a = col.size() > 0 ? col[0] : nl.const0();
    const NetId b = col.size() > 1 ? col[1] : nl.const0();
    const auto [s, cout] = nl.add_fa(a, b, carry);
    sum_bus[c] = s;
    carry = cout;
  }
  return sum_bus;
}

Bus build_neuron(Netlist& nl, const NeuronDesc& neuron,
                 const std::vector<Bus>& inputs, int input_bits) {
  const adder::NeuronAdderSpec spec = to_adder_spec(neuron, input_bits);
  const adder::NeuronStructure st = adder::analyze_neuron(spec);
  const int W = st.acc_width;

  std::vector<std::vector<NetId>> columns(static_cast<std::size_t>(W));
  for (const auto& c : neuron.conns) {
    if (c.input_index < 0 ||
        c.input_index >= static_cast<int>(inputs.size())) {
      throw std::invalid_argument("build_neuron: bad input index");
    }
    const Bus& x = inputs[static_cast<std::size_t>(c.input_index)];
    const auto mask =
        c.mask & static_cast<std::uint32_t>(bitops::low_mask(input_bits));
    for (int p : bitops::set_bit_positions(mask)) {
      if (p >= static_cast<int>(x.size())) continue;
      const int col = p + c.shift;
      if (col >= W) continue;  // cannot happen given range analysis
      NetId bit = x[static_cast<std::size_t>(p)];
      if (c.sign < 0) bit = nl.add_not(bit);  // two's-complement inversion
      columns[static_cast<std::size_t>(col)].push_back(bit);
    }
  }
  // Folded design-time constant (bias + negation corrections).
  for (int cpos : bitops::set_bit_positions(st.folded_constant)) {
    columns[static_cast<std::size_t>(cpos)].push_back(nl.const1());
  }
  return build_column_adder(nl, std::move(columns));
}

Bus build_qrelu(Netlist& nl, const Bus& acc, int shift, int out_bits) {
  const int W = static_cast<int>(acc.size());
  if (W < 1) throw std::invalid_argument("build_qrelu: empty accumulator");
  const NetId sign = acc[static_cast<std::size_t>(W - 1)];
  const NetId non_neg = nl.add_not(sign);

  auto bit_at = [&](int i) -> NetId {
    return (i >= 0 && i < W) ? acc[static_cast<std::size_t>(i)] : nl.const0();
  };

  // Overflow when any magnitude bit above the output window is set
  // (sign bit excluded: a negative value clamps to 0 instead).
  Bus high_bits;
  for (int i = shift + out_bits; i <= W - 2; ++i) high_bits.push_back(bit_at(i));
  const NetId ovf = nl.add_or_tree(high_bits);

  Bus out(static_cast<std::size_t>(out_bits), nl.const0());
  for (int j = 0; j < out_bits; ++j) {
    const NetId windowed = nl.add_or(ovf, bit_at(shift + j));
    out[static_cast<std::size_t>(j)] = nl.add_and(non_neg, windowed);
  }
  return out;
}

NetId build_signed_gt(Netlist& nl, const Bus& a, const Bus& b) {
  if (a.size() != b.size() || a.empty()) {
    throw std::invalid_argument("build_signed_gt: width mismatch");
  }
  const int W = static_cast<int>(a.size());
  // Signed compare == unsigned compare with inverted sign bits.
  auto bit = [&](const Bus& v, int i) -> NetId {
    const NetId n = v[static_cast<std::size_t>(i)];
    return i == W - 1 ? nl.add_not(n) : n;
  };
  NetId gt = nl.const0();
  NetId eq = nl.const1();
  for (int i = W - 1; i >= 0; --i) {
    const NetId ai = bit(a, i);
    const NetId bi = bit(b, i);
    const NetId ai_gt_bi = nl.add_and(ai, nl.add_not(bi));
    gt = nl.add_or(gt, nl.add_and(eq, ai_gt_bi));
    if (i > 0) eq = nl.add_and(eq, nl.add_xnor(ai, bi));
  }
  return gt;
}

Bus build_mux_bus(Netlist& nl, const Bus& a, const Bus& b, NetId sel) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("build_mux_bus: width mismatch");
  }
  Bus out(a.size(), nl.const0());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = nl.add_mux(a[i], b[i], sel);
  }
  return out;
}

namespace {

/// Sign-extend `v` to `width` bits (replicating the MSB net is free wiring).
Bus sign_extend(const Bus& v, std::size_t width, Netlist& nl) {
  Bus out = v;
  if (out.empty()) out.push_back(nl.const0());
  while (out.size() < width) out.push_back(out.back());
  return out;
}

Bus constant_bus(Netlist& nl, std::uint64_t value, std::size_t width) {
  Bus out(width, nl.const0());
  for (std::size_t i = 0; i < width; ++i) {
    if ((value >> i) & 1u) out[i] = nl.const1();
  }
  return out;
}

}  // namespace

Bus build_argmax(Netlist& nl, std::vector<Bus> accs) {
  if (accs.empty()) throw std::invalid_argument("build_argmax: no inputs");
  std::size_t W = 1;
  for (const auto& a : accs) W = std::max(W, a.size());
  for (auto& a : accs) a = sign_extend(a, W, nl);

  std::size_t index_bits = 1;
  while ((std::size_t{1} << index_bits) < accs.size()) ++index_bits;

  Bus best = accs[0];
  Bus best_idx = constant_bus(nl, 0, index_bits);
  for (std::size_t j = 1; j < accs.size(); ++j) {
    // Strictly-greater replacement keeps the first maximum, matching
    // std::max_element in the behavioural models.
    const NetId gt = build_signed_gt(nl, accs[j], best);
    best = build_mux_bus(nl, best, accs[j], gt);
    best_idx = build_mux_bus(nl, best_idx, constant_bus(nl, j, index_bits), gt);
  }
  return best_idx;
}

BespokeCircuit build_bespoke_mlp(const BespokeMlpDesc& desc) {
  if (desc.layers.empty()) {
    throw std::invalid_argument("build_bespoke_mlp: no layers");
  }
  BespokeCircuit ckt;

  // Primary inputs: one bus per feature at the first layer's width.
  const int in_features = desc.layers.front().n_in;
  const int in_bits = desc.layers.front().input_bits;
  ckt.input_buses.reserve(static_cast<std::size_t>(in_features));
  for (int i = 0; i < in_features; ++i) {
    ckt.input_buses.push_back(
        ckt.nl.add_input_bus("x" + std::to_string(i), in_bits));
  }

  std::vector<Bus> act = ckt.input_buses;
  std::vector<Bus> final_accs;
  for (std::size_t l = 0; l < desc.layers.size(); ++l) {
    const LayerDesc& layer = desc.layers[l];
    if (static_cast<int>(act.size()) != layer.n_in) {
      throw std::invalid_argument("build_bespoke_mlp: layer width mismatch");
    }
    std::vector<Bus> next;
    next.reserve(static_cast<std::size_t>(layer.n_out));
    for (const auto& neuron : layer.neurons) {
      Bus acc = build_neuron(ckt.nl, neuron, act, layer.input_bits);
      ckt.neuron_acc_widths.push_back(static_cast<int>(acc.size()));
      if (layer.qrelu) {
        next.push_back(
            build_qrelu(ckt.nl, acc, layer.qrelu_shift, layer.act_bits));
      } else {
        next.push_back(std::move(acc));
      }
    }
    act = std::move(next);
    if (l + 1 == desc.layers.size()) final_accs = act;
  }

  ckt.class_index = build_argmax(ckt.nl, final_accs);
  for (std::size_t i = 0; i < ckt.class_index.size(); ++i) {
    ckt.nl.mark_output(ckt.class_index[i], "class[" + std::to_string(i) + "]");
  }
  return ckt;
}

int BespokeCircuit::predict(std::span<const std::uint8_t> codes) const {
  if (codes.size() != input_buses.size()) {
    throw std::invalid_argument("BespokeCircuit::predict: bad feature count");
  }
  std::vector<char> values(static_cast<std::size_t>(nl.n_nets()), 0);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    drive_bus(values, input_buses[i], codes[i]);
  }
  nl.evaluate(values);
  return static_cast<int>(read_bus(values, class_index));
}

void BespokeCircuit::drive_block(std::span<const std::uint8_t> codes,
                                 std::size_t first, std::size_t lanes,
                                 std::vector<std::uint64_t>& words) const {
  const std::size_t n_features = input_buses.size();
  if (lanes > 64 || codes.size() < (first + lanes) * n_features ||
      words.size() != static_cast<std::size_t>(nl.n_nets())) {
    throw std::invalid_argument("BespokeCircuit::drive_block: bad block");
  }
  const std::uint8_t* rows = codes.data() + first * n_features;
  for (std::size_t f = 0; f < n_features; ++f) {
    const Bus& bus = input_buses[f];
    for (std::size_t bit = 0; bit < bus.size(); ++bit) {
      std::uint64_t w = 0;
      for (std::size_t l = 0; l < lanes; ++l) {
        w |= static_cast<std::uint64_t>((rows[l * n_features + f] >> bit) & 1u)
             << l;
      }
      words[static_cast<std::size_t>(bus[bit])] = w;
    }
  }
}

std::vector<int> BespokeCircuit::predict_batch(
    std::span<const std::uint8_t> codes, std::size_t n) const {
  if (codes.size() < n * input_buses.size()) {
    throw std::invalid_argument(
        "BespokeCircuit::predict_batch: fewer codes than rows");
  }
  std::vector<int> out(n);
  std::vector<std::uint64_t> words(static_cast<std::size_t>(nl.n_nets()), 0);
  for (std::size_t first = 0; first < n; first += 64) {
    const std::size_t lanes = std::min<std::size_t>(64, n - first);
    drive_block(codes, first, lanes, words);
    nl.evaluate_packed(words);
    read_bus_lanes(words, class_index,
                   std::span<int>(out).subspan(first, lanes));
  }
  return out;
}

}  // namespace pmlp::netlist
