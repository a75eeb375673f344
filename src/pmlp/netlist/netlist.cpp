#include "pmlp/netlist/netlist.hpp"

#include <algorithm>
#include <stdexcept>

namespace pmlp::netlist {

using hwmodel::CellType;

Netlist::Netlist() {
  n_nets_ = 2;  // net 0 = const0, net 1 = const1
}

NetId Netlist::new_net() { return n_nets_++; }

Gate& Netlist::push_gate(CellType type) {
  gates_.push_back(Gate{type, {-1, -1, -1}, {-1, -1}});
  return gates_.back();
}

NetId Netlist::add_input(const std::string& name) {
  const NetId n = new_net();
  inputs_.emplace_back(n, name);
  return n;
}

Bus Netlist::add_input_bus(const std::string& name, int width) {
  Bus bus;
  bus.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    bus.push_back(add_input(name + "[" + std::to_string(i) + "]"));
  }
  return bus;
}

void Netlist::mark_output(NetId net, const std::string& name) {
  if (net < 0 || net >= n_nets_) {
    throw std::invalid_argument("mark_output: unknown net");
  }
  outputs_.emplace_back(net, name);
}

namespace {
void check_net(NetId n, int n_nets, const char* what) {
  if (n < 0 || n >= n_nets) {
    throw std::invalid_argument(std::string("netlist: bad input net for ") +
                                what);
  }
}
}  // namespace

NetId Netlist::add_not(NetId a) {
  check_net(a, n_nets_, "NOT");
  // Constant propagation keeps bespoke circuits honest: inverting a known
  // constant must not cost a cell, exactly like logic synthesis would fold it.
  if (a == const0()) return const1();
  if (a == const1()) return const0();
  Gate& g = push_gate(CellType::kNot);
  g.in[0] = a;
  g.out[0] = new_net();
  return g.out[0];
}

NetId Netlist::add_buf(NetId a) {
  check_net(a, n_nets_, "BUF");
  Gate& g = push_gate(CellType::kBuf);
  g.in[0] = a;
  g.out[0] = new_net();
  return g.out[0];
}

NetId Netlist::add_and(NetId a, NetId b) {
  check_net(a, n_nets_, "AND");
  check_net(b, n_nets_, "AND");
  if (a == const0() || b == const0()) return const0();
  if (a == const1()) return b;
  if (b == const1()) return a;
  if (a == b) return a;
  Gate& g = push_gate(CellType::kAnd2);
  g.in[0] = a;
  g.in[1] = b;
  g.out[0] = new_net();
  return g.out[0];
}

NetId Netlist::add_or(NetId a, NetId b) {
  check_net(a, n_nets_, "OR");
  check_net(b, n_nets_, "OR");
  if (a == const1() || b == const1()) return const1();
  if (a == const0()) return b;
  if (b == const0()) return a;
  if (a == b) return a;
  Gate& g = push_gate(CellType::kOr2);
  g.in[0] = a;
  g.in[1] = b;
  g.out[0] = new_net();
  return g.out[0];
}

NetId Netlist::add_nand(NetId a, NetId b) {
  check_net(a, n_nets_, "NAND");
  check_net(b, n_nets_, "NAND");
  if (a == const0() || b == const0()) return const1();
  if (a == const1()) return add_not(b);
  if (b == const1()) return add_not(a);
  if (a == b) return add_not(a);
  Gate& g = push_gate(CellType::kNand2);
  g.in[0] = a;
  g.in[1] = b;
  g.out[0] = new_net();
  return g.out[0];
}

NetId Netlist::add_nor(NetId a, NetId b) {
  check_net(a, n_nets_, "NOR");
  check_net(b, n_nets_, "NOR");
  if (a == const1() || b == const1()) return const0();
  if (a == const0()) return add_not(b);
  if (b == const0()) return add_not(a);
  if (a == b) return add_not(a);
  Gate& g = push_gate(CellType::kNor2);
  g.in[0] = a;
  g.in[1] = b;
  g.out[0] = new_net();
  return g.out[0];
}

NetId Netlist::add_xor(NetId a, NetId b) {
  check_net(a, n_nets_, "XOR");
  check_net(b, n_nets_, "XOR");
  if (a == const0()) return b;
  if (b == const0()) return a;
  if (a == const1()) return add_not(b);
  if (b == const1()) return add_not(a);
  if (a == b) return const0();
  Gate& g = push_gate(CellType::kXor2);
  g.in[0] = a;
  g.in[1] = b;
  g.out[0] = new_net();
  return g.out[0];
}

NetId Netlist::add_xnor(NetId a, NetId b) {
  check_net(a, n_nets_, "XNOR");
  check_net(b, n_nets_, "XNOR");
  if (a == const0()) return add_not(b);
  if (b == const0()) return add_not(a);
  if (a == const1()) return b;
  if (b == const1()) return a;
  if (a == b) return const1();
  Gate& g = push_gate(CellType::kXnor2);
  g.in[0] = a;
  g.in[1] = b;
  g.out[0] = new_net();
  return g.out[0];
}

NetId Netlist::add_mux(NetId a, NetId b, NetId sel) {
  check_net(a, n_nets_, "MUX");
  check_net(b, n_nets_, "MUX");
  check_net(sel, n_nets_, "MUX");
  if (sel == const0()) return a;
  if (sel == const1()) return b;
  if (a == b) return a;
  Gate& g = push_gate(CellType::kMux2);
  g.in[0] = a;
  g.in[1] = b;
  g.in[2] = sel;
  g.out[0] = new_net();
  return g.out[0];
}

NetId Netlist::add_dff(NetId d) {
  check_net(d, n_nets_, "DFF");
  Gate& g = push_gate(CellType::kDff);
  g.in[0] = d;
  g.out[0] = new_net();
  return g.out[0];
}

std::pair<NetId, NetId> Netlist::add_ha(NetId a, NetId b) {
  check_net(a, n_nets_, "HA");
  check_net(b, n_nets_, "HA");
  if (a == const0()) return {b, const0()};
  if (b == const0()) return {a, const0()};
  if (a == const1() && b == const1()) return {const0(), const1()};
  if (a == const1()) return {add_not(b), b};
  if (b == const1()) return {add_not(a), a};
  Gate& g = push_gate(CellType::kHalfAdder);
  g.in[0] = a;
  g.in[1] = b;
  g.out[0] = new_net();
  g.out[1] = new_net();
  return {g.out[0], g.out[1]};
}

std::pair<NetId, NetId> Netlist::add_fa(NetId a, NetId b, NetId cin) {
  check_net(a, n_nets_, "FA");
  check_net(b, n_nets_, "FA");
  check_net(cin, n_nets_, "FA");
  // Degenerate constants fold to a HA (or less); logic synthesis would do
  // the same, and the FA-count *model* deliberately over-counts these —
  // callers that must match the model exactly avoid constant FA inputs.
  if (cin == const0()) return add_ha(a, b);
  if (a == const0()) return add_ha(b, cin);
  if (b == const0()) return add_ha(a, cin);
  if (cin == const1()) {
    // a + b + 1: sum = XNOR(a,b), carry = OR(a,b)
    return {add_xnor(a, b), add_or(a, b)};
  }
  if (a == const1()) return {add_xnor(b, cin), add_or(b, cin)};
  if (b == const1()) return {add_xnor(a, cin), add_or(a, cin)};
  Gate& g = push_gate(CellType::kFullAdder);
  g.in[0] = a;
  g.in[1] = b;
  g.in[2] = cin;
  g.out[0] = new_net();
  g.out[1] = new_net();
  return {g.out[0], g.out[1]};
}

NetId Netlist::add_or_tree(const Bus& bits) {
  if (bits.empty()) return const0();
  Bus level = bits;
  while (level.size() > 1) {
    Bus next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(add_or(level[i], level[i + 1]));
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  return level.front();
}

NetId Netlist::add_and_tree(const Bus& bits) {
  if (bits.empty()) return const1();
  Bus level = bits;
  while (level.size() > 1) {
    Bus next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(add_and(level[i], level[i + 1]));
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  return level.front();
}

std::array<long, hwmodel::kNumCellTypes> Netlist::cell_histogram() const {
  std::array<long, hwmodel::kNumCellTypes> hist{};
  for (const auto& g : gates_) {
    hist[static_cast<std::size_t>(g.type)] += 1;
  }
  return hist;
}

long Netlist::count(CellType t) const {
  return cell_histogram()[static_cast<std::size_t>(t)];
}

hwmodel::CircuitCost Netlist::cost(const hwmodel::CellLibrary& lib) const {
  hwmodel::CircuitCost c;
  std::vector<double> arrival(static_cast<std::size_t>(n_nets_), 0.0);
  for (const auto& g : gates_) {
    const auto& p = lib.cell(g.type);
    c.area_mm2 += p.area_mm2;
    c.power_uw += p.power_uw;
    c.cell_count += 1;
    double in_arrival = 0.0;
    for (NetId in : g.in) {
      if (in >= 0) in_arrival = std::max(in_arrival, arrival[static_cast<std::size_t>(in)]);
    }
    for (NetId out : g.out) {
      if (out >= 0) arrival[static_cast<std::size_t>(out)] = in_arrival + p.delay_us;
    }
  }
  for (double a : arrival) c.critical_delay_us = std::max(c.critical_delay_us, a);
  return c;
}

void Netlist::evaluate(std::vector<char>& values) const {
  evaluate_with_override(values, -1, 0, false);
}

void Netlist::evaluate_with_override(std::vector<char>& values,
                                     int gate_index, int output_slot,
                                     bool value) const {
  if (values.size() != static_cast<std::size_t>(n_nets_)) {
    throw std::invalid_argument("evaluate: values size != n_nets");
  }
  values[0] = 0;
  values[1] = 1;
  auto v = [&](NetId n) -> bool { return values[static_cast<std::size_t>(n)] != 0; };
  int index = -1;
  for (const auto& g : gates_) {
    ++index;
    switch (g.type) {
      case CellType::kNot:
        values[static_cast<std::size_t>(g.out[0])] = !v(g.in[0]);
        break;
      case CellType::kBuf:
        values[static_cast<std::size_t>(g.out[0])] = v(g.in[0]);
        break;
      case CellType::kAnd2:
        values[static_cast<std::size_t>(g.out[0])] = v(g.in[0]) && v(g.in[1]);
        break;
      case CellType::kOr2:
        values[static_cast<std::size_t>(g.out[0])] = v(g.in[0]) || v(g.in[1]);
        break;
      case CellType::kNand2:
        values[static_cast<std::size_t>(g.out[0])] = !(v(g.in[0]) && v(g.in[1]));
        break;
      case CellType::kNor2:
        values[static_cast<std::size_t>(g.out[0])] = !(v(g.in[0]) || v(g.in[1]));
        break;
      case CellType::kXor2:
        values[static_cast<std::size_t>(g.out[0])] = v(g.in[0]) != v(g.in[1]);
        break;
      case CellType::kXnor2:
        values[static_cast<std::size_t>(g.out[0])] = v(g.in[0]) == v(g.in[1]);
        break;
      case CellType::kMux2:
        values[static_cast<std::size_t>(g.out[0])] =
            v(g.in[2]) ? v(g.in[1]) : v(g.in[0]);
        break;
      case CellType::kHalfAdder: {
        const bool a = v(g.in[0]), b = v(g.in[1]);
        values[static_cast<std::size_t>(g.out[0])] = a != b;
        values[static_cast<std::size_t>(g.out[1])] = a && b;
        break;
      }
      case CellType::kFullAdder: {
        const bool a = v(g.in[0]), b = v(g.in[1]), cin = v(g.in[2]);
        const int sum = static_cast<int>(a) + b + cin;
        values[static_cast<std::size_t>(g.out[0])] = (sum & 1) != 0;
        values[static_cast<std::size_t>(g.out[1])] = sum >= 2;
        break;
      }
      case CellType::kDff:
        // Purely combinational simulation: a DFF is transparent here.
        values[static_cast<std::size_t>(g.out[0])] = v(g.in[0]);
        break;
      case CellType::kCount:
        throw std::logic_error("evaluate: bad gate");
    }
    if (index == gate_index) {
      const NetId forced = g.out[static_cast<std::size_t>(output_slot)];
      if (forced >= 0) {
        values[static_cast<std::size_t>(forced)] = value ? 1 : 0;
      }
    }
  }
}

void Netlist::evaluate_packed(std::vector<std::uint64_t>& words) const {
  if (words.size() != static_cast<std::size_t>(n_nets_)) {
    throw std::invalid_argument("evaluate_packed: words size != n_nets");
  }
  std::uint64_t* w = words.data();
  w[0] = 0;
  w[1] = ~std::uint64_t{0};
  for (const auto& g : gates_) {
    const std::uint64_t a = w[g.in[0]];
    const std::uint64_t b = g.in[1] >= 0 ? w[g.in[1]] : 0;
    switch (g.type) {
      case CellType::kNot:
        w[g.out[0]] = ~a;
        break;
      case CellType::kBuf:
      case CellType::kDff:  // transparent in combinational simulation
        w[g.out[0]] = a;
        break;
      case CellType::kAnd2:
        w[g.out[0]] = a & b;
        break;
      case CellType::kOr2:
        w[g.out[0]] = a | b;
        break;
      case CellType::kNand2:
        w[g.out[0]] = ~(a & b);
        break;
      case CellType::kNor2:
        w[g.out[0]] = ~(a | b);
        break;
      case CellType::kXor2:
        w[g.out[0]] = a ^ b;
        break;
      case CellType::kXnor2:
        w[g.out[0]] = ~(a ^ b);
        break;
      case CellType::kMux2:
        w[g.out[0]] = a ^ ((a ^ b) & w[g.in[2]]);
        break;
      case CellType::kHalfAdder:
        w[g.out[0]] = a ^ b;
        w[g.out[1]] = a & b;
        break;
      case CellType::kFullAdder: {
        const std::uint64_t c = w[g.in[2]];
        const std::uint64_t ab = a ^ b;
        w[g.out[0]] = ab ^ c;
        w[g.out[1]] = (a & b) | (c & ab);  // majority
        break;
      }
      case CellType::kCount:
        throw std::logic_error("evaluate_packed: bad gate");
    }
  }
}

std::vector<bool> Netlist::simulate(
    const std::vector<bool>& input_values) const {
  if (input_values.size() != inputs_.size()) {
    throw std::invalid_argument("simulate: wrong number of input values");
  }
  std::vector<char> values(static_cast<std::size_t>(n_nets_), 0);
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    values[static_cast<std::size_t>(inputs_[i].first)] =
        input_values[i] ? 1 : 0;
  }
  evaluate(values);
  std::vector<bool> out;
  out.reserve(outputs_.size());
  for (const auto& [net, name] : outputs_) {
    out.push_back(values[static_cast<std::size_t>(net)] != 0);
  }
  return out;
}

void drive_bus(std::vector<char>& values, const Bus& bus, std::uint64_t v) {
  for (std::size_t i = 0; i < bus.size(); ++i) {
    values[static_cast<std::size_t>(bus[i])] = ((v >> i) & 1u) ? 1 : 0;
  }
}

std::uint64_t read_bus(const std::vector<char>& values, const Bus& bus) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bus.size(); ++i) {
    if (values[static_cast<std::size_t>(bus[i])] != 0) {
      v |= std::uint64_t{1} << i;
    }
  }
  return v;
}

void read_bus_lanes(const std::vector<std::uint64_t>& words, const Bus& bus,
                    std::span<int> out) {
  if (out.size() > 64) {
    throw std::invalid_argument("read_bus_lanes: more than 64 lanes");
  }
  std::fill(out.begin(), out.end(), 0);
  for (std::size_t i = 0; i < bus.size(); ++i) {
    const std::uint64_t w = words[static_cast<std::size_t>(bus[i])];
    for (std::size_t l = 0; l < out.size(); ++l) {
      out[l] |= static_cast<int>((w >> l) & 1u) << i;
    }
  }
}

}  // namespace pmlp::netlist
