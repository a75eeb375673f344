#include "pmlp/netlist/verilog.hpp"

#include <bit>
#include <sstream>
#include <stdexcept>

namespace pmlp::netlist {

using hwmodel::CellType;

std::string sanitize_identifier(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, "n_");
  return out;
}

void AssignExpr::eval(std::vector<char>& values) const {
  auto v = [&](NetId n) -> bool {
    return values[static_cast<std::size_t>(n)] != 0;
  };
  auto set = [&](NetId n, bool b) {
    values[static_cast<std::size_t>(n)] = b ? 1 : 0;
  };
  switch (op) {
    case CellType::kNot:
      set(out[0], !v(in[0]));
      break;
    case CellType::kBuf:
    case CellType::kDff:  // modeled as a wire in the combinational export
      set(out[0], v(in[0]));
      break;
    case CellType::kAnd2:
      set(out[0], v(in[0]) && v(in[1]));
      break;
    case CellType::kOr2:
      set(out[0], v(in[0]) || v(in[1]));
      break;
    case CellType::kNand2:
      set(out[0], !(v(in[0]) && v(in[1])));
      break;
    case CellType::kNor2:
      set(out[0], !(v(in[0]) || v(in[1])));
      break;
    case CellType::kXor2:
      set(out[0], v(in[0]) != v(in[1]));
      break;
    case CellType::kXnor2:
      set(out[0], v(in[0]) == v(in[1]));
      break;
    case CellType::kMux2:
      // Emitted as `sel ? b : a` with inputs {a, b, sel}.
      set(out[0], v(in[2]) ? v(in[1]) : v(in[0]));
      break;
    case CellType::kHalfAdder: {
      // Emitted as `{carry, sum} = a + b`.
      const int s = (v(in[0]) ? 1 : 0) + (v(in[1]) ? 1 : 0);
      set(out[0], (s & 1) != 0);
      set(out[1], s >= 2);
      break;
    }
    case CellType::kFullAdder: {
      const int s =
          (v(in[0]) ? 1 : 0) + (v(in[1]) ? 1 : 0) + (v(in[2]) ? 1 : 0);
      set(out[0], (s & 1) != 0);
      set(out[1], s >= 2);
      break;
    }
    case CellType::kCount:
      throw std::logic_error("AssignExpr::eval: bad gate");
  }
}

void AssignExpr::eval_packed(std::vector<std::uint64_t>& words) const {
  std::uint64_t* w = words.data();
  switch (op) {
    case CellType::kNot:
      w[out[0]] = ~w[in[0]];
      break;
    case CellType::kBuf:
    case CellType::kDff:  // modeled as a wire in the combinational export
      w[out[0]] = w[in[0]];
      break;
    case CellType::kAnd2:
      w[out[0]] = w[in[0]] & w[in[1]];
      break;
    case CellType::kOr2:
      w[out[0]] = w[in[0]] | w[in[1]];
      break;
    case CellType::kNand2:
      w[out[0]] = ~(w[in[0]] & w[in[1]]);
      break;
    case CellType::kNor2:
      w[out[0]] = ~(w[in[0]] | w[in[1]]);
      break;
    case CellType::kXor2:
      w[out[0]] = w[in[0]] ^ w[in[1]];
      break;
    case CellType::kXnor2:
      w[out[0]] = ~(w[in[0]] ^ w[in[1]]);
      break;
    case CellType::kMux2:
      // `sel ? b : a` with inputs {a, b, sel}.
      w[out[0]] = (w[in[2]] & w[in[1]]) | (~w[in[2]] & w[in[0]]);
      break;
    case CellType::kHalfAdder: {
      // `{carry, sum} = a + b`, bit-sliced.
      const std::uint64_t a = w[in[0]], b = w[in[1]];
      w[out[0]] = a ^ b;
      w[out[1]] = a & b;
      break;
    }
    case CellType::kFullAdder: {
      // `{carry, sum} = a + b + c`, bit-sliced: carry when any two are set.
      const std::uint64_t a = w[in[0]], b = w[in[1]], c = w[in[2]];
      w[out[0]] = a ^ b ^ c;
      w[out[1]] = (a & b) | (a & c) | (b & c);
      break;
    }
    case CellType::kCount:
      throw std::logic_error("AssignExpr::eval_packed: bad gate");
  }
}

EmittedModule::EmittedModule(const Netlist& nl, const std::string& module_name)
    : nl_(&nl), module_name_(sanitize_identifier(module_name)) {
  for (const auto& [net, name] : nl.inputs()) {
    input_names_[net] = sanitize_identifier(name);
  }

  assigns_.reserve(nl.gates().size());
  for (const auto& g : nl.gates()) {
    AssignExpr ax;
    ax.op = g.type;
    ax.in = g.in;
    ax.out = g.out;
    std::ostringstream os;
    const auto a = [&] { return net_name(g.in[0]); };
    const auto b = [&] { return net_name(g.in[1]); };
    const auto c = [&] { return net_name(g.in[2]); };
    const auto y = [&] { return net_name(g.out[0]); };
    switch (g.type) {
      case CellType::kNot:
        os << "  assign " << y() << " = ~" << a() << ";\n";
        break;
      case CellType::kBuf:
        os << "  assign " << y() << " = " << a() << ";\n";
        break;
      case CellType::kAnd2:
        os << "  assign " << y() << " = " << a() << " & " << b() << ";\n";
        break;
      case CellType::kOr2:
        os << "  assign " << y() << " = " << a() << " | " << b() << ";\n";
        break;
      case CellType::kNand2:
        os << "  assign " << y() << " = ~(" << a() << " & " << b() << ");\n";
        break;
      case CellType::kNor2:
        os << "  assign " << y() << " = ~(" << a() << " | " << b() << ");\n";
        break;
      case CellType::kXor2:
        os << "  assign " << y() << " = " << a() << " ^ " << b() << ";\n";
        break;
      case CellType::kXnor2:
        os << "  assign " << y() << " = ~(" << a() << " ^ " << b() << ");\n";
        break;
      case CellType::kMux2:
        os << "  assign " << y() << " = " << c() << " ? " << b() << " : "
           << a() << ";\n";
        break;
      case CellType::kHalfAdder:
        os << "  assign {" << net_name(g.out[1]) << ", " << y() << "} = "
           << a() << " + " << b() << ";\n";
        break;
      case CellType::kFullAdder:
        os << "  assign {" << net_name(g.out[1]) << ", " << y() << "} = "
           << a() << " + " << b() << " + " << c() << ";\n";
        break;
      case CellType::kDff:
        os << "  // DFF modeled as wire in combinational export\n";
        os << "  assign " << y() << " = " << a() << ";\n";
        break;
      case CellType::kCount:
        throw std::logic_error("EmittedModule: bad gate");
    }
    ax.text = os.str();
    assigns_.push_back(std::move(ax));
  }
}

std::string EmittedModule::net_name(NetId n) const {
  if (n == nl_->const0()) return "1'b0";
  if (n == nl_->const1()) return "1'b1";
  const auto it = input_names_.find(n);
  if (it != input_names_.end()) return it->second;
  return "n" + std::to_string(n);
}

void EmittedModule::emit(std::ostream& os) const {
  const Netlist& nl = *nl_;
  os << "// Generated by pmlp::netlist — bespoke printed MLP circuit\n";
  os << "module " << module_name_ << " (\n";
  for (const auto& [net, name] : nl.inputs()) {
    os << "  input  wire " << sanitize_identifier(name) << ",\n";
  }
  for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
    os << "  output wire " << sanitize_identifier(nl.outputs()[i].second);
    if (i + 1 < nl.outputs().size()) os << ",";
    os << "\n";
  }
  os << ");\n\n";

  // Internal wire declarations.
  for (const auto& g : nl.gates()) {
    for (NetId out : g.out) {
      if (out < 0) continue;
      os << "  wire " << net_name(out) << ";\n";
    }
  }
  os << "\n";

  for (const auto& ax : assigns_) os << ax.text;
  os << "\n";
  for (const auto& [net, name] : nl.outputs()) {
    os << "  assign " << sanitize_identifier(name) << " = " << net_name(net)
       << ";\n";
  }
  os << "endmodule\n";
}

std::string EmittedModule::text() const {
  std::ostringstream os;
  emit(os);
  return os.str();
}

std::vector<char> EmittedModule::run_assigns(
    const std::vector<bool>& inputs) const {
  const Netlist& nl = *nl_;
  if (inputs.size() != nl.inputs().size()) {
    throw std::invalid_argument("EmittedModule::eval: bad input count");
  }
  std::vector<char> values(static_cast<std::size_t>(nl.n_nets()), 0);
  values[static_cast<std::size_t>(nl.const1())] = 1;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    values[static_cast<std::size_t>(nl.inputs()[i].first)] =
        inputs[i] ? 1 : 0;
  }
  for (const auto& ax : assigns_) ax.eval(values);
  return values;
}

std::vector<bool> EmittedModule::eval(const std::vector<bool>& inputs) const {
  const auto values = run_assigns(inputs);
  std::vector<bool> out;
  out.reserve(nl_->outputs().size());
  for (const auto& [net, name] : nl_->outputs()) {
    out.push_back(values[static_cast<std::size_t>(net)] != 0);
  }
  return out;
}

int EmittedModule::cross_check(const std::vector<bool>& inputs) const {
  const Netlist& nl = *nl_;
  const auto ours = run_assigns(inputs);

  std::vector<char> golden(static_cast<std::size_t>(nl.n_nets()), 0);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    golden[static_cast<std::size_t>(nl.inputs()[i].first)] =
        inputs[i] ? 1 : 0;
  }
  nl.evaluate(golden);
  return cross_check(ours, golden);
}

int EmittedModule::cross_check(const std::vector<char>& ours,
                               const std::vector<char>& golden) const {
  const auto n = static_cast<std::size_t>(nl_->n_nets());
  if (ours.size() != n || golden.size() != n) {
    throw std::invalid_argument("EmittedModule::cross_check: bad value count");
  }
  int mismatches = 0;
  for (const auto& g : nl_->gates()) {
    for (NetId out : g.out) {
      if (out < 0) continue;
      if ((ours[static_cast<std::size_t>(out)] != 0) !=
          (golden[static_cast<std::size_t>(out)] != 0)) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

void EmittedModule::eval_packed(std::vector<std::uint64_t>& words) const {
  if (words.size() != static_cast<std::size_t>(nl_->n_nets())) {
    throw std::invalid_argument("EmittedModule::eval_packed: bad word count");
  }
  words[static_cast<std::size_t>(nl_->const0())] = 0;
  words[static_cast<std::size_t>(nl_->const1())] = ~std::uint64_t{0};
  for (const auto& ax : assigns_) ax.eval_packed(words);
}

std::array<int, 64> EmittedModule::cross_check_packed(
    const std::vector<std::uint64_t>& ours,
    const std::vector<std::uint64_t>& golden) const {
  const auto n = static_cast<std::size_t>(nl_->n_nets());
  if (ours.size() != n || golden.size() != n) {
    throw std::invalid_argument(
        "EmittedModule::cross_check_packed: bad word count");
  }
  std::array<int, 64> mismatches{};
  for (const auto& g : nl_->gates()) {
    for (NetId out : g.out) {
      if (out < 0) continue;
      for (std::uint64_t diff = ours[static_cast<std::size_t>(out)] ^
                                golden[static_cast<std::size_t>(out)];
           diff != 0; diff &= diff - 1) {
        ++mismatches[static_cast<std::size_t>(std::countr_zero(diff))];
      }
    }
  }
  return mismatches;
}

}  // namespace pmlp::netlist
