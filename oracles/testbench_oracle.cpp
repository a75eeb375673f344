#include "testbench_oracle.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>

#include "pmlp/netlist/verilog.hpp"

namespace pmlp::oracles {

using netlist::BespokeCircuit;
using netlist::Bus;
using netlist::NetId;
using netlist::sanitize_identifier;
using netlist::TestbenchOptions;

void emit_testbench_naive(const BespokeCircuit& circuit, int n_features,
                          std::span<const std::uint8_t> codes_flat,
                          const TestbenchOptions& opts, std::ostream& os) {
  if (n_features <= 0 ||
      codes_flat.size() % static_cast<std::size_t>(n_features) != 0) {
    throw std::invalid_argument("emit_testbench: bad sample shape");
  }
  if (circuit.input_buses.size() != static_cast<std::size_t>(n_features)) {
    throw std::invalid_argument("emit_testbench: feature count mismatch");
  }
  const auto n_samples = std::min<std::size_t>(
      codes_flat.size() / static_cast<std::size_t>(n_features),
      static_cast<std::size_t>(opts.max_vectors));
  if (n_samples == 0) throw std::invalid_argument("emit_testbench: no vectors");

  const auto& nl = circuit.nl;
  const std::string dut = sanitize_identifier(opts.dut_name);

  // Port names come from the netlist's own I/O records (the same source
  // the DUT emitter uses), so the stimulus below stays correct even if the
  // bus naming convention changes — nothing is string-reconstructed.
  std::map<NetId, std::string> in_name;
  for (const auto& [net, name] : nl.inputs()) {
    in_name[net] = sanitize_identifier(name);
  }
  auto input_port = [&](NetId net) -> const std::string& {
    const auto it = in_name.find(net);
    if (it == in_name.end()) {
      throw std::invalid_argument(
          "emit_testbench: input bus net is not a primary input");
    }
    return it->second;
  };
  if (nl.outputs().size() != circuit.class_index.size()) {
    throw std::invalid_argument(
        "emit_testbench: outputs are not the class-index bus");
  }

  os << "`timescale 1ns/1ns\n";
  os << "module " << dut << "_tb;\n";
  for (const auto& [net, name] : nl.inputs()) {
    os << "  reg " << sanitize_identifier(name) << ";\n";
  }
  for (const auto& [net, name] : nl.outputs()) {
    os << "  wire " << sanitize_identifier(name) << ";\n";
  }
  os << "  integer errors;\n\n";
  os << "  " << dut << " dut(\n";
  bool first = true;
  for (const auto& [net, name] : nl.inputs()) {
    os << (first ? "    " : ",\n    ") << "." << sanitize_identifier(name)
       << "(" << sanitize_identifier(name) << ")";
    first = false;
  }
  for (const auto& [net, name] : nl.outputs()) {
    os << ",\n    ." << sanitize_identifier(name) << "("
       << sanitize_identifier(name) << ")";
  }
  os << "\n  );\n\n";

  // Expected class index per vector from the golden simulator.
  os << "  initial begin\n";
  os << "    errors = 0;\n";
  const auto half_period =
      static_cast<long long>(opts.clock_period_ns / 2.0);
  for (std::size_t s = 0; s < n_samples; ++s) {
    const auto row =
        codes_flat.subspan(s * static_cast<std::size_t>(n_features),
                           static_cast<std::size_t>(n_features));
    const int expected = circuit.predict(row);
    // Drive each feature bus bit through its recorded port name.
    for (int f = 0; f < n_features; ++f) {
      const Bus& bus = circuit.input_buses[static_cast<std::size_t>(f)];
      for (std::size_t bit = 0; bit < bus.size(); ++bit) {
        os << "    " << input_port(bus[bit]) << " = 1'b"
           << (((row[static_cast<std::size_t>(f)] >> bit) & 1u) != 0 ? 1 : 0)
           << ";\n";
      }
    }
    os << "    #" << half_period << ";\n";
    // Compare the class-index bus (MSB first) against the golden value.
    os << "    if ({";
    for (std::size_t bit = circuit.class_index.size(); bit-- > 0;) {
      os << sanitize_identifier(nl.outputs()[bit].second);
      if (bit != 0) os << ", ";
    }
    os << "} !== " << circuit.class_index.size() << "'d" << expected
       << ") begin\n";
    os << "      $display(\"MISMATCH vector " << s << ": expected "
       << expected << "\");\n";
    os << "      errors = errors + 1;\n";
    os << "    end\n";
    os << "    #" << half_period << ";\n";
  }
  os << "    if (errors == 0) $display(\"TESTBENCH PASS (" << n_samples
     << " vectors)\");\n";
  os << "    else $display(\"TESTBENCH FAIL: %0d errors\", errors);\n";
  os << "    $finish;\n";
  os << "  end\n";
  os << "endmodule\n";
}

}  // namespace pmlp::oracles
