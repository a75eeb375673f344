#include "pmlp/netlist/testbench.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <concepts>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "pmlp/netlist/verilog.hpp"

namespace pmlp::netlist {

namespace {

/// Text bound for `os`, collected in a reused buffer and handed over in
/// writes of about kChunk bytes, so a testbench is never held whole.
class ChunkedWriter {
 public:
  static constexpr std::size_t kChunk = 32 * 1024;

  explicit ChunkedWriter(std::ostream& os) : os_(os) {
    buf_.reserve(kChunk + 1024);
  }

  ChunkedWriter& operator<<(std::string_view s) {
    buf_.append(s);
    if (buf_.size() >= kChunk) flush();
    return *this;
  }

  template <std::integral T>
  ChunkedWriter& operator<<(T v) {
    char digits[24];
    const auto end = std::to_chars(digits, digits + sizeof digits, v).ptr;
    return *this << std::string_view(
               digits, static_cast<std::size_t>(end - digits));
  }

  void flush() {
    os_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
  }

 private:
  std::ostream& os_;
  std::string buf_;
};

}  // namespace

void emit_testbench(const BespokeCircuit& circuit, int n_features,
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
  if (nl.outputs().size() != circuit.class_index.size()) {
    throw std::invalid_argument(
        "emit_testbench: outputs are not the class-index bus");
  }

  // Port names come from the netlist's own I/O records (the same source
  // the DUT emitter uses), so the stimulus below stays correct even if the
  // bus naming convention changes — nothing is string-reconstructed.
  std::vector<std::string> in_names;
  std::map<NetId, std::size_t> in_index;
  for (const auto& [net, name] : nl.inputs()) {
    in_index[net] = in_names.size();
    in_names.push_back(sanitize_identifier(name));
  }
  std::vector<std::string> out_names;
  for (const auto& [net, name] : nl.outputs()) {
    out_names.push_back(sanitize_identifier(name));
  }

  // Every line that repeats per vector is built once: the two drive
  // statements of each feature bus bit (feature-major, LSB first), the
  // half-period delay and the head of the class-index compare.
  struct Drive {
    std::size_t feature;
    unsigned bit;
    std::array<std::string, 2> line;  ///< drives 1'b0 / 1'b1
  };
  std::vector<Drive> drives;
  for (int f = 0; f < n_features; ++f) {
    const Bus& bus = circuit.input_buses[static_cast<std::size_t>(f)];
    for (std::size_t bit = 0; bit < bus.size(); ++bit) {
      const auto it = in_index.find(bus[bit]);
      if (it == in_index.end()) {
        throw std::invalid_argument(
            "emit_testbench: input bus net is not a primary input");
      }
      const std::string head = "    " + in_names[it->second] + " = 1'b";
      drives.push_back({static_cast<std::size_t>(f), static_cast<unsigned>(bit),
                        {head + "0;\n", head + "1;\n"}});
    }
  }
  const std::string delay =
      "    #" +
      std::to_string(static_cast<long long>(opts.clock_period_ns / 2.0)) +
      ";\n";
  // Compare the class-index bus (MSB first) against the golden value.
  std::string compare = "    if ({";
  for (std::size_t bit = out_names.size(); bit-- > 0;) {
    compare += out_names[bit];
    if (bit != 0) compare += ", ";
  }
  compare += "} !== " + std::to_string(circuit.class_index.size()) + "'d";

  // Expected class index per vector from the golden simulator.
  const auto expected = circuit.predict_batch(codes_flat, n_samples);

  ChunkedWriter w(os);
  w << "`timescale 1ns/1ns\n";
  w << "module " << dut << "_tb;\n";
  for (const auto& name : in_names) w << "  reg " << name << ";\n";
  for (const auto& name : out_names) w << "  wire " << name << ";\n";
  w << "  integer errors;\n\n";
  w << "  " << dut << " dut(\n";
  bool first = true;
  for (const auto& name : in_names) {
    w << (first ? "    " : ",\n    ") << "." << name << "(" << name << ")";
    first = false;
  }
  for (const auto& name : out_names) {
    w << ",\n    ." << name << "(" << name << ")";
  }
  w << "\n  );\n\n";

  w << "  initial begin\n";
  w << "    errors = 0;\n";
  for (std::size_t s = 0; s < n_samples; ++s) {
    const std::uint8_t* row =
        codes_flat.data() + s * static_cast<std::size_t>(n_features);
    for (const auto& d : drives) w << d.line[(row[d.feature] >> d.bit) & 1u];
    w << delay << compare << expected[s] << ") begin\n";
    w << "      $display(\"MISMATCH vector " << s << ": expected "
      << expected[s] << "\");\n";
    w << "      errors = errors + 1;\n";
    w << "    end\n";
    w << delay;
  }
  w << "    if (errors == 0) $display(\"TESTBENCH PASS (" << n_samples
    << " vectors)\");\n";
  w << "    else $display(\"TESTBENCH FAIL: %0d errors\", errors);\n";
  w << "    $finish;\n";
  w << "  end\n";
  w << "endmodule\n";
  w.flush();
}

std::string to_verilog_with_testbench(const BespokeCircuit& circuit,
                                      int n_features,
                                      std::span<const std::uint8_t> codes_flat,
                                      const TestbenchOptions& opts) {
  std::ostringstream os;
  emit_verilog(circuit.nl, opts.dut_name, os);
  os << "\n";
  emit_testbench(circuit, n_features, codes_flat, opts, os);
  return os.str();
}

}  // namespace pmlp::netlist
