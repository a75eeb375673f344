#include "pmlp/netlist/testbench.hpp"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <map>
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
                    std::span<const std::int32_t> expected,
                    const TestbenchOptions& opts, std::ostream& tb,
                    std::ostream& hex) {
  const auto row_len = static_cast<std::size_t>(n_features);
  if (n_features <= 0 || codes_flat.size() % row_len != 0) {
    throw std::invalid_argument("emit_testbench: bad sample shape");
  }
  if (circuit.input_buses.size() != row_len) {
    throw std::invalid_argument("emit_testbench: feature count mismatch");
  }
  const std::size_t rows = codes_flat.size() / row_len;
  if (expected.size() != rows) {
    throw std::invalid_argument(
        "emit_testbench: need one expected class per stimulus row");
  }
  const auto n_samples = std::min<std::size_t>(
      rows, static_cast<std::size_t>(opts.max_vectors));
  if (n_samples == 0) throw std::invalid_argument("emit_testbench: no vectors");

  const auto& nl = circuit.nl;
  const std::string dut = sanitize_identifier(opts.dut_name);
  const std::size_t class_bits = circuit.class_index.size();
  if (class_bits == 0 || nl.outputs().size() != class_bits) {
    throw std::invalid_argument(
        "emit_testbench: outputs are not the class-index bus");
  }
  for (std::size_t s = 0; s < n_samples; ++s) {
    const std::int32_t cls = expected[s];
    if (cls < 0 || (class_bits < 32 &&
                    (static_cast<std::uint32_t>(cls) >> class_bits) != 0)) {
      throw std::invalid_argument(
          "emit_testbench: expected class " + std::to_string(cls) +
          " does not fit the " + std::to_string(class_bits) +
          "-bit class-index bus");
    }
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

  // The stimulus word, MSB first: one field per feature bus (MSB first),
  // then the expected class. Each field is padded with `pad` bits at its
  // top to whole hex digits, so every field is its own group of digits.
  // `concat` is the testbench's view of the word, `line` the hex file's
  // (a template whose digits are filled in per vector).
  struct Field {
    std::size_t digits;
    std::uint32_t mask;
    std::size_t end;  ///< one past the field's last digit in `line`
  };
  std::vector<Field> fields;
  std::string concat;
  std::string line;
  std::size_t n_pad = 0;
  std::size_t word_bits = 0;
  auto add_field = [&](std::size_t bits,
                       const std::vector<std::string>& msb_first) {
    const std::size_t digits = (bits + 3) / 4;
    if (!fields.empty()) {
      concat += ",\n       ";
      line += '_';
    }
    for (std::size_t p = bits; p < 4 * digits; ++p) {
      concat += "pad[" + std::to_string(n_pad++) + "], ";
    }
    for (std::size_t i = 0; i < msb_first.size(); ++i) {
      concat += (i == 0 ? "" : ", ") + msb_first[i];
    }
    line.append(digits, '0');
    word_bits += 4 * digits;
    fields.push_back(
        {digits, bits >= 32 ? ~0u : (1u << bits) - 1u, line.size()});
  };
  for (const Bus& bus : circuit.input_buses) {
    std::vector<std::string> ports;
    for (std::size_t bit = bus.size(); bit-- > 0;) {
      const auto it = in_index.find(bus[bit]);
      if (it == in_index.end()) {
        throw std::invalid_argument(
            "emit_testbench: input bus net is not a primary input");
      }
      ports.push_back(in_names[it->second]);
    }
    add_field(bus.size(), ports);
  }
  add_field(class_bits, {"expected"});
  line += '\n';

  const std::string hex_file =
      opts.hex_file.empty() ? dut + "_tb.hex" : opts.hex_file;
  if (hex_file.find_first_of("\"\\\n") != std::string::npos) {
    throw std::invalid_argument("emit_testbench: hex file name " + hex_file +
                                " cannot be a Verilog string");
  }
  const std::string delay =
      "      #" +
      std::to_string(static_cast<long long>(opts.clock_period_ns / 2.0)) +
      ";\n";

  ChunkedWriter w(tb);
  w << "`timescale 1ns/1ns\n";
  w << "module " << dut << "_tb;\n";
  for (const auto& name : in_names) w << "  reg " << name << ";\n";
  for (const auto& name : out_names) w << "  wire " << name << ";\n";
  w << "  integer errors;\n";
  w << "  integer v;\n";
  w << "  // One word per vector: feature codes then the expected class, in\n";
  w << "  // '_'-separated hex fields, as " << hex_file << " lists them.\n";
  w << "  reg [" << word_bits - 1 << ":0] stim [0:" << n_samples - 1
    << "];\n";
  if (n_pad > 0) w << "  reg [" << n_pad - 1 << ":0] pad;\n";
  w << "  reg [" << class_bits - 1 << ":0] expected;\n\n";
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
  w << "    $readmemh(\"" << hex_file << "\", stim);\n";
  w << "    for (v = 0; v < " << n_samples << "; v = v + 1) begin\n";
  w << "      {" << concat << "} = stim[v];\n";
  w << delay;
  // Compare the class-index bus (MSB first) against the expected class.
  w << "      if ({";
  for (std::size_t bit = out_names.size(); bit-- > 0;) {
    w << out_names[bit] << (bit != 0 ? ", " : "");
  }
  w << "} !== expected) begin\n";
  w << "        $display(\"MISMATCH vector %0d: expected %0d\", v, "
       "expected);\n";
  w << "        errors = errors + 1;\n";
  w << "      end\n";
  w << delay;
  w << "    end\n";
  w << "    if (errors == 0) $display(\"TESTBENCH PASS (" << n_samples
    << " vectors)\");\n";
  w << "    else $display(\"TESTBENCH FAIL: %0d errors\", errors);\n";
  w << "    $finish;\n";
  w << "  end\n";
  w << "endmodule\n";
  w.flush();

  // One line per vector, filled into the template in place.
  static constexpr char kHexDigits[] = "0123456789abcdef";
  auto put = [&](const Field& field, std::uint32_t value) {
    value &= field.mask;
    for (std::size_t at = field.end; at-- > field.end - field.digits;) {
      line[at] = kHexDigits[value & 0xFu];
      value >>= 4;
    }
  };
  ChunkedWriter h(hex);
  for (std::size_t s = 0; s < n_samples; ++s) {
    const std::uint8_t* row = codes_flat.data() + s * row_len;
    for (std::size_t f = 0; f < row_len; ++f) put(fields[f], row[f]);
    put(fields.back(), static_cast<std::uint32_t>(expected[s]));
    h << line;
  }
  h.flush();
}

}  // namespace pmlp::netlist
