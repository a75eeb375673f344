// Self-checking Verilog testbench emitter: together with verilog.hpp this
// yields a complete hand-off artifact for a real EDA flow (the paper's
// VCS step) — the DUT module plus a testbench that applies recorded input
// vectors and compares against the expected class index of each.
//
// Stimulus is data, not code. The testbench (<dut>_tb.v) is a fixed-size
// module that loads one word per vector with $readmemh from <dut>_tb.hex
// and loops over them; only three literals in it depend on the vector
// count. Each hex line is one word, in '_'-separated per-feature fields:
//
//   <x0>_<x1>_..._<x{F-1}>_<class>
//
// Field f holds feature f's code, ceil(bits/4) hex digits wide, and the
// last field the expected class index. The testbench's concatenation
// `{pad[..], x0_{b-1}_, .., x0_0_, .., expected} = stim[v];` spells out
// which port each bit drives (pad bits fill each field to whole digits).
#pragma once

#include <cstdint>
#include <ostream>
#include <span>
#include <string>

#include "pmlp/netlist/builders.hpp"

namespace pmlp::netlist {

struct TestbenchOptions {
  std::string dut_name = "approx_mlp";
  /// File the testbench's $readmemh opens, relative to the directory the
  /// simulator runs in; empty means "<dut_name>_tb.hex" (sanitized).
  std::string hex_file;
  int max_vectors = 256;        ///< cap on emitted stimulus
  double clock_period_ns = 2e8; ///< 200 ms printed clock, in ns
};

/// Emit a self-checking testbench for a bespoke MLP circuit into `tb` and
/// its stimulus file into `hex`. `codes_flat` holds row-major quantized
/// samples (n_features per row) and `expected` the class index of each
/// row, as the caller's golden model computed it; the first
/// min(rows, max_vectors) rows are emitted. Both streams are written in
/// bounded chunks, never held whole.
void emit_testbench(const BespokeCircuit& circuit, int n_features,
                    std::span<const std::uint8_t> codes_flat,
                    std::span<const std::int32_t> expected,
                    const TestbenchOptions& opts, std::ostream& tb,
                    std::ostream& hex);

}  // namespace pmlp::netlist
