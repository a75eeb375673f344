// External HDL simulator driver for the RTL round-trip: discover an
// installed Verilog simulator at runtime (Icarus `iverilog` preferred,
// Verilator as fallback), compile a DUT + self-checking testbench pair,
// run it, and parse the testbench's PASS/FAIL summary. The repo's emitted
// testbenches print exactly one of
//
//   TESTBENCH PASS (<n> vectors)
//   TESTBENCH FAIL: <n> errors
//
// so the parse is a contract with netlist/testbench.cpp, covered by unit
// tests on both sides. Machines without a simulator get std::nullopt from
// find_simulator() and the caller degrades to the in-process checks; CI
// installs iverilog and treats simulation as a hard requirement.
#pragma once

#include <optional>
#include <string>

namespace pmlp::rtl {

/// A discovered simulator toolchain.
struct Simulator {
  std::string name;  ///< "iverilog" or "verilator"
  std::string path;  ///< absolute path of the front-end binary
};

/// Find a usable simulator. The PMLP_SIMULATOR environment variable
/// overrides discovery: "off" (or "none") disables simulation entirely, an
/// absolute path is used verbatim (tool inferred from the basename), and a
/// bare name restricts the PATH search to that tool. Otherwise PATH is
/// searched for iverilog, then verilator.
[[nodiscard]] std::optional<Simulator> find_simulator();

/// One compile+run of a testbench.
struct SimRun {
  bool ok = false;      ///< compiled, ran, and printed TESTBENCH PASS
  int vectors = 0;      ///< vectors reported by a PASS line
  int errors = 0;       ///< errors reported by a FAIL line; -1 = no summary
  std::string command;  ///< the full shell command that was executed
  std::string log;      ///< combined compile+run output
};

/// Parse a simulator log for the testbench summary line. Exposed for unit
/// tests (it must track the emit_testbench display strings).
[[nodiscard]] SimRun parse_testbench_log(const std::string& log);

/// Compiles and runs testbenches with one discovered simulator.
class SimRunner {
 public:
  explicit SimRunner(Simulator sim);

  [[nodiscard]] const Simulator& simulator() const { return sim_; }

  /// Compile `dut_file` + `tb_file` and run the testbench, staging build
  /// products and logs under `work_dir` (created if missing). The tools
  /// run in `tb_file`'s directory, so the testbench's relative $readmemh
  /// path resolves and an exported directory can be moved as a whole.
  /// Never throws for simulator failures — a compile error or missing
  /// summary comes back as ok=false with the log attached.
  [[nodiscard]] SimRun run(const std::string& dut_file,
                           const std::string& tb_file,
                           const std::string& work_dir) const;

 private:
  Simulator sim_;
};

}  // namespace pmlp::rtl
