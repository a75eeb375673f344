// Verified RTL export: the product surface that turns a trained model (or a
// whole saved Pareto front) into simulation-ready hardware artifacts with a
// proven chain of equivalences. For every exported point the pipeline
//
//   1. builds the bespoke gate-level circuit and optimizes it IN PLACE —
//      optimize(BespokeCircuit) carries the I/O bus metadata across the
//      rewrite, so the optimized netlist (the one that ships) is the one
//      that gets simulated and checked; there is no second "golden" build,
//   2. asserts, over recorded dataset vectors plus LFSR random stimulus,
//      that the C++ oracle (CompiledNet::predict_batch), the gate-level
//      simulator (Netlist::evaluate_packed) and the in-process evaluation
//      of the emitted Verilog (EmittedModule::eval_packed, gate-by-gate
//      cross_check_packed) produce bit-identical classes — any divergence
//      throws. Both simulators run 64 vectors per word; their scalar
//      forms are the test oracles,
//   3. streams <name>.v (DUT), <name>_tb.v (self-checking testbench) and
//      <name>_tb.hex (the same stimulus and the oracle's classes, which
//      the testbench loads with $readmemh) into their files and writes a
//      manifest.tsv row,
//   4. (verify_rtl only) compiles and runs each testbench with a discovered
//      iverilog/verilator and records PASS/FAIL; a PASS counts only when it
//      reports every exported vector. No simulator installed is a graceful
//      skip — the in-process three-way check has already run.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pmlp/core/approx_mlp.hpp"

namespace pmlp::core {

struct RtlExportOptions {
  int max_recorded_vectors = 64;  ///< cap on recorded dataset stimulus
  int random_vectors = 64;        ///< LFSR vectors appended per point
  std::uint32_t lfsr_seed = 1;    ///< stimulus LFSR seed (non-zero)
  bool optimize = true;           ///< run the netlist optimizer on the DUT
};

/// One design to export: a name (becomes the module/file name), the model,
/// and optional recorded stimulus (row-major quantized codes; may be empty
/// — random stimulus still applies).
struct RtlPointSpec {
  std::string name;
  ApproxMlp model;
  std::vector<std::uint8_t> recorded;
};

enum class RtlSimOutcome {
  kSkipped,  ///< no simulator available (or export-only)
  kPass,     ///< testbench printed TESTBENCH PASS over every vector
  kFail,     ///< testbench reported mismatches, or passed too few vectors
  kError,    ///< compile/run failed before a summary was printed
};

[[nodiscard]] const char* rtl_sim_outcome_name(RtlSimOutcome o);

struct RtlPointReport {
  std::string name;
  std::string dut_file;  ///< emitted DUT path
  std::string tb_file;   ///< emitted testbench path
  std::size_t n_recorded = 0;
  std::size_t n_random = 0;
  long gates = 0;          ///< cells in the exported (optimized) netlist
  long gates_removed = 0;  ///< cells removed by the optimizer
  RtlSimOutcome sim = RtlSimOutcome::kSkipped;
  int sim_errors = 0;      ///< mismatch count from a FAIL summary
  std::string sim_log;     ///< simulator output (empty when skipped)

  [[nodiscard]] std::size_t n_vectors() const {
    return n_recorded + n_random;
  }
};

struct RtlExportReport {
  std::vector<RtlPointReport> points;
  std::string manifest_file;  ///< path of the written manifest.tsv
  std::string simulator;      ///< tool name, empty when none was found

  /// True when every point's in-process checks passed (they throw
  /// otherwise, so reaching a report implies them) AND simulation either
  /// passed everywhere or was skipped. With `require_sim`, a skip counts
  /// as failure.
  [[nodiscard]] bool all_passed(bool require_sim) const;
};

/// Deterministic LFSR stimulus: `n_vectors` rows of `n_features` codes,
/// each code `input_bits` wide, drawn from one maximal-length Galois LFSR
/// (bitops::Lfsr). Same seed -> same stimulus, so the emitted testbench and
/// the oracle checks always see identical vectors.
[[nodiscard]] std::vector<std::uint8_t> lfsr_stimulus(std::size_t n_vectors,
                                                      int n_features,
                                                      int input_bits,
                                                      std::uint32_t seed);

/// Export every point: build + optimize + three-way cross-check + write
/// DUT/testbench/stimulus/manifest under `outdir` (created if missing). Throws
/// std::runtime_error on any cross-check divergence or I/O failure; sim
/// outcomes stay kSkipped.
RtlExportReport export_rtl(std::span<const RtlPointSpec> points,
                           const std::string& outdir,
                           const RtlExportOptions& opts = {});

/// export_rtl, then compile+run every testbench with a discovered
/// simulator. Without one, all sim outcomes stay kSkipped (the report's
/// `simulator` is empty).
RtlExportReport verify_rtl(std::span<const RtlPointSpec> points,
                           const std::string& outdir,
                           const RtlExportOptions& opts = {});

}  // namespace pmlp::core
