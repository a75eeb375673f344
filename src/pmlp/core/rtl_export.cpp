#include "pmlp/core/rtl_export.hpp"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "pmlp/bitops/lfsr.hpp"
#include "pmlp/core/eval_engine.hpp"
#include "pmlp/netlist/builders.hpp"
#include "pmlp/netlist/opt.hpp"
#include "pmlp/netlist/testbench.hpp"
#include "pmlp/netlist/verilog.hpp"
#include "pmlp/rtl/sim_runner.hpp"

namespace pmlp::core {

namespace fs = std::filesystem;

const char* rtl_sim_outcome_name(RtlSimOutcome o) {
  switch (o) {
    case RtlSimOutcome::kSkipped: return "skipped";
    case RtlSimOutcome::kPass: return "pass";
    case RtlSimOutcome::kFail: return "fail";
    case RtlSimOutcome::kError: return "error";
  }
  return "?";
}

bool RtlExportReport::all_passed(bool require_sim) const {
  for (const auto& p : points) {
    switch (p.sim) {
      case RtlSimOutcome::kPass:
        break;
      case RtlSimOutcome::kSkipped:
        if (require_sim) return false;
        break;
      case RtlSimOutcome::kFail:
      case RtlSimOutcome::kError:
        return false;
    }
  }
  return true;
}

std::vector<std::uint8_t> lfsr_stimulus(std::size_t n_vectors, int n_features,
                                        int input_bits, std::uint32_t seed) {
  if (n_features <= 0) {
    throw std::invalid_argument("lfsr_stimulus: bad feature count");
  }
  if (input_bits <= 0 || input_bits > 8) {
    throw std::invalid_argument("lfsr_stimulus: input_bits must be 1..8");
  }
  // One width-16 register feeds every code; the low input_bits bits are the
  // stimulus (the register cycles through all 2^16-1 non-zero states, so
  // every code value occurs, including 0 from states with low bits clear).
  bitops::Lfsr lfsr(16, seed);
  const std::uint32_t mask = (1u << input_bits) - 1u;
  std::vector<std::uint8_t> codes;
  codes.reserve(n_vectors * static_cast<std::size_t>(n_features));
  for (std::size_t v = 0; v < n_vectors; ++v) {
    for (int f = 0; f < n_features; ++f) {
      codes.push_back(static_cast<std::uint8_t>(lfsr.next() & mask));
    }
  }
  return codes;
}

namespace {

/// Open `path`, let `write` stream the contents into it, and check the
/// stream once the last byte is flushed.
template <typename Write>
void write_file(const fs::path& path, const Write& write) {
  std::ofstream os(path);
  write(os);
  os.flush();
  if (!os) {
    throw std::runtime_error("rtl_export: cannot write " + path.string());
  }
}

void write_manifest(const RtlExportReport& report, const fs::path& outdir) {
  write_file(outdir / "manifest.tsv", [&](std::ostream& os) {
    os << "name\tdut\ttb\trecorded\trandom\tgates\tgates_removed\tsim\t"
          "sim_errors\n";
    for (const auto& p : report.points) {
      os << p.name << '\t' << fs::path(p.dut_file).filename().string() << '\t'
         << fs::path(p.tb_file).filename().string() << '\t' << p.n_recorded
         << '\t' << p.n_random << '\t' << p.gates << '\t' << p.gates_removed
         << '\t' << rtl_sim_outcome_name(p.sim) << '\t' << p.sim_errors
         << '\n';
    }
  });
}

}  // namespace

RtlExportReport export_rtl(std::span<const RtlPointSpec> points,
                           const std::string& outdir,
                           const RtlExportOptions& opts) {
  if (opts.max_recorded_vectors < 0 || opts.random_vectors < 0) {
    throw std::invalid_argument("rtl_export: negative vector counts");
  }
  fs::create_directories(outdir);
  const fs::path out(outdir);

  RtlExportReport report;
  EvalWorkspace ws;
  for (const auto& spec : points) {
    const std::string name = netlist::sanitize_identifier(spec.name);
    if (name.empty()) throw std::invalid_argument("rtl_export: empty name");

    const CompiledNet oracle(spec.model);
    const int n_features = oracle.n_inputs();
    const int input_bits = spec.model.bits().input_bits;

    // Stimulus: recorded dataset vectors (capped) + LFSR random vectors,
    // one flat row-major buffer shared by every check and the testbench.
    if (n_features <= 0 ||
        spec.recorded.size() % static_cast<std::size_t>(n_features) != 0) {
      throw std::invalid_argument("rtl_export: recorded stimulus shape for " +
                                  name);
    }
    const std::size_t n_recorded = std::min<std::size_t>(
        spec.recorded.size() / static_cast<std::size_t>(n_features),
        static_cast<std::size_t>(opts.max_recorded_vectors));
    std::vector<std::uint8_t> codes(
        spec.recorded.begin(),
        spec.recorded.begin() +
            static_cast<std::ptrdiff_t>(n_recorded *
                                        static_cast<std::size_t>(n_features)));
    const std::size_t n_random = static_cast<std::size_t>(opts.random_vectors);
    const auto random = lfsr_stimulus(n_random, n_features, input_bits,
                                      opts.lfsr_seed);
    codes.insert(codes.end(), random.begin(), random.end());
    const std::size_t n_vectors = n_recorded + n_random;
    if (n_vectors == 0) {
      throw std::invalid_argument("rtl_export: no stimulus for " + name);
    }

    // C++ oracle predictions over the whole stimulus.
    std::vector<std::int32_t> expected(n_vectors);
    oracle.predict_batch(codes.data(), n_vectors, expected.data(), ws);

    // Build + optimize the circuit WITH its I/O metadata — the optimized
    // netlist is simulatable directly, so the DUT that ships is the
    // circuit every golden prediction comes from.
    netlist::OptStats stats;
    auto circuit = netlist::build_bespoke_mlp(spec.model.to_bespoke_desc(name));
    const long built_gates = static_cast<long>(circuit.nl.gates().size());
    if (opts.optimize) {
      circuit = netlist::optimize(std::move(circuit), &stats);
    }

    // Three-way check, 64 vectors per pass: oracle == gate-level sim ==
    // in-process evaluation of the emitted assigns, plus a gate-by-gate
    // cross-check of emitter vs simulator. Both simulators are packed
    // (one bit per vector in a word per net); lanes are checked in vector
    // order, so the first divergence reported is the first vector's.
    const netlist::EmittedModule emitted(circuit.nl, name);
    netlist::Bus emitted_outputs;
    for (const auto& [net, port] : circuit.nl.outputs()) {
      emitted_outputs.push_back(net);
    }
    std::vector<std::uint64_t> gate_words(
        static_cast<std::size_t>(circuit.nl.n_nets()), 0);
    std::vector<std::uint64_t> assign_words(gate_words.size(), 0);
    std::array<int, 64> gate_level{};
    std::array<int, 64> emitted_class{};
    for (std::size_t first = 0; first < n_vectors; first += 64) {
      const std::size_t lanes = std::min<std::size_t>(64, n_vectors - first);
      circuit.drive_block(codes, first, lanes, gate_words);
      assign_words = gate_words;
      circuit.nl.evaluate_packed(gate_words);
      emitted.eval_packed(assign_words);
      const auto gate_mismatches =
          emitted.cross_check_packed(assign_words, gate_words);
      netlist::read_bus_lanes(gate_words, circuit.class_index,
                              std::span(gate_level).first(lanes));
      netlist::read_bus_lanes(assign_words, emitted_outputs,
                              std::span(emitted_class).first(lanes));
      for (std::size_t l = 0; l < lanes; ++l) {
        const std::size_t v = first + l;
        if (gate_level[l] != expected[v] || emitted_class[l] != expected[v] ||
            gate_mismatches[l] != 0) {
          std::ostringstream msg;
          msg << "rtl_export: " << name << " diverged on vector " << v
              << ": oracle=" << expected[v] << " gate-sim=" << gate_level[l]
              << " emitted=" << emitted_class[l] << " gate mismatches="
              << gate_mismatches[l];
          throw std::runtime_error(msg.str());
        }
      }
    }

    // Artifacts: DUT, self-checking testbench and its stimulus file over
    // the same stimulus, each streamed straight into its file. The
    // expected classes are the oracle's, which the check above has just
    // proven equal to the gate-level simulator's.
    const fs::path dut_path = out / (name + ".v");
    write_file(dut_path, [&](std::ostream& os) { emitted.emit(os); });

    netlist::TestbenchOptions tb;
    tb.dut_name = name;
    tb.max_vectors = static_cast<int>(n_vectors);
    const fs::path tb_path = out / (name + "_tb.v");
    write_file(tb_path, [&](std::ostream& tb_os) {
      write_file(out / (name + "_tb.hex"), [&](std::ostream& hex_os) {
        netlist::emit_testbench(circuit, n_features, codes, expected, tb,
                                tb_os, hex_os);
      });
    });

    RtlPointReport pr;
    pr.name = name;
    pr.dut_file = dut_path.string();
    pr.tb_file = tb_path.string();
    pr.n_recorded = n_recorded;
    pr.n_random = n_random;
    pr.gates = static_cast<long>(circuit.nl.gates().size());
    pr.gates_removed = built_gates - pr.gates;
    report.points.push_back(std::move(pr));
  }

  write_manifest(report, out);
  report.manifest_file = (out / "manifest.tsv").string();
  return report;
}

RtlExportReport verify_rtl(std::span<const RtlPointSpec> points,
                           const std::string& outdir,
                           const RtlExportOptions& opts) {
  RtlExportReport report = export_rtl(points, outdir, opts);
  const auto sim = rtl::find_simulator();
  if (!sim) return report;  // graceful skip: in-process checks already ran
  report.simulator = sim->name;

  const rtl::SimRunner runner(*sim);
  const fs::path out(outdir);
  for (auto& p : report.points) {
    const auto run =
        runner.run(p.dut_file, p.tb_file, (out / ("work_" + p.name)).string());
    p.sim_log = run.log;
    if (run.ok) {
      // A PASS over fewer vectors than were exported (a short loop bound
      // or hex file) signs off less than it claims: it is a failure.
      const auto want = static_cast<long long>(p.n_vectors());
      if (run.vectors == want) {
        p.sim = RtlSimOutcome::kPass;
      } else {
        p.sim = RtlSimOutcome::kFail;
        p.sim_log += "verify_rtl: testbench passed " +
                     std::to_string(run.vectors) + " vectors, exported " +
                     std::to_string(want) + "\n";
      }
    } else if (run.errors > 0) {
      p.sim = RtlSimOutcome::kFail;
      p.sim_errors = run.errors;
    } else {
      p.sim = RtlSimOutcome::kError;
    }
  }
  write_manifest(report, out);  // refresh sim columns
  return report;
}

}  // namespace pmlp::core
