// RTL round-trip tests: the three-way equivalence property (C++ oracle ==
// gate-level simulator == in-process evaluation of the emitted Verilog)
// over random bespoke designs, the export artifacts/manifest, simulator
// discovery, and the testbench-log parse contract.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <utility>

#include "pmlp/core/chromosome.hpp"
#include "pmlp/core/rtl_export.hpp"
#include "pmlp/rtl/sim_runner.hpp"

namespace core = pmlp::core;
namespace rtl = pmlp::rtl;
namespace fs = std::filesystem;

namespace {

/// Random trained-model stand-in for property tests (same recipe as
/// netlist_opt_test's random_circuit, but keeping the ApproxMlp).
core::ApproxMlp random_model(std::uint64_t seed) {
  const pmlp::mlp::Topology topo{{4, 3, 2}};
  core::ChromosomeCodec codec(topo, core::BitConfig{});
  std::mt19937_64 rng(seed);
  std::vector<int> genes(static_cast<std::size_t>(codec.n_genes()));
  for (int g = 0; g < codec.n_genes(); ++g) {
    const auto b = codec.bounds(g);
    genes[static_cast<std::size_t>(g)] =
        b.lo + static_cast<int>(rng() % static_cast<unsigned>(b.hi - b.lo + 1));
  }
  return codec.decode(genes);
}

/// An environment-variable override scoped to one test.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_.c_str(), saved_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string saved_;
  bool had_ = false;
};

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir;
}

/// A fake iverilog that compiles nothing and a fake vvp that runs
/// `vvp_body` as its shell script, both in `dir`.
void write_fake_toolchain(const fs::path& dir, const std::string& vvp_body) {
  fs::create_directories(dir);
  std::ofstream(dir / "iverilog") << "#!/bin/sh\nexit 0\n";
  std::ofstream(dir / "vvp") << "#!/bin/sh\n" << vvp_body << "\n";
  fs::permissions(dir / "iverilog", fs::perms::owner_all);
  fs::permissions(dir / "vvp", fs::perms::owner_all);
}

}  // namespace

// ---------------------------------------------------------------- stimulus

TEST(LfsrStimulus, DeterministicAndInRange) {
  const auto a = core::lfsr_stimulus(16, 5, 4, 7);
  const auto b = core::lfsr_stimulus(16, 5, 4, 7);
  ASSERT_EQ(a.size(), 80u);
  EXPECT_EQ(a, b);  // same seed, same stimulus
  for (const auto code : a) EXPECT_LT(code, 16);
  const auto c = core::lfsr_stimulus(16, 5, 4, 8);
  EXPECT_NE(a, c);  // different seed, different stimulus
}

TEST(LfsrStimulus, RejectsBadArguments) {
  EXPECT_THROW((void)core::lfsr_stimulus(4, 0, 4, 1), std::invalid_argument);
  EXPECT_THROW((void)core::lfsr_stimulus(4, 3, 0, 1), std::invalid_argument);
  EXPECT_THROW((void)core::lfsr_stimulus(4, 3, 9, 1), std::invalid_argument);
}

// --------------------------------------------------------------- log parse

TEST(ParseTestbenchLog, PassLine) {
  const auto run = rtl::parse_testbench_log(
      "compiling...\nTESTBENCH PASS (128 vectors)\n");
  EXPECT_TRUE(run.ok);
  EXPECT_EQ(run.vectors, 128);
}

TEST(ParseTestbenchLog, FailLine) {
  const auto run =
      rtl::parse_testbench_log("MISMATCH vector 3\nTESTBENCH FAIL: 2 errors\n");
  EXPECT_FALSE(run.ok);
  EXPECT_EQ(run.errors, 2);
}

TEST(ParseTestbenchLog, NoSummary) {
  const auto run = rtl::parse_testbench_log("syntax error\n");
  EXPECT_FALSE(run.ok);
  EXPECT_EQ(run.errors, -1);
}

// --------------------------------------------------------------- discovery

TEST(FindSimulator, EnvOffDisablesDiscovery) {
  ScopedEnv env("PMLP_SIMULATOR", "off");
  EXPECT_FALSE(rtl::find_simulator().has_value());
}

TEST(FindSimulator, EnvPathUsedVerbatim) {
  const fs::path dir = fresh_dir("fake_sim_bin");
  fs::create_directories(dir);
  const fs::path tool = dir / "iverilog";
  {
    std::ofstream os(tool);
    os << "#!/bin/sh\nexit 0\n";
  }
  fs::permissions(tool, fs::perms::owner_all);
  ScopedEnv env("PMLP_SIMULATOR", tool.c_str());
  const auto sim = rtl::find_simulator();
  ASSERT_TRUE(sim.has_value());
  EXPECT_EQ(sim->name, "iverilog");
  EXPECT_EQ(sim->path, tool.string());
}

// -------------------------------------------------------------- sim runner

TEST(SimRunner, RunsFakeToolchainAndParsesPass) {
  // A fake iverilog + vvp pair stands in for the real toolchain, so the
  // compile/run/parse plumbing is covered on machines without a simulator.
  // The fake vvp passes only when it runs in the testbench's directory,
  // where the testbench's relative $readmemh path points.
  const fs::path dir = fresh_dir("fake_toolchain");
  const fs::path rtl_dir = dir / "rtl";
  fs::create_directories(rtl_dir);
  write_fake_toolchain(
      dir, "[ -f dut_tb.hex ] && echo 'TESTBENCH PASS (3 vectors)'");

  const rtl::SimRunner runner({"iverilog", (dir / "iverilog").string()});
  const fs::path dut = rtl_dir / "dut.v";
  const fs::path tb = rtl_dir / "dut_tb.v";
  std::ofstream(dut) << "module m; endmodule\n";
  std::ofstream(tb) << "module tb; endmodule\n";
  const auto missing = runner.run(dut.string(), tb.string(),
                                  (dir / "work").string());
  EXPECT_FALSE(missing.ok) << missing.log;

  std::ofstream(rtl_dir / "dut_tb.hex") << "0_0\n";
  const auto run = runner.run(dut.string(), tb.string(),
                              (dir / "work").string());
  EXPECT_TRUE(run.ok) << run.log;
  EXPECT_EQ(run.vectors, 3);
  EXPECT_NE(run.command.find("iverilog"), std::string::npos);
}

// ------------------------------------------------------------- round-trip

class RtlRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RtlRoundTrip, ThreeWayEquivalenceOverRandomDesigns) {
  // export_rtl throws on any divergence between the C++ oracle, the
  // gate-level simulator and the emitted-Verilog evaluation — so a clean
  // export IS the three-way property. Recorded + random stimulus both run.
  const auto model = random_model(GetParam());
  core::RtlPointSpec spec;
  spec.name = "prop_" + std::to_string(GetParam());
  spec.model = model;
  std::mt19937_64 rng(GetParam() ^ 0xBEEF);
  for (int v = 0; v < 8; ++v) {
    for (int f = 0; f < 4; ++f) {
      spec.recorded.push_back(static_cast<std::uint8_t>(rng() & 0xF));
    }
  }
  const fs::path dir = fresh_dir("rtl_prop_" + std::to_string(GetParam()));

  core::RtlExportOptions opts;
  opts.random_vectors = 32;
  const auto report = core::export_rtl({&spec, 1}, dir.string(), opts);
  ASSERT_EQ(report.points.size(), 1u);
  const auto& p = report.points.front();
  EXPECT_EQ(p.n_recorded, 8u);
  EXPECT_EQ(p.n_random, 32u);
  EXPECT_EQ(p.sim, core::RtlSimOutcome::kSkipped);
  EXPECT_TRUE(fs::is_regular_file(p.dut_file));
  EXPECT_TRUE(fs::is_regular_file(p.tb_file));
  EXPECT_TRUE(fs::is_regular_file(report.manifest_file));
  // One stimulus line per vector, next to the testbench that loads it.
  std::ifstream hex(dir / (spec.name + "_tb.hex"));
  std::size_t lines = 0;
  for (std::string line; std::getline(hex, line);) ++lines;
  EXPECT_EQ(lines, p.n_vectors());

  // The unoptimized netlist must agree too (optimize=false path).
  const fs::path dir2 = fresh_dir("rtl_prop_raw_" + std::to_string(GetParam()));
  core::RtlExportOptions raw = opts;
  raw.optimize = false;
  const auto report2 = core::export_rtl({&spec, 1}, dir2.string(), raw);
  EXPECT_EQ(report2.points.front().gates_removed, 0);
  EXPECT_GE(report2.points.front().gates, p.gates);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RtlRoundTrip,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(RtlExport, ManifestListsEveryPoint) {
  const fs::path dir = fresh_dir("rtl_manifest");
  std::vector<core::RtlPointSpec> specs(2);
  specs[0].name = "point_a";
  specs[0].model = random_model(41);
  specs[1].name = "point_b";
  specs[1].model = random_model(42);
  core::RtlExportOptions opts;
  opts.random_vectors = 8;
  const auto report = core::export_rtl(specs, dir.string(), opts);
  ASSERT_EQ(report.points.size(), 2u);

  std::ifstream is(report.manifest_file);
  std::string header;
  std::getline(is, header);
  EXPECT_EQ(header,
            "name\tdut\ttb\trecorded\trandom\tgates\tgates_removed\tsim\t"
            "sim_errors");
  std::string row;
  std::getline(is, row);
  EXPECT_NE(row.find("point_a\tpoint_a.v\tpoint_a_tb.v\t0\t8\t"),
            std::string::npos);
  std::getline(is, row);
  EXPECT_NE(row.find("point_b"), std::string::npos);
}

TEST(RtlExport, RejectsBadSpecs) {
  const fs::path dir = fresh_dir("rtl_bad");
  core::RtlPointSpec spec;
  spec.name = "bad";
  spec.model = random_model(51);
  spec.recorded = {1, 2, 3};  // not a multiple of 4 features
  EXPECT_THROW((void)core::export_rtl({&spec, 1}, dir.string()),
               std::invalid_argument);
  spec.recorded.clear();
  core::RtlExportOptions none;
  none.random_vectors = 0;
  EXPECT_THROW((void)core::export_rtl({&spec, 1}, dir.string(), none),
               std::invalid_argument);  // no stimulus at all
}

TEST(VerifyRtl, SkipsGracefullyWithoutSimulator) {
  ScopedEnv env("PMLP_SIMULATOR", "off");
  const fs::path dir = fresh_dir("rtl_skip");
  core::RtlPointSpec spec;
  spec.name = "skipper";
  spec.model = random_model(61);
  core::RtlExportOptions opts;
  opts.random_vectors = 8;
  const auto report = core::verify_rtl({&spec, 1}, dir.string(), opts);
  EXPECT_TRUE(report.simulator.empty());
  EXPECT_EQ(report.points.front().sim, core::RtlSimOutcome::kSkipped);
  EXPECT_TRUE(report.all_passed(false));
  EXPECT_FALSE(report.all_passed(true));  // --require-sim semantics
}

TEST(VerifyRtl, PassCountsOnlyWhenEveryVectorRan) {
  // An 8-vector point whose testbench claims PASS over 3 vectors has not
  // signed off what was exported: it is a failure, not a pass.
  const fs::path bin = fresh_dir("fake_short_pass");
  core::RtlPointSpec spec;
  spec.name = "short";
  spec.model = random_model(81);
  core::RtlExportOptions opts;
  opts.random_vectors = 8;
  for (const auto& [vectors, outcome] :
       {std::pair{3, core::RtlSimOutcome::kFail},
        std::pair{8, core::RtlSimOutcome::kPass}}) {
    write_fake_toolchain(bin, "[ -f short_tb.hex ] && echo 'TESTBENCH PASS (" +
                                  std::to_string(vectors) + " vectors)'");
    ScopedEnv env("PMLP_SIMULATOR", (bin / "iverilog").c_str());
    const fs::path dir = fresh_dir("rtl_short");
    const auto report = core::verify_rtl({&spec, 1}, dir.string(), opts);
    ASSERT_EQ(report.simulator, "iverilog");
    const auto& p = report.points.front();
    EXPECT_EQ(p.sim, outcome) << vectors << " vectors\n" << p.sim_log;
    EXPECT_EQ(report.all_passed(true), outcome == core::RtlSimOutcome::kPass);
    std::ifstream manifest(report.manifest_file);
    const std::string text((std::istreambuf_iterator<char>(manifest)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(text.find(std::string("\t") +
                        core::rtl_sim_outcome_name(outcome) + "\t0\n"),
              std::string::npos)
        << text;
  }
}

TEST(VerifyRtl, RunsInstalledSimulatorWhenPresent) {
  // On machines with iverilog/verilator on PATH (CI), the full external
  // round-trip must PASS; elsewhere this degrades to the skip contract.
  const auto sim = rtl::find_simulator();
  const fs::path dir = fresh_dir("rtl_full");
  core::RtlPointSpec spec;
  spec.name = "full_trip";
  spec.model = random_model(71);
  core::RtlExportOptions opts;
  opts.random_vectors = 16;
  const auto report = core::verify_rtl({&spec, 1}, dir.string(), opts);
  const auto& p = report.points.front();
  if (sim) {
    EXPECT_EQ(report.simulator, sim->name);
    EXPECT_EQ(p.sim, core::RtlSimOutcome::kPass) << p.sim_log;
    EXPECT_TRUE(report.all_passed(true));
  } else {
    EXPECT_EQ(p.sim, core::RtlSimOutcome::kSkipped);
  }
}
