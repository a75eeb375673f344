// Tests for the synthesis-cleanup passes (opt.hpp), the switching-activity
// power analysis (activity.hpp) and the testbench emitter (testbench.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>

#include "pmlp/core/approx_mlp.hpp"
#include "pmlp/core/chromosome.hpp"
#include "pmlp/netlist/activity.hpp"
#include "pmlp/netlist/builders.hpp"
#include "pmlp/netlist/opt.hpp"
#include "pmlp/netlist/testbench.hpp"
#include "pmlp/netlist/verilog.hpp"

namespace nl = pmlp::netlist;
namespace hw = pmlp::hwmodel;
namespace core = pmlp::core;

namespace {

/// Random bespoke circuit for property tests.
nl::BespokeCircuit random_circuit(std::uint64_t seed) {
  const pmlp::mlp::Topology topo{{4, 3, 2}};
  core::ChromosomeCodec codec(topo, core::BitConfig{});
  std::mt19937_64 rng(seed);
  std::vector<int> genes(static_cast<std::size_t>(codec.n_genes()));
  for (int g = 0; g < codec.n_genes(); ++g) {
    const auto b = codec.bounds(g);
    genes[static_cast<std::size_t>(g)] =
        b.lo + static_cast<int>(rng() % static_cast<unsigned>(b.hi - b.lo + 1));
  }
  return nl::build_bespoke_mlp(codec.decode(genes).to_bespoke_desc("rand"));
}

}  // namespace

TEST(OptDeadGates, RemovesUnreachableLogic) {
  nl::Netlist n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  n.mark_output(n.add_and(a, b), "y");
  (void)n.add_xor(a, b);  // dead
  (void)n.add_or(a, b);   // dead
  nl::OptStats stats;
  const auto opt = nl::eliminate_dead_gates(n, &stats);
  EXPECT_EQ(stats.dead_gates_removed, 2);
  EXPECT_EQ(opt.gates().size(), 1u);
  // Function preserved.
  for (int v = 0; v < 4; ++v) {
    EXPECT_EQ(opt.simulate({(v & 1) != 0, (v & 2) != 0})[0],
              n.simulate({(v & 1) != 0, (v & 2) != 0})[0]);
  }
}

TEST(OptCse, MergesStructuralDuplicates) {
  nl::Netlist n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto x1 = n.add_and(a, b);
  const auto x2 = n.add_and(b, a);  // commutative duplicate
  n.mark_output(n.add_or(x1, x2), "y");
  nl::OptStats stats;
  const auto opt = nl::optimize(n, &stats);
  EXPECT_GE(stats.duplicate_gates_merged, 1);
  // OR(x, x) folds away entirely: a single AND remains.
  EXPECT_EQ(opt.gates().size(), 1u);
  for (int v = 0; v < 4; ++v) {
    EXPECT_EQ(opt.simulate({(v & 1) != 0, (v & 2) != 0})[0],
              n.simulate({(v & 1) != 0, (v & 2) != 0})[0]);
  }
}

TEST(OptCse, FullAdderOperandOrderCanonicalized) {
  nl::Netlist n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto c = n.add_input("c");
  const auto [s1, c1] = n.add_fa(a, b, c);
  const auto [s2, c2] = n.add_fa(c, a, b);  // same FA, permuted
  n.mark_output(n.add_xor(s1, s2), "xs");
  n.mark_output(n.add_xor(c1, c2), "xc");
  nl::OptStats stats;
  const auto opt = nl::optimize(n, &stats);
  EXPECT_GE(stats.duplicate_gates_merged, 1);
  // Outputs are XOR(x,x) == 0: everything folds to constants.
  EXPECT_EQ(opt.gates().size(), 0u);
  const auto out = opt.simulate({true, false, true});
  EXPECT_FALSE(out[0]);
  EXPECT_FALSE(out[1]);
}

class OptEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptEquivalence, OptimizedCircuitIsFunctionallyIdentical) {
  const auto circuit = random_circuit(GetParam());
  nl::OptStats stats;
  const auto opt = nl::optimize(circuit.nl, &stats);
  EXPECT_LE(opt.gates().size(), circuit.nl.gates().size());

  // Compare class decisions on random input codes. The optimized netlist
  // has renumbered nets, so compare through the input/output interface.
  std::mt19937_64 rng(GetParam() ^ 0xABCD);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<bool> vec(circuit.nl.inputs().size());
    for (auto&& bit : vec) bit = (rng() & 1) != 0;
    EXPECT_EQ(opt.simulate(vec), circuit.nl.simulate(vec));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptEquivalence,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

// ------------------------------------------------------------------ remap

class OptRemap : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptRemap, NetMapCarriesEveryLiveNetAcrossOptimize) {
  const auto circuit = random_circuit(GetParam());
  const auto& nl = circuit.nl;
  nl::NetMap map;
  const auto opt = nl::optimize(nl, nullptr, &map);

  ASSERT_EQ(map.size(), static_cast<std::size_t>(nl.n_nets()));
  // Constants and primary I/O are always mapped.
  EXPECT_EQ(map[static_cast<std::size_t>(nl.const0())], opt.const0());
  EXPECT_EQ(map[static_cast<std::size_t>(nl.const1())], opt.const1());
  ASSERT_EQ(opt.inputs().size(), nl.inputs().size());
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    EXPECT_EQ(map[static_cast<std::size_t>(nl.inputs()[i].first)],
              opt.inputs()[i].first);
    EXPECT_EQ(nl.inputs()[i].second, opt.inputs()[i].second);
  }
  for (const auto& [net, name] : nl.outputs()) {
    EXPECT_GE(map[static_cast<std::size_t>(net)], 0) << "output " << name;
  }

  // Every mapped net computes the same value in both netlists, for random
  // input vectors: the remap is a true simulation relation, not just an
  // interface match.
  std::mt19937_64 rng(GetParam() ^ 0x5EED);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<char> old_vals(static_cast<std::size_t>(nl.n_nets()), 0);
    std::vector<char> new_vals(static_cast<std::size_t>(opt.n_nets()), 0);
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      const char bit = (rng() & 1) != 0 ? 1 : 0;
      old_vals[static_cast<std::size_t>(nl.inputs()[i].first)] = bit;
      new_vals[static_cast<std::size_t>(opt.inputs()[i].first)] = bit;
    }
    nl.evaluate(old_vals);
    opt.evaluate(new_vals);
    for (std::size_t n = 0; n < map.size(); ++n) {
      if (map[n] < 0) continue;
      EXPECT_EQ(old_vals[n] != 0,
                new_vals[static_cast<std::size_t>(map[n])] != 0)
          << "net " << n << " -> " << map[n] << " trial " << trial;
    }
  }
}

TEST_P(OptRemap, BespokeCircuitKeepsMetadataAndPredictions) {
  const auto circuit = random_circuit(GetParam() ^ 0xC1C);
  nl::OptStats stats;
  auto copy = circuit;
  const auto opt = nl::optimize(std::move(copy), &stats);

  // Bus metadata survives with identical shape.
  ASSERT_EQ(opt.input_buses.size(), circuit.input_buses.size());
  for (std::size_t f = 0; f < circuit.input_buses.size(); ++f) {
    EXPECT_EQ(opt.input_buses[f].size(), circuit.input_buses[f].size());
  }
  EXPECT_EQ(opt.class_index.size(), circuit.class_index.size());
  EXPECT_EQ(opt.neuron_acc_widths, circuit.neuron_acc_widths);
  EXPECT_LE(opt.nl.gates().size(), circuit.nl.gates().size());
  EXPECT_EQ(stats.gates_remaining,
            static_cast<long>(opt.nl.gates().size()));

  // predict() through the remapped buses agrees with the original circuit.
  std::mt19937_64 rng(GetParam() ^ 0xF00D);
  const int n_features = static_cast<int>(circuit.input_buses.size());
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<std::uint8_t> codes(static_cast<std::size_t>(n_features));
    for (auto& c : codes) c = static_cast<std::uint8_t>(rng() & 0xF);
    EXPECT_EQ(opt.predict(codes), circuit.predict(codes)) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptRemap,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u));

TEST(OptRemap, DeadNetMapsToMinusOne) {
  nl::Netlist n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  n.mark_output(n.add_and(a, b), "y");
  const auto dead = n.add_xor(a, b);  // dead
  nl::NetMap map;
  (void)nl::eliminate_dead_gates(n, nullptr, &map);
  EXPECT_EQ(map[static_cast<std::size_t>(dead)], -1);
}

TEST(OptStats, GatesRemainingReported) {
  nl::Netlist n;
  const auto a = n.add_input("a");
  n.mark_output(n.add_not(a), "y");
  nl::OptStats stats;
  (void)nl::optimize(n, &stats);
  EXPECT_EQ(stats.gates_remaining, 1);
}

// ---------------------------------------------------------------- activity

TEST(Activity, ConstantInputsProduceNoToggles) {
  nl::Netlist n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  n.mark_output(n.add_xor(a, b), "y");
  const auto& lib = hw::CellLibrary::egfet_1v();
  const std::vector<std::vector<bool>> vectors(8, {true, false});
  const auto report = nl::analyze_activity(n, vectors, lib, 200.0);
  EXPECT_EQ(report.total_toggles, 0);
  EXPECT_DOUBLE_EQ(report.dynamic_power_uw, 0.0);
  EXPECT_DOUBLE_EQ(report.total_power_uw, report.static_power_uw);
}

TEST(Activity, AlternatingInputsToggleEveryVector) {
  nl::Netlist n;
  const auto a = n.add_input("a");
  n.mark_output(n.add_not(a), "y");
  const auto& lib = hw::CellLibrary::egfet_1v();
  std::vector<std::vector<bool>> vectors;
  for (int i = 0; i < 9; ++i) vectors.push_back({i % 2 == 0});
  const auto report = nl::analyze_activity(n, vectors, lib, 200.0);
  EXPECT_EQ(report.total_toggles, 8);  // NOT output flips between vectors
  EXPECT_GT(report.dynamic_power_uw, 0.0);
}

TEST(Activity, StaticDominatesAtPrintedClocks) {
  // §II: EGFET at 200 ms clocks is static-power dominated. Even with
  // maximally active inputs, dynamic power must be a tiny fraction.
  const auto circuit = random_circuit(7);
  const auto& lib = hw::CellLibrary::egfet_1v();
  std::mt19937_64 rng(3);
  std::vector<std::vector<bool>> vectors;
  for (int i = 0; i < 32; ++i) {
    std::vector<bool> v(circuit.nl.inputs().size());
    for (auto&& bit : v) bit = (rng() & 1) != 0;
    vectors.push_back(std::move(v));
  }
  const auto report = nl::analyze_activity(circuit.nl, vectors, lib, 200.0);
  EXPECT_GT(report.total_toggles, 0);
  EXPECT_LT(report.dynamic_power_uw, 0.01 * report.static_power_uw);
}

TEST(Activity, RejectsBadArguments) {
  nl::Netlist n;
  (void)n.add_input("a");
  const auto& lib = hw::CellLibrary::egfet_1v();
  EXPECT_THROW((void)nl::analyze_activity(n, {}, lib, 200.0),
               std::invalid_argument);
  EXPECT_THROW((void)nl::analyze_activity(n, {{true, false}}, lib, 200.0),
               std::invalid_argument);
  EXPECT_THROW((void)nl::analyze_activity(n, {{true}}, lib, 0.0),
               std::invalid_argument);
}

TEST(Activity, VectorsFromSamplesRoundTrip) {
  const auto circuit = random_circuit(19);
  std::vector<std::uint8_t> codes = {1, 2, 3, 4, 5, 6, 7, 8};  // 2 samples x 4
  const auto vectors =
      nl::vectors_from_samples(circuit.input_buses, circuit.nl, codes, 4);
  ASSERT_EQ(vectors.size(), 2u);
  ASSERT_EQ(vectors[0].size(), circuit.nl.inputs().size());
  // Feature 0 of sample 0 is code 1: bit 0 set only.
  // Input order is x0[0..3], x1[0..3], ... by construction.
  EXPECT_TRUE(vectors[0][0]);
  EXPECT_FALSE(vectors[0][1]);
  // Feature 1 of sample 0 is code 2: bit 1 set only.
  EXPECT_FALSE(vectors[0][4]);
  EXPECT_TRUE(vectors[0][5]);
}

// --------------------------------------------------------------- testbench

TEST(Testbench, EmitsSelfCheckingBench) {
  const auto circuit = random_circuit(23);
  std::vector<std::uint8_t> codes;
  std::mt19937_64 rng(5);
  for (int s = 0; s < 6; ++s) {
    for (int f = 0; f < 4; ++f) codes.push_back(static_cast<std::uint8_t>(rng() & 0xF));
  }
  nl::TestbenchOptions opts;
  opts.dut_name = "dut_mlp";
  std::ostringstream dut, tb, hex;
  nl::emit_verilog(circuit.nl, opts.dut_name, dut);
  nl::emit_testbench(circuit, 4, codes, circuit.predict_batch(codes, 6), opts,
                     tb, hex);
  EXPECT_NE(dut.str().find("module dut_mlp ("), std::string::npos);
  const std::string v = tb.str();
  EXPECT_NE(v.find("module dut_mlp_tb;"), std::string::npos);
  EXPECT_NE(v.find("dut_mlp dut("), std::string::npos);
  EXPECT_NE(v.find("$readmemh(\"dut_mlp_tb.hex\", stim);"),
            std::string::npos);
  EXPECT_NE(v.find("TESTBENCH PASS (6 vectors)"), std::string::npos);
  EXPECT_NE(v.find("$finish"), std::string::npos);
  // One comparison block, looped over the six hex lines.
  std::size_t count = 0;
  for (std::size_t pos = v.find("MISMATCH vector"); pos != std::string::npos;
       pos = v.find("MISMATCH vector", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
  const std::string lines = hex.str();
  EXPECT_EQ(std::count(lines.begin(), lines.end(), '\n'), 6);
}

TEST(Testbench, ExpectedValuesMatchGoldenSimulator) {
  // 4 features of 4 bits and a 1-bit class index (two classes): the hex
  // line is the four codes and the golden class, one digit each.
  const auto circuit = random_circuit(29);
  ASSERT_EQ(circuit.class_index.size(), 1u);
  std::vector<std::uint8_t> codes = {3, 7, 1, 15};
  nl::TestbenchOptions opts;
  std::ostringstream tb, hex;
  nl::emit_testbench(circuit, 4, codes, circuit.predict_batch(codes, 1), opts,
                     tb, hex);
  EXPECT_EQ(hex.str(), "3_7_1_f_" + std::to_string(circuit.predict(codes)) +
                           "\n");
}

TEST(Testbench, RejectsBadShapes) {
  const auto circuit = random_circuit(31);
  std::vector<std::uint8_t> codes = {1, 2, 3};  // not a multiple of 4
  const std::vector<std::int32_t> expected = {0};
  nl::TestbenchOptions opts;
  std::ostringstream tb, hex;
  EXPECT_THROW(nl::emit_testbench(circuit, 4, codes, expected, opts, tb, hex),
               std::invalid_argument);
}
