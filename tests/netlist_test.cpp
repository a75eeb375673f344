#include <gtest/gtest.h>

#include <random>

#include "pmlp/adder/fa_model.hpp"
#include "pmlp/bitops/bitops.hpp"
#include "pmlp/hwmodel/cells.hpp"
#include "pmlp/netlist/builders.hpp"
#include "pmlp/netlist/netlist.hpp"
#include "pmlp/netlist/verilog.hpp"

namespace nl = pmlp::netlist;
namespace hw = pmlp::hwmodel;
namespace bitops = pmlp::bitops;

// ----------------------------------------------------------------- gates

TEST(Netlist, ConstantsAndGates) {
  nl::Netlist n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  n.mark_output(n.add_and(a, b), "and");
  n.mark_output(n.add_or(a, b), "or");
  n.mark_output(n.add_xor(a, b), "xor");
  n.mark_output(n.add_not(a), "nota");
  for (int va = 0; va <= 1; ++va) {
    for (int vb = 0; vb <= 1; ++vb) {
      const auto out = n.simulate({va != 0, vb != 0});
      EXPECT_EQ(out[0], va && vb);
      EXPECT_EQ(out[1], va || vb);
      EXPECT_EQ(out[2], va != vb);
      EXPECT_EQ(out[3], !va);
    }
  }
}

TEST(Netlist, ConstantFoldingCostsNoCells) {
  nl::Netlist n;
  const auto a = n.add_input("a");
  EXPECT_EQ(n.add_and(a, n.const0()), n.const0());
  EXPECT_EQ(n.add_and(a, n.const1()), a);
  EXPECT_EQ(n.add_or(a, n.const1()), n.const1());
  EXPECT_EQ(n.add_xor(a, n.const0()), a);
  EXPECT_EQ(n.add_not(n.const0()), n.const1());
  EXPECT_EQ(n.add_mux(a, a, n.add_input("s")), a);
  EXPECT_TRUE(n.gates().empty());
}

TEST(Netlist, FullAdderTruthTable) {
  nl::Netlist n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto c = n.add_input("c");
  const auto [sum, carry] = n.add_fa(a, b, c);
  n.mark_output(sum, "s");
  n.mark_output(carry, "co");
  for (int v = 0; v < 8; ++v) {
    const auto out = n.simulate({(v & 1) != 0, (v & 2) != 0, (v & 4) != 0});
    const int total = (v & 1) + ((v >> 1) & 1) + ((v >> 2) & 1);
    EXPECT_EQ(out[0], (total & 1) != 0) << v;
    EXPECT_EQ(out[1], total >= 2) << v;
  }
}

TEST(Netlist, FaWithConstantFoldsToCheaperCells) {
  nl::Netlist n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  (void)n.add_fa(a, b, n.const1());  // must become XNOR + OR
  EXPECT_EQ(n.count(hw::CellType::kFullAdder), 0);
  EXPECT_EQ(n.count(hw::CellType::kXnor2), 1);
  EXPECT_EQ(n.count(hw::CellType::kOr2), 1);
}

TEST(Netlist, HalfAdderTruthTable) {
  nl::Netlist n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto [sum, carry] = n.add_ha(a, b);
  n.mark_output(sum, "s");
  n.mark_output(carry, "co");
  for (int v = 0; v < 4; ++v) {
    const auto out = n.simulate({(v & 1) != 0, (v & 2) != 0});
    const int total = (v & 1) + ((v >> 1) & 1);
    EXPECT_EQ(out[0], (total & 1) != 0);
    EXPECT_EQ(out[1], total >= 2);
  }
}

TEST(Netlist, OrTreeAndAndTree) {
  nl::Netlist n;
  nl::Bus bits;
  for (int i = 0; i < 5; ++i) bits.push_back(n.add_input("b" + std::to_string(i)));
  n.mark_output(n.add_or_tree(bits), "or");
  n.mark_output(n.add_and_tree(bits), "and");
  for (int v = 0; v < 32; ++v) {
    std::vector<bool> in;
    for (int i = 0; i < 5; ++i) in.push_back((v >> i) & 1);
    const auto out = n.simulate(in);
    EXPECT_EQ(out[0], v != 0);
    EXPECT_EQ(out[1], v == 31);
  }
  EXPECT_EQ(n.add_or_tree({}), n.const0());
  EXPECT_EQ(n.add_and_tree({}), n.const1());
}

TEST(Netlist, CostAccumulatesAreaPowerDelay) {
  nl::Netlist n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  auto x = n.add_and(a, b);
  x = n.add_or(x, a);
  x = n.add_xor(x, b);
  const auto& lib = hw::CellLibrary::egfet_1v();
  const auto cost = n.cost(lib);
  EXPECT_EQ(cost.cell_count, 3);
  EXPECT_DOUBLE_EQ(cost.area_mm2, lib.cell(hw::CellType::kAnd2).area_mm2 +
                                      lib.cell(hw::CellType::kOr2).area_mm2 +
                                      lib.cell(hw::CellType::kXor2).area_mm2);
  // Serial chain: critical path is the sum of the three delays.
  EXPECT_DOUBLE_EQ(cost.critical_delay_us,
                   lib.cell(hw::CellType::kAnd2).delay_us +
                       lib.cell(hw::CellType::kOr2).delay_us +
                       lib.cell(hw::CellType::kXor2).delay_us);
}

// ----------------------------------------------------------- column adder

TEST(ColumnAdder, AddsTwoNumbersExhaustively) {
  // 4-bit a + 4-bit b via columns, 5-bit result.
  nl::Netlist n;
  const auto a = n.add_input_bus("a", 4);
  const auto b = n.add_input_bus("b", 4);
  std::vector<std::vector<nl::NetId>> cols(5);
  for (int i = 0; i < 4; ++i) {
    cols[static_cast<std::size_t>(i)].push_back(a[static_cast<std::size_t>(i)]);
    cols[static_cast<std::size_t>(i)].push_back(b[static_cast<std::size_t>(i)]);
  }
  const auto sum = nl::build_column_adder(n, cols);
  ASSERT_EQ(sum.size(), 5u);
  for (std::uint64_t va = 0; va < 16; ++va) {
    for (std::uint64_t vb = 0; vb < 16; ++vb) {
      std::vector<char> vals(static_cast<std::size_t>(n.n_nets()), 0);
      nl::drive_bus(vals, a, va);
      nl::drive_bus(vals, b, vb);
      n.evaluate(vals);
      EXPECT_EQ(nl::read_bus(vals, sum), va + vb);
    }
  }
}

TEST(ColumnAdder, ManyOperandsRandomized) {
  // 6 operands of 4 bits each, wide enough accumulator: exact sum.
  nl::Netlist n;
  std::vector<nl::Bus> ops;
  for (int k = 0; k < 6; ++k) ops.push_back(n.add_input_bus("x" + std::to_string(k), 4));
  std::vector<std::vector<nl::NetId>> cols(7);
  for (const auto& bus : ops) {
    for (int i = 0; i < 4; ++i) {
      cols[static_cast<std::size_t>(i)].push_back(bus[static_cast<std::size_t>(i)]);
    }
  }
  const auto sum = nl::build_column_adder(n, cols);
  std::mt19937 rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<char> vals(static_cast<std::size_t>(n.n_nets()), 0);
    std::uint64_t expect = 0;
    for (const auto& bus : ops) {
      const std::uint64_t v = rng() & 0xF;
      nl::drive_bus(vals, bus, v);
      expect += v;
    }
    n.evaluate(vals);
    EXPECT_EQ(nl::read_bus(vals, sum), expect);
  }
}

// ------------------------------------------------------------------ QReLU

TEST(Qrelu, MatchesBehaviouralClamp) {
  // acc is a 7-bit signed bus; QReLU with shift 1 into 4 output bits.
  nl::Netlist n;
  const auto acc = n.add_input_bus("acc", 7);
  const auto out = nl::build_qrelu(n, acc, 1, 4);
  ASSERT_EQ(out.size(), 4u);
  for (std::int64_t v = -64; v < 64; ++v) {
    std::vector<char> vals(static_cast<std::size_t>(n.n_nets()), 0);
    nl::drive_bus(vals, acc, bitops::to_twos_complement(v, 7));
    n.evaluate(vals);
    const std::int64_t expect = v <= 0 ? 0 : std::min<std::int64_t>(v >> 1, 15);
    EXPECT_EQ(static_cast<std::int64_t>(nl::read_bus(vals, out)), expect) << v;
  }
}

// ----------------------------------------------------------------- argmax

TEST(SignedGt, Exhaustive5Bit) {
  nl::Netlist n;
  const auto a = n.add_input_bus("a", 5);
  const auto b = n.add_input_bus("b", 5);
  const auto gt = nl::build_signed_gt(n, a, b);
  for (std::int64_t va = -16; va < 16; ++va) {
    for (std::int64_t vb = -16; vb < 16; ++vb) {
      std::vector<char> vals(static_cast<std::size_t>(n.n_nets()), 0);
      nl::drive_bus(vals, a, bitops::to_twos_complement(va, 5));
      nl::drive_bus(vals, b, bitops::to_twos_complement(vb, 5));
      n.evaluate(vals);
      EXPECT_EQ(vals[static_cast<std::size_t>(gt)] != 0, va > vb)
          << va << " vs " << vb;
    }
  }
}

TEST(Argmax, FirstMaximumWins) {
  nl::Netlist n;
  std::vector<nl::Bus> accs;
  for (int k = 0; k < 4; ++k) accs.push_back(n.add_input_bus("a" + std::to_string(k), 6));
  const auto idx = nl::build_argmax(n, accs);
  std::mt19937 rng(9);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<char> vals(static_cast<std::size_t>(n.n_nets()), 0);
    std::vector<std::int64_t> v(4);
    for (int k = 0; k < 4; ++k) {
      v[static_cast<std::size_t>(k)] =
          static_cast<std::int64_t>(rng() % 64) - 32;
      nl::drive_bus(vals, accs[static_cast<std::size_t>(k)],
                    bitops::to_twos_complement(v[static_cast<std::size_t>(k)], 6));
    }
    n.evaluate(vals);
    const auto expect = static_cast<std::uint64_t>(std::distance(
        v.begin(), std::max_element(v.begin(), v.end())));
    EXPECT_EQ(nl::read_bus(vals, idx), expect);
  }
}

// ----------------------------------------------------- neuron equivalence

namespace {

/// Behavioural neuron per Eq. 4's summation (no activation).
std::int64_t neuron_value(const nl::NeuronDesc& neuron,
                          const std::vector<std::uint32_t>& x) {
  std::int64_t acc = neuron.bias;
  for (const auto& c : neuron.conns) {
    const std::int64_t term =
        static_cast<std::int64_t>(x[static_cast<std::size_t>(c.input_index)] &
                                  c.mask)
        << c.shift;
    acc += c.sign < 0 ? -term : term;
  }
  return acc;
}

}  // namespace

class NeuronEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NeuronEquivalence, NetlistMatchesBehaviouralModel) {
  std::mt19937_64 rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const int n_in = 2 + static_cast<int>(rng() % 5);
    nl::NeuronDesc neuron;
    neuron.bias = static_cast<std::int64_t>(rng() % 64) - 32;
    for (int i = 0; i < n_in; ++i) {
      nl::ConnDesc c;
      c.input_index = i;
      c.mask = static_cast<std::uint32_t>(rng() & 0xF);
      c.shift = static_cast<int>(rng() % 7);
      c.sign = (rng() & 1) ? +1 : -1;
      if (c.mask != 0) neuron.conns.push_back(c);
    }
    nl::Netlist n;
    std::vector<nl::Bus> inputs;
    for (int i = 0; i < n_in; ++i) {
      inputs.push_back(n.add_input_bus("x" + std::to_string(i), 4));
    }
    const auto acc = nl::build_neuron(n, neuron, inputs, 4);
    const int W = static_cast<int>(acc.size());
    for (int sample = 0; sample < 25; ++sample) {
      std::vector<char> vals(static_cast<std::size_t>(n.n_nets()), 0);
      std::vector<std::uint32_t> x(static_cast<std::size_t>(n_in));
      for (int i = 0; i < n_in; ++i) {
        x[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(rng() & 0xF);
        nl::drive_bus(vals, inputs[static_cast<std::size_t>(i)],
                      x[static_cast<std::size_t>(i)]);
      }
      n.evaluate(vals);
      const auto got =
          bitops::from_twos_complement(nl::read_bus(vals, acc), W);
      EXPECT_EQ(got, neuron_value(neuron, x));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NeuronEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(NeuronCost, NetlistAdderCellsBoundedByFaModel) {
  // The builder's constant folding can only *save* cells relative to the
  // paper's FA-count estimate of the same tree.
  std::mt19937_64 rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    const int n_in = 3 + static_cast<int>(rng() % 6);
    nl::NeuronDesc neuron;
    neuron.bias = static_cast<std::int64_t>(rng() % 32) - 16;
    for (int i = 0; i < n_in; ++i) {
      nl::ConnDesc c{i, static_cast<std::uint32_t>(rng() & 0xF),
                     static_cast<int>(rng() % 5), (rng() & 1) ? +1 : -1};
      if (c.mask != 0) neuron.conns.push_back(c);
    }
    nl::Netlist n;
    std::vector<nl::Bus> inputs;
    for (int i = 0; i < n_in; ++i) {
      inputs.push_back(n.add_input_bus("x" + std::to_string(i), 4));
    }
    (void)nl::build_neuron(n, neuron, inputs, 4);
    const auto model_fa =
        pmlp::adder::estimate_adder(nl::to_adder_spec(neuron, 4)).total_fa();
    const long adder_cells = n.count(hw::CellType::kFullAdder) +
                             n.count(hw::CellType::kHalfAdder);
    EXPECT_LE(adder_cells, model_fa) << "trial " << trial;
  }
}

// ---------------------------------------------------------------- verilog

TEST(Verilog, EmitsWellFormedModule) {
  nl::Netlist n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto [s, c] = n.add_fa(a, b, n.add_input("cin"));
  n.mark_output(s, "sum");
  n.mark_output(c, "carry");
  const auto v = nl::EmittedModule(n, "adder1").text();
  EXPECT_NE(v.find("module adder1"), std::string::npos);
  EXPECT_NE(v.find("input  wire a"), std::string::npos);
  EXPECT_NE(v.find("output wire sum"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
  // FA emitted as a concatenated sum.
  EXPECT_NE(v.find(" + "), std::string::npos);
}

TEST(Verilog, SanitizesBracketNames) {
  nl::Netlist n;
  const auto bus = n.add_input_bus("x0", 2);
  n.mark_output(n.add_and(bus[0], bus[1]), "y[0]");
  const auto v = nl::EmittedModule(n, "m").text();
  EXPECT_EQ(v.find('['), std::string::npos);  // no raw brackets in ports
  EXPECT_NE(v.find("x0_0_"), std::string::npos);
}

TEST(Verilog, GoldenAssignTextPerGateType) {
  // One gate of every type, asserting the exact emitted assign text. The
  // strings are the external contract of the RTL export — a silent change
  // here changes what ships to the hardware flow.
  nl::Netlist n;
  const auto a = n.add_input("a");    // net 2
  const auto b = n.add_input("b");    // net 3
  const auto s = n.add_input("s");    // net 4
  (void)n.add_not(a);                 // net 5
  (void)n.add_buf(a);                 // net 6
  (void)n.add_and(a, b);              // net 7
  (void)n.add_or(a, b);               // net 8
  (void)n.add_nand(a, b);             // net 9
  (void)n.add_nor(a, b);              // net 10
  (void)n.add_xor(a, b);              // net 11
  (void)n.add_xnor(a, b);             // net 12
  (void)n.add_mux(a, b, s);           // net 13
  (void)n.add_dff(a);                 // net 14
  (void)n.add_ha(a, b);               // nets {15 sum, 16 carry}
  (void)n.add_fa(a, b, s);            // nets {17 sum, 18 carry}

  const nl::EmittedModule m(n, "golden");
  ASSERT_EQ(m.assigns().size(), 12u);
  EXPECT_EQ(m.assigns()[0].text, "  assign n5 = ~a;\n");
  EXPECT_EQ(m.assigns()[1].text, "  assign n6 = a;\n");
  EXPECT_EQ(m.assigns()[2].text, "  assign n7 = a & b;\n");
  EXPECT_EQ(m.assigns()[3].text, "  assign n8 = a | b;\n");
  EXPECT_EQ(m.assigns()[4].text, "  assign n9 = ~(a & b);\n");
  EXPECT_EQ(m.assigns()[5].text, "  assign n10 = ~(a | b);\n");
  EXPECT_EQ(m.assigns()[6].text, "  assign n11 = a ^ b;\n");
  EXPECT_EQ(m.assigns()[7].text, "  assign n12 = ~(a ^ b);\n");
  EXPECT_EQ(m.assigns()[8].text, "  assign n13 = s ? b : a;\n");
  EXPECT_EQ(m.assigns()[9].text,
            "  // DFF modeled as wire in combinational export\n"
            "  assign n14 = a;\n");
  EXPECT_EQ(m.assigns()[10].text, "  assign {n16, n15} = a + b;\n");
  EXPECT_EQ(m.assigns()[11].text, "  assign {n18, n17} = a + b + s;\n");
  EXPECT_EQ(m.net_name(n.const0()), "1'b0");
  EXPECT_EQ(m.net_name(n.const1()), "1'b1");

  // Every emitted expression evaluates identically to the gate-level
  // simulator on all 8 input combinations.
  for (int v = 0; v < 8; ++v) {
    EXPECT_EQ(m.cross_check({(v & 1) != 0, (v & 2) != 0, (v & 4) != 0}), 0)
        << "input combination " << v;
  }
}

TEST(Verilog, EmittedEvalMatchesSimulateOnAdder) {
  nl::Netlist n;
  const auto a = n.add_input_bus("a", 3);
  const auto b = n.add_input_bus("b", 3);
  std::vector<std::vector<nl::NetId>> cols(4);
  for (int i = 0; i < 3; ++i) {
    cols[static_cast<std::size_t>(i)] = {a[static_cast<std::size_t>(i)],
                                         b[static_cast<std::size_t>(i)]};
  }
  const auto sum = nl::build_column_adder(n, cols);
  for (std::size_t i = 0; i < sum.size(); ++i) {
    n.mark_output(sum[i], "s" + std::to_string(i));
  }
  const nl::EmittedModule m(n, "adder");
  for (int v = 0; v < 64; ++v) {
    std::vector<bool> in;
    for (int i = 0; i < 6; ++i) in.push_back((v >> i) & 1);
    EXPECT_EQ(m.eval(in), n.simulate(in)) << v;
    EXPECT_EQ(m.cross_check(in), 0) << v;
  }
}

TEST(Verilog, ConstantOutputAliasesAreLegal) {
  // Optimized circuits can fold an output to a constant; the alias line must
  // reference the literal, and eval must still report it.
  nl::Netlist n;
  (void)n.add_input("a");
  n.mark_output(n.const1(), "y1");
  n.mark_output(n.const0(), "y0");
  const auto v = nl::EmittedModule(n, "consts").text();
  EXPECT_NE(v.find("assign y1 = 1'b1;"), std::string::npos);
  EXPECT_NE(v.find("assign y0 = 1'b0;"), std::string::npos);
  const nl::EmittedModule m(n, "consts");
  const auto out = m.eval({true});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0]);
  EXPECT_FALSE(out[1]);
}
