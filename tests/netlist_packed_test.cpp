// Differential tests for the packed (64 vectors per word) simulators and
// the streamed testbench writer, each against its scalar or per-vector
// oracle: Netlist::evaluate_packed vs Netlist::evaluate on random netlists
// that use every cell type, BespokeCircuit::predict_batch vs predict on
// real bespoke circuits, EmittedModule::eval_packed/cross_check_packed vs
// their scalar forms, and the vector sequence emit_testbench's
// testbench and hex file apply vs oracles::emit_testbench_naive's.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <random>
#include <sstream>
#include <string>

#include "pmlp/core/chromosome.hpp"
#include "pmlp/core/rtl_export.hpp"
#include "pmlp/netlist/builders.hpp"
#include "pmlp/netlist/opt.hpp"
#include "pmlp/netlist/testbench.hpp"
#include "pmlp/netlist/verilog.hpp"
#include "testbench_oracle.hpp"

namespace nl = pmlp::netlist;
namespace hw = pmlp::hwmodel;
namespace core = pmlp::core;

namespace {

constexpr int kFeatures = 6;
constexpr int kFeatureBits = 4;

/// A random netlist over kFeatures 4-bit input buses whose gates cycle
/// through every cell type, wrapped as a BespokeCircuit whose "class
/// index" is 12 gate outputs spread over the netlist.
nl::BespokeCircuit random_netlist(std::uint64_t seed) {
  nl::BespokeCircuit c;
  for (int f = 0; f < kFeatures; ++f) {
    c.input_buses.push_back(
        c.nl.add_input_bus("x" + std::to_string(f), kFeatureBits));
  }
  std::mt19937_64 rng(seed);
  std::vector<nl::NetId> nets;
  for (const auto& bus : c.input_buses) {
    nets.insert(nets.end(), bus.begin(), bus.end());
  }
  auto pick = [&] {
    // Now and then a constant, which only BUF/DFF keep as a gate input.
    if (rng() % 16 == 0) return static_cast<nl::NetId>(rng() % 2);
    return nets[rng() % nets.size()];
  };
  for (int i = 0; i < 600; ++i) {
    const auto type = static_cast<hw::CellType>(i % hw::kNumCellTypes);
    const nl::NetId a = pick(), b = pick(), s = pick();
    switch (type) {
      case hw::CellType::kNot: nets.push_back(c.nl.add_not(a)); break;
      case hw::CellType::kBuf: nets.push_back(c.nl.add_buf(a)); break;
      case hw::CellType::kAnd2: nets.push_back(c.nl.add_and(a, b)); break;
      case hw::CellType::kOr2: nets.push_back(c.nl.add_or(a, b)); break;
      case hw::CellType::kNand2: nets.push_back(c.nl.add_nand(a, b)); break;
      case hw::CellType::kNor2: nets.push_back(c.nl.add_nor(a, b)); break;
      case hw::CellType::kXor2: nets.push_back(c.nl.add_xor(a, b)); break;
      case hw::CellType::kXnor2: nets.push_back(c.nl.add_xnor(a, b)); break;
      case hw::CellType::kMux2: nets.push_back(c.nl.add_mux(a, b, s)); break;
      case hw::CellType::kDff: nets.push_back(c.nl.add_dff(a)); break;
      case hw::CellType::kHalfAdder: {
        const auto [sum, carry] = c.nl.add_ha(a, b);
        nets.push_back(sum);
        nets.push_back(carry);
        break;
      }
      case hw::CellType::kFullAdder: {
        const auto [sum, carry] = c.nl.add_fa(a, b, s);
        nets.push_back(sum);
        nets.push_back(carry);
        break;
      }
      case hw::CellType::kCount: break;
    }
  }
  for (int i = 0; i < 12; ++i) {
    const nl::NetId n =
        nets[nets.size() - 1 - static_cast<std::size_t>(i) * 37];
    c.class_index.push_back(n);
    c.nl.mark_output(n, "y" + std::to_string(i));
  }
  return c;
}

std::vector<std::uint8_t> random_codes(std::size_t rows, int n_features,
                                       std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> codes(rows * static_cast<std::size_t>(n_features));
  for (auto& c : codes) c = static_cast<std::uint8_t>(rng() & 0xF);
  return codes;
}

/// A bespoke circuit from a random genome (the recipe netlist_opt_test and
/// rtl_roundtrip_test use).
core::ApproxMlp random_model(std::uint64_t seed, int input_bits = 4,
                             int n_classes = 3) {
  const pmlp::mlp::Topology topo{{5, 4, n_classes}};
  core::BitConfig bits;
  bits.input_bits = input_bits;
  core::ChromosomeCodec codec(topo, bits);
  std::mt19937_64 rng(seed);
  std::vector<int> genes(static_cast<std::size_t>(codec.n_genes()));
  for (int g = 0; g < codec.n_genes(); ++g) {
    const auto b = codec.bounds(g);
    genes[static_cast<std::size_t>(g)] =
        b.lo + static_cast<int>(rng() % static_cast<unsigned>(b.hi - b.lo + 1));
  }
  return codec.decode(genes);
}

/// The first random bespoke circuit, counting up from `seed`, whose
/// optimized netlist keeps at least 20 cells (some random genomes prune to
/// a constant).
nl::BespokeCircuit bespoke(std::uint64_t seed, bool optimized,
                           int input_bits = 4, int n_classes = 3) {
  for (;; ++seed) {
    auto c = nl::build_bespoke_mlp(
        random_model(seed, input_bits, n_classes).to_bespoke_desc("m"));
    auto opt = nl::optimize(c);
    if (opt.nl.gates().size() < 20) continue;
    return optimized ? std::move(opt) : std::move(c);
  }
}

/// Scalar per-net values of row `row` through the netlist simulator.
std::vector<char> scalar_nets(const nl::BespokeCircuit& c,
                              std::span<const std::uint8_t> codes,
                              std::size_t row) {
  std::vector<char> values(static_cast<std::size_t>(c.nl.n_nets()), 0);
  const std::size_t f = c.input_buses.size();
  for (std::size_t i = 0; i < f; ++i) {
    nl::drive_bus(values, c.input_buses[i], codes[row * f + i]);
  }
  c.nl.evaluate(values);
  return values;
}

/// Scalar per-net values of row `row` through the emitted assigns.
std::vector<char> scalar_assigns(const nl::BespokeCircuit& c,
                                 const nl::EmittedModule& m,
                                 std::span<const std::uint8_t> codes,
                                 std::size_t row) {
  std::vector<char> values(static_cast<std::size_t>(c.nl.n_nets()), 0);
  values[1] = 1;
  const std::size_t f = c.input_buses.size();
  for (std::size_t i = 0; i < f; ++i) {
    nl::drive_bus(values, c.input_buses[i], codes[row * f + i]);
  }
  for (const auto& ax : m.assigns()) ax.eval(values);
  return values;
}

bool lane(std::uint64_t word, std::size_t l) { return ((word >> l) & 1u) != 0; }

/// Empty when equal, else the first differing offset with a little of
/// each text around it (testbenches run to megabytes).
/// One vector as a testbench applies it: the value driven onto each
/// input port and the class the DUT must answer.
struct Applied {
  std::map<std::string, int> drives;
  long expected = -1;
  bool operator==(const Applied&) const = default;
};

/// The vectors the per-vector oracle text applies: each `<port> = 1'bB;`
/// line drives a port, and the `'d<class>)` of each compare ends a vector.
std::vector<Applied> oracle_sequence(const std::string& text) {
  std::vector<Applied> out;
  Applied cur;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    const auto drive = line.find(" = 1'b");
    if (line.rfind("    ", 0) == 0 && drive != std::string::npos) {
      cur.drives[line.substr(4, drive - 4)] = line[drive + 6] - '0';
    } else if (const auto cmp = line.find("} !== ");
               cmp != std::string::npos) {
      cur.expected = std::stol(line.substr(line.find("'d", cmp) + 2));
      out.push_back(std::move(cur));
      cur = {};
    }
  }
  return out;
}

/// The vectors a stimulus-as-data testbench applies: the concatenation
/// `{...} = stim[v];` is read from the testbench text itself, and every
/// line of the hex file is decoded through it (pad bits must be 0).
std::vector<Applied> hex_sequence(const std::string& tb,
                                  const std::string& hex) {
  const auto end = tb.find("} = stim[v];");
  const auto begin = tb.rfind('{', end);
  EXPECT_NE(end, std::string::npos);
  std::vector<std::string> items;
  std::istringstream list(tb.substr(begin + 1, end - begin - 1));
  for (std::string item; std::getline(list, item, ',');) {
    const auto first = item.find_first_not_of(" \n");
    const auto last = item.find_last_not_of(" \n");
    items.push_back(item.substr(first, last - first + 1));
  }
  const auto exp_decl = tb.find("] expected;");
  EXPECT_NE(exp_decl, std::string::npos);
  const int class_bits =
      std::stoi(tb.substr(tb.rfind('[', exp_decl) + 1)) + 1;

  std::vector<Applied> out;
  std::istringstream is(hex);
  std::string line;
  while (std::getline(is, line)) {
    std::vector<int> bits;  // MSB first
    for (char c : line) {
      if (c == '_') continue;
      const int v = std::stoi(std::string(1, c), nullptr, 16);
      for (int b = 3; b >= 0; --b) bits.push_back((v >> b) & 1);
    }
    Applied cur;
    std::size_t at = 0;
    for (const auto& item : items) {
      if (item == "expected") {
        cur.expected = 0;
        for (int b = 0; b < class_bits; ++b) {
          cur.expected = cur.expected * 2 + bits.at(at++);
        }
      } else if (item.rfind("pad[", 0) == 0) {
        EXPECT_EQ(bits.at(at++), 0) << "pad bit " << item;
      } else {
        cur.drives[item] = bits.at(at++);
      }
    }
    EXPECT_EQ(at, bits.size()) << "hex word wider than the concatenation";
    out.push_back(std::move(cur));
  }
  return out;
}

}  // namespace

// ------------------------------------------------------------- netlist

TEST(NetlistPacked, RandomNetlistUsesEveryCellType) {
  const auto c = random_netlist(1);
  const auto hist = c.nl.cell_histogram();
  for (std::size_t t = 0; t < hw::kNumCellTypes; ++t) {
    EXPECT_GT(hist[t], 0)
        << hw::cell_name(static_cast<hw::CellType>(t));
  }
}

class PackedVectorCounts : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PackedVectorCounts, EvaluatePackedMatchesScalarOnEveryNet) {
  const std::size_t n = GetParam();
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto c = random_netlist(seed);
    const auto codes = random_codes(n, kFeatures, seed * 7 + n);
    std::vector<std::uint64_t> words(static_cast<std::size_t>(c.nl.n_nets()));
    for (std::size_t first = 0; first < n; first += 64) {
      const std::size_t lanes = std::min<std::size_t>(64, n - first);
      c.drive_block(codes, first, lanes, words);
      c.nl.evaluate_packed(words);
      for (std::size_t l = 0; l < lanes; ++l) {
        const auto values = scalar_nets(c, codes, first + l);
        for (std::size_t net = 0; net < values.size(); ++net) {
          ASSERT_EQ(lane(words[net], l), values[net] != 0)
              << "seed " << seed << " vector " << first + l << " net " << net;
        }
      }
    }
  }
}

TEST_P(PackedVectorCounts, PredictBatchMatchesPredict) {
  const std::size_t n = GetParam();
  for (std::uint64_t seed : {4u, 5u}) {
    const auto c = random_netlist(seed);
    const auto codes = random_codes(n, kFeatures, seed + n);
    const auto batch = c.predict_batch(codes, n);
    ASSERT_EQ(batch.size(), n);
    for (std::size_t v = 0; v < n; ++v) {
      ASSERT_EQ(batch[v], c.predict(std::span(codes).subspan(
                              v * kFeatures, kFeatures)))
          << "seed " << seed << " vector " << v;
    }
  }
}

TEST_P(PackedVectorCounts, EmittedEvalPackedMatchesScalarOnEveryNet) {
  const std::size_t n = GetParam();
  const auto c = random_netlist(6);
  const nl::EmittedModule m(c.nl, "rand");
  const auto codes = random_codes(n, kFeatures, 11 + n);
  std::vector<std::uint64_t> words(static_cast<std::size_t>(c.nl.n_nets()));
  for (std::size_t first = 0; first < n; first += 64) {
    const std::size_t lanes = std::min<std::size_t>(64, n - first);
    c.drive_block(codes, first, lanes, words);
    m.eval_packed(words);
    for (std::size_t l = 0; l < lanes; ++l) {
      const auto values = scalar_assigns(c, m, codes, first + l);
      for (std::size_t net = 0; net < values.size(); ++net) {
        ASSERT_EQ(lane(words[net], l), values[net] != 0)
            << "vector " << first + l << " net " << net;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Tails, PackedVectorCounts,
                         ::testing::Values(1u, 63u, 64u, 65u, 2112u));

TEST(NetlistPacked, PredictBatchReadsOnlyTheFirstRows) {
  const auto c = random_netlist(8);
  const auto codes = random_codes(100, kFeatures, 8);
  const auto all = c.predict_batch(codes, 100);
  const auto head = c.predict_batch(codes, 70);
  EXPECT_EQ(std::vector<int>(all.begin(), all.begin() + 70), head);
  EXPECT_TRUE(c.predict_batch(codes, 0).empty());
  EXPECT_THROW((void)c.predict_batch(codes, 101), std::invalid_argument);
}

TEST(NetlistPacked, RejectsBadBlocks) {
  const auto c = random_netlist(9);
  const auto codes = random_codes(100, kFeatures, 9);
  std::vector<std::uint64_t> short_words(
      static_cast<std::size_t>(c.nl.n_nets()) - 1);
  EXPECT_THROW(c.nl.evaluate_packed(short_words), std::invalid_argument);
  EXPECT_THROW(c.drive_block(codes, 0, 64, short_words),
               std::invalid_argument);
  const nl::EmittedModule m(c.nl, "rand");
  EXPECT_THROW(m.eval_packed(short_words), std::invalid_argument);

  std::vector<std::uint64_t> words(static_cast<std::size_t>(c.nl.n_nets()));
  EXPECT_THROW(c.drive_block(codes, 0, 65, words), std::invalid_argument);
  EXPECT_THROW(c.drive_block(codes, 64, 37, words), std::invalid_argument);
  EXPECT_NO_THROW(c.drive_block(codes, 64, 36, words));
  std::array<int, 65> lanes{};
  EXPECT_THROW(nl::read_bus_lanes(words, c.class_index, lanes),
               std::invalid_argument);
}

// ------------------------------------------------------------- bespoke

class PackedBespoke
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(PackedBespoke, PredictBatchMatchesPredict) {
  const auto [seed, optimized] = GetParam();
  const auto c = bespoke(seed, optimized);
  const std::size_t n = 200;
  const auto codes = random_codes(n, 5, seed);
  const auto batch = c.predict_batch(codes, n);
  for (std::size_t v = 0; v < n; ++v) {
    ASSERT_EQ(batch[v], c.predict(std::span(codes).subspan(v * 5, 5)))
        << "vector " << v;
  }
}

TEST_P(PackedBespoke, CrossCheckPackedCountsMatchScalarUnderPerturbation) {
  const auto [seed, optimized] = GetParam();
  const auto c = bespoke(seed, optimized);
  const nl::EmittedModule m(c.nl, "m");
  const std::size_t lanes = 64;
  const auto codes = random_codes(lanes, 5, seed + 100);

  std::vector<std::uint64_t> golden(static_cast<std::size_t>(c.nl.n_nets()));
  c.drive_block(codes, 0, lanes, golden);
  auto ours = golden;
  c.nl.evaluate_packed(golden);
  m.eval_packed(ours);
  std::vector<std::vector<char>> scalar_golden, scalar_ours;
  for (std::size_t l = 0; l < lanes; ++l) {
    scalar_golden.push_back(scalar_nets(c, codes, l));
    scalar_ours.push_back(scalar_assigns(c, m, codes, l));
  }
  const auto clean = m.cross_check_packed(ours, golden);
  for (std::size_t l = 0; l < lanes; ++l) ASSERT_EQ(clean[l], 0) << l;

  // Flip gate-output bits of one implementation or the other, in the
  // packed words and in the matching lane's scalar values alike.
  std::vector<nl::NetId> outs;
  for (const auto& g : c.nl.gates()) {
    for (nl::NetId o : g.out) {
      if (o >= 0) outs.push_back(o);
    }
  }
  ASSERT_FALSE(outs.empty());
  std::mt19937_64 rng(seed);
  for (int i = 0; i < 150; ++i) {
    const auto net = static_cast<std::size_t>(outs[rng() % outs.size()]);
    const std::size_t l = rng() % lanes;
    const bool netlist_side = (rng() & 1u) != 0;
    auto& words = netlist_side ? golden : ours;
    auto& values = netlist_side ? scalar_golden[l] : scalar_ours[l];
    words[net] ^= std::uint64_t{1} << l;
    values[net] = values[net] != 0 ? 0 : 1;
  }
  const auto counts = m.cross_check_packed(ours, golden);
  int total = 0;
  for (std::size_t l = 0; l < lanes; ++l) {
    EXPECT_EQ(counts[l], m.cross_check(scalar_ours[l], scalar_golden[l]))
        << "lane " << l;
    total += counts[l];
  }
  EXPECT_GT(total, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PackedBespoke,
    ::testing::Combine(::testing::Values(21u, 22u, 23u, 24u),
                       ::testing::Bool()));

// ----------------------------------------------------------- testbench

TEST(TestbenchStream, AppliesOracleVectorSequence) {
  // Input widths 1..8 bits (padded fields and whole-digit ones) and class
  // buses of 1..4 bits, at vector counts around the 64-lane word and at a
  // sign-off point's 2112.
  for (const int input_bits : {1, 3, 4, 8}) {
    for (const int n_classes : {2, 3, 5, 9}) {
      const auto c = bespoke(31, true, input_bits, n_classes);
      const std::size_t class_bits = c.class_index.size();
      ASSERT_EQ(class_bits, static_cast<std::size_t>(
                                std::bit_width(unsigned(n_classes - 1))));
      // Recorded rows (wider than input_bits: the bus takes the low bits)
      // followed by LFSR stimulus, as export_rtl builds it.
      auto codes = random_codes(8, 5, 77);
      const auto random = core::lfsr_stimulus(2112, 5, input_bits, 1);
      codes.insert(codes.end(), random.begin(), random.end());
      const auto expected = c.predict_batch(codes, codes.size() / 5);
      for (const int n : {1, 63, 64, 65, 2112}) {
        nl::TestbenchOptions opts;
        opts.dut_name = "m_p0";
        opts.max_vectors = n;
        std::ostringstream tb, hex, oracle;
        nl::emit_testbench(c, 5, codes, expected, opts, tb, hex);
        pmlp::oracles::emit_testbench_naive(c, 5, codes, opts, oracle);
        const auto ours = hex_sequence(tb.str(), hex.str());
        const auto want = oracle_sequence(oracle.str());
        SCOPED_TRACE("input_bits " + std::to_string(input_bits) +
                     " class_bits " + std::to_string(class_bits) +
                     " vectors " + std::to_string(n));
        ASSERT_EQ(want.size(), static_cast<std::size_t>(n));
        ASSERT_EQ(ours.size(), want.size());
        for (std::size_t v = 0; v < want.size(); ++v) {
          ASSERT_EQ(ours[v].drives, want[v].drives) << "vector " << v;
          ASSERT_EQ(ours[v].expected, want[v].expected) << "vector " << v;
        }
        const std::string t = tb.str();
        const std::string ns = std::to_string(n);
        EXPECT_NE(t.find("$readmemh(\"m_p0_tb.hex\", stim);"),
                  std::string::npos);
        EXPECT_NE(t.find(" stim [0:" + std::to_string(n - 1) + "];"),
                  std::string::npos);
        EXPECT_NE(t.find("v < " + ns + ";"), std::string::npos);
        EXPECT_NE(t.find("TESTBENCH PASS (" + ns + " vectors)"),
                  std::string::npos);
      }
    }
  }
}

TEST(TestbenchStream, TestbenchSizeIsFixedApartFromVectorCount) {
  // The stimulus is all in the hex file: the testbench grows only by the
  // digits of its three literals (array bound N-1, loop bound N, PASS N).
  const auto c = bespoke(33, true);
  const auto codes = core::lfsr_stimulus(2112, 5, 4, 3);
  const auto expected = c.predict_batch(codes, 2112);
  auto tb_bytes = [&](int n) {
    nl::TestbenchOptions opts;
    opts.max_vectors = n;
    std::ostringstream tb, hex;
    nl::emit_testbench(c, 5, codes, expected, opts, tb, hex);
    return static_cast<long>(tb.str().size());
  };
  auto digits = [](int v) {
    return static_cast<long>(std::to_string(v).size());
  };
  const long one = tb_bytes(1);
  for (const int n : {63, 64, 65, 2112}) {
    EXPECT_EQ(tb_bytes(n) - one,
              (digits(n - 1) - 1) + 2 * (digits(n) - 1))
        << n << " vectors";
  }
}

TEST(TestbenchStream, LargeBenchSpansManyChunks) {
  // 8192 vectors of a 5-feature circuit is 96 KiB of hex: the writer hands
  // it over in three chunks and the sequence is still the oracle's.
  const auto c = bespoke(32, true);
  const auto codes = core::lfsr_stimulus(8192, 5, 4, 9);
  const auto expected = c.predict_batch(codes, 8192);
  nl::TestbenchOptions opts;
  opts.max_vectors = 8192;
  opts.clock_period_ns = 1000.0;
  std::ostringstream tb, hex, oracle;
  nl::emit_testbench(c, 5, codes, expected, opts, tb, hex);
  pmlp::oracles::emit_testbench_naive(c, 5, codes, opts, oracle);
  EXPECT_GE(hex.str().size(), std::size_t{96} << 10);
  EXPECT_LT(tb.str().size(), std::size_t{4} << 10);
  EXPECT_TRUE(hex_sequence(tb.str(), hex.str()) ==
              oracle_sequence(oracle.str()));
}

TEST(TestbenchStream, RejectsExpectedClassesThatDoNotFit) {
  const auto c = bespoke(34, true);
  const auto codes = core::lfsr_stimulus(4, 5, 4, 5);
  auto expected = c.predict_batch(codes, 4);
  nl::TestbenchOptions opts;
  std::ostringstream tb, hex;
  // One class per row, no fewer...
  EXPECT_THROW(nl::emit_testbench(c, 5, codes, std::span(expected).first(3),
                                  opts, tb, hex),
               std::invalid_argument);
  // ...and each within the class-index bus.
  expected[2] = 1 << c.class_index.size();
  EXPECT_THROW(nl::emit_testbench(c, 5, codes, expected, opts, tb, hex),
               std::invalid_argument);
  expected[2] = -1;
  EXPECT_THROW(nl::emit_testbench(c, 5, codes, expected, opts, tb, hex),
               std::invalid_argument);
  EXPECT_TRUE(tb.str().empty());
  EXPECT_TRUE(hex.str().empty());
}
