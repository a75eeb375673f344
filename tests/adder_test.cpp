#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <stdexcept>
#include <vector>

#include "adder_oracle.hpp"
#include "pmlp/adder/fa_model.hpp"
#include "pmlp/adder/summand.hpp"
#include "pmlp/bitops/bitops.hpp"

namespace adder = pmlp::adder;
namespace bitops = pmlp::bitops;

// ---------------------------------------------------------------- Summand

TEST(Summand, MaxValueIsMaskShifted) {
  adder::SummandSpec s{0b1011, 4, 2, +1};
  EXPECT_EQ(s.max_value(), std::int64_t{0b1011} << 2);
  EXPECT_EQ(s.occupancy(), std::uint64_t{0b1011} << 2);
  EXPECT_EQ(s.wire_count(), 3);
  EXPECT_FALSE(s.is_pruned());
}

TEST(Summand, MaskTruncatedToInputWidth) {
  adder::SummandSpec s{0xFF, 4, 0, +1};
  EXPECT_EQ(s.effective_mask(), 0xFu);
  EXPECT_EQ(s.wire_count(), 4);
}

TEST(Summand, ZeroMaskIsPruned) {
  adder::SummandSpec s{0, 4, 3, -1};
  EXPECT_TRUE(s.is_pruned());
  EXPECT_EQ(s.max_value(), 0);
  EXPECT_EQ(s.wire_count(), 0);
}

// ---------------------------------------------------------- analyze_neuron

TEST(AnalyzeNeuron, PositiveOnlyRange) {
  adder::NeuronAdderSpec n;
  n.summands.push_back({0xF, 4, 0, +1});  // max 15
  n.summands.push_back({0xF, 4, 2, +1});  // max 60
  n.bias = 5;
  const auto st = adder::analyze_neuron(n);
  EXPECT_EQ(st.max_sum, 80);
  EXPECT_EQ(st.min_sum, 5);
  EXPECT_GE(st.acc_width, bitops::bit_width_signed(80));
  EXPECT_EQ(st.folded_constant, bitops::to_twos_complement(5, st.acc_width));
}

TEST(AnalyzeNeuron, NegativeSummandFoldsConstants) {
  adder::NeuronAdderSpec n;
  n.summands.push_back({0xF, 4, 0, -1});
  n.bias = 0;
  const auto st = adder::analyze_neuron(n);
  EXPECT_EQ(st.min_sum, -15);
  EXPECT_EQ(st.max_sum, 0);
  const int W = st.acc_width;
  // Constant = ~occupancy ones + 1 (mod 2^W): with occupancy 0b1111,
  // ~occ over W bits = (2^W - 16), +1.
  const std::uint64_t expect =
      ((~std::uint64_t{0xF}) & bitops::low_mask(W)) + 1;
  EXPECT_EQ(st.folded_constant, expect & bitops::low_mask(W));
}

TEST(AnalyzeNeuron, FoldedConstantMakesNegationExact) {
  // Functional check: for every input x, sum of (variable bits of -x) plus
  // folded constant equals -x mod 2^W.
  adder::NeuronAdderSpec n;
  n.summands.push_back({0b1101, 4, 1, -1});
  n.bias = 3;
  const auto st = adder::analyze_neuron(n);
  const int W = st.acc_width;
  for (std::uint32_t x = 0; x < 16; ++x) {
    const std::uint64_t masked = (x & 0b1101u) << 1;
    // Variable bits contribution: inverted retained bits at their columns.
    std::uint64_t var = 0;
    for (int p : bitops::set_bit_positions(std::uint64_t{0b1101} << 1)) {
      if (!bitops::test_bit(masked, p)) var |= std::uint64_t{1} << p;
    }
    const std::uint64_t total = (var + st.folded_constant) & bitops::low_mask(W);
    const std::int64_t expect = 3 - static_cast<std::int64_t>(masked);
    EXPECT_EQ(bitops::from_twos_complement(total, W), expect) << "x=" << x;
  }
}

TEST(AnalyzeNeuron, VariableHeightsCountWires) {
  adder::NeuronAdderSpec n;
  n.summands.push_back({0xF, 4, 0, +1});
  n.summands.push_back({0xF, 4, 0, +1});
  n.summands.push_back({0b0101, 4, 1, -1});
  n.bias = 0;
  const auto st = adder::analyze_neuron(n);
  const int total_wires =
      std::accumulate(st.variable_heights.begin(), st.variable_heights.end(), 0);
  EXPECT_EQ(total_wires, 4 + 4 + 2);
  // Column 0: two bits (from the two full 4-bit summands).
  EXPECT_EQ(st.variable_heights[0], 2);
  // Column 1: two full summands + negative summand's bit 0 shifted by 1.
  EXPECT_EQ(st.variable_heights[1], 3);
}

// ------------------------------------------------------------ reduce_columns

TEST(ReduceColumns, TwoRowsNeedNoReduction) {
  std::vector<int> h{2, 2, 2};
  const auto cost = adder::reduce_columns(h);
  EXPECT_EQ(cost.fa_reduction, 0);
  EXPECT_EQ(cost.stages, 0);
  // CPA spans from the first 2-high column to the top.
  EXPECT_EQ(cost.fa_cpa, 3);
}

TEST(ReduceColumns, SingleRowIsFree) {
  std::vector<int> h{1, 1, 0, 1};
  EXPECT_EQ(adder::reduce_columns(h).total_fa(), 0);
}

TEST(ReduceColumns, ThreeBitsOneFa) {
  std::vector<int> h{3};
  const auto cost = adder::reduce_columns(h);
  EXPECT_EQ(cost.fa_reduction, 1);
  EXPECT_EQ(cost.stages, 1);
  // After reduction: col0 has 1 bit, carry dropped beyond MSB -> no CPA.
  EXPECT_EQ(cost.fa_cpa, 0);
  EXPECT_EQ(h[0], 1);
}

TEST(ReduceColumns, KnownSmallCase) {
  // Heights {3,3}: stage 1 -> col0: 1 FA leaves 1, carries to col1.
  // col1: 1 FA leaves 1 + carry_in 1 = 2. Final: col0=1,col1=2 -> CPA 1 FA.
  std::vector<int> h{3, 3};
  const auto cost = adder::reduce_columns(h);
  EXPECT_EQ(cost.fa_reduction, 2);
  EXPECT_EQ(cost.stages, 1);
  EXPECT_EQ(cost.fa_cpa, 1);
  EXPECT_EQ(cost.total_fa(), 3);
  EXPECT_EQ(h, (std::vector<int>{1, 2}));
}

TEST(ReduceColumns, TerminatesOnTallColumns) {
  std::vector<int> h{30, 30, 30, 30};
  const auto cost = adder::reduce_columns(h);
  for (int v : h) EXPECT_LE(v, 2);
  EXPECT_GT(cost.stages, 1);
}

// 3:2 reduction conserves "value-weighted" bit count: each FA replaces
// 3 bits of weight 2^c by one of 2^c and one of 2^(c+1) (unless the carry
// falls off the MSB). Verify weighted conservation, mod 2^W, on the heights
// reduce_columns leaves in place.
TEST(ReduceColumns, WeightedBitConservation) {
  std::mt19937 rng(42);
  std::uniform_int_distribution<int> h(0, 9);
  auto weight = [](const std::vector<int>& hh) {
    std::uint64_t w = 0;
    for (std::size_t c = 0; c < hh.size(); ++c) {
      w += static_cast<std::uint64_t>(hh[c]) << c;
    }
    return w & bitops::low_mask(static_cast<int>(hh.size()));
  };
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<int> heights(6);
    for (auto& v : heights) v = h(rng);
    const std::uint64_t before = weight(heights);
    (void)adder::reduce_columns(heights);
    EXPECT_EQ(weight(heights), before) << "trial " << trial;
  }
}

TEST(ReduceColumns, MatchesOracleOnRandomHeights) {
  std::mt19937 rng(43);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<int> heights(1 + rng() % 24);
    for (auto& v : heights) v = static_cast<int>(rng() % 40);
    std::vector<int> oracle_final;
    const auto want = pmlp::oracles::reduce_columns_naive(heights,
                                                          &oracle_final);
    const auto got = adder::reduce_columns(heights);
    EXPECT_EQ(got.fa_reduction, want.fa_reduction) << "trial " << trial;
    EXPECT_EQ(got.fa_cpa, want.fa_cpa) << "trial " << trial;
    EXPECT_EQ(got.stages, want.stages) << "trial " << trial;
    EXPECT_EQ(heights, oracle_final) << "trial " << trial;
  }
}

// --------------------------------------------------------- estimate_adder

TEST(EstimateAdder, EmptyNeuronCostsNothing) {
  adder::NeuronAdderSpec n;
  n.bias = 0;
  const auto cost = adder::estimate_adder(n);
  EXPECT_EQ(cost.total_fa(), 0);
}

TEST(EstimateAdder, MaskingBitsNeverIncreasesArea) {
  // Property (the paper's core premise): clearing mask bits can only
  // remove adder hardware.
  adder::NeuronAdderSpec full;
  for (int i = 0; i < 6; ++i) full.summands.push_back({0xF, 4, i % 3, +1});
  full.bias = 17;
  const int full_fa = adder::estimate_adder(full).total_fa();

  std::mt19937 rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    adder::NeuronAdderSpec pruned = full;
    for (auto& s : pruned.summands) {
      s.mask &= static_cast<std::uint32_t>(rng());  // random submask
    }
    EXPECT_LE(adder::estimate_adder(pruned).total_fa(), full_fa);
  }
}

TEST(EstimateAdder, MonotoneInSummandCount) {
  adder::NeuronAdderSpec n;
  int prev = 0;
  for (int i = 0; i < 8; ++i) {
    n.summands.push_back({0xF, 4, 0, +1});
    const int fa = adder::estimate_adder(n).total_fa();
    EXPECT_GE(fa, prev);
    prev = fa;
  }
}

TEST(EstimateAdder, ZeroMaskEqualsAbsentSummand) {
  // Paper §III-B: a zero mask is hardware-equivalent to removing the
  // connection; no zero weight value is needed.
  adder::NeuronAdderSpec with_zero;
  with_zero.summands.push_back({0xF, 4, 1, +1});
  with_zero.summands.push_back({0, 4, 3, -1});  // fully masked
  with_zero.bias = 9;
  adder::NeuronAdderSpec without;
  without.summands.push_back({0xF, 4, 1, +1});
  without.bias = 9;
  EXPECT_EQ(adder::estimate_adder(with_zero).total_fa(),
            adder::estimate_adder(without).total_fa());
  EXPECT_EQ(adder::estimate_adder(with_zero).folded_constant,
            adder::estimate_adder(without).folded_constant);
}

namespace {

/// Every field of the cost the library and the oracle both report.
void expect_matches_oracle(const adder::NeuronAdderSpec& n, int trial) {
  const auto want = pmlp::oracles::estimate_adder_naive(n);
  const auto got = adder::estimate_adder(n);
  EXPECT_EQ(got.fa_reduction, want.fa_reduction) << "trial " << trial;
  EXPECT_EQ(got.fa_cpa, want.fa_cpa) << "trial " << trial;
  EXPECT_EQ(got.stages, want.stages) << "trial " << trial;
  EXPECT_EQ(got.acc_width, want.acc_width) << "trial " << trial;
  EXPECT_EQ(got.folded_constant, want.folded_constant) << "trial " << trial;
}

}  // namespace

TEST(EstimateAdder, MatchesOracleOnRandomNeurons) {
  // Random masks (fully pruned ones included), shifts 0-6, both signs and
  // biases in [-2000, 2000], from empty neurons to tall columns.
  std::mt19937 rng(41);
  for (int trial = 0; trial < 600; ++trial) {
    adder::NeuronAdderSpec n;
    const int n_summands = static_cast<int>(rng() % 40);
    for (int i = 0; i < n_summands; ++i) {
      adder::SummandSpec s;
      s.input_width = trial % 3 == 0 ? 8 : 4;
      s.mask = rng() % 4 == 0 ? 0 : static_cast<std::uint32_t>(rng() & 0xFF);
      s.shift = static_cast<int>(rng() % 7);
      s.sign = (rng() & 1) ? +1 : -1;
      n.summands.push_back(s);
    }
    n.bias = static_cast<std::int64_t>(rng() % 4001) - 2000;
    expect_matches_oracle(n, trial);
  }
}

TEST(EstimateAdder, MatchesOracleNearTheWidthLimit) {
  // A 32-bit activation with its top bit kept, shifted to bit 29, reaches
  // 2^60: W = 62, the widest accumulator the model accepts. Two negative
  // summands below it fill the lower columns.
  std::mt19937 rng(44);
  for (int trial = 0; trial < 50; ++trial) {
    adder::NeuronAdderSpec n;
    n.summands.push_back(adder::SummandSpec{
        static_cast<std::uint32_t>(rng()) | 0x80000000u, 32, 29, +1});
    for (int i = 0; i < 2; ++i) {
      n.summands.push_back(adder::SummandSpec{
          static_cast<std::uint32_t>(rng()), 32,
          static_cast<int>(rng() % 28), -1});
    }
    n.bias = static_cast<std::int64_t>(rng() % 4001) - 2000;
    EXPECT_EQ(adder::estimate_adder(n).acc_width, 62) << "trial " << trial;
    expect_matches_oracle(n, trial);
  }
  // One column more and both reject the neuron.
  adder::NeuronAdderSpec wide;
  wide.summands.push_back(adder::SummandSpec{0xFFFFFFFFu, 32, 30, +1});
  EXPECT_THROW((void)adder::estimate_adder(wide), std::invalid_argument);
  EXPECT_THROW((void)pmlp::oracles::estimate_adder_naive(wide),
               std::invalid_argument);
}

// Property sweep: FA count grows (weakly) with the number of mask bits.
class EstimateAdderMaskSweep : public ::testing::TestWithParam<int> {};

TEST_P(EstimateAdderMaskSweep, MoreMaskBitsMoreArea) {
  const int n_summands = GetParam();
  long prev = -1;
  for (int bits = 0; bits <= 4; ++bits) {
    const auto mask =
        static_cast<std::uint32_t>(bitops::low_mask(bits));
    adder::NeuronAdderSpec n;
    for (int i = 0; i < n_summands; ++i) {
      n.summands.push_back({mask, 4, 0, i % 2 == 0 ? +1 : -1});
    }
    const long fa = adder::estimate_adder(n).total_fa();
    EXPECT_GE(fa, prev) << "bits=" << bits;
    prev = fa;
  }
}

INSTANTIATE_TEST_SUITE_P(SummandCounts, EstimateAdderMaskSweep,
                         ::testing::Values(2, 3, 5, 8, 13));
