// Tests for the adder-architecture ablation (variants.hpp).
#include <gtest/gtest.h>

#include <random>

#include "pmlp/adder/variants.hpp"

namespace adder = pmlp::adder;

namespace {

adder::NeuronAdderSpec wide_neuron(int n_summands, std::uint32_t mask = 0xF) {
  adder::NeuronAdderSpec n;
  for (int i = 0; i < n_summands; ++i) {
    n.summands.push_back({mask, 4, i % 3, i % 2 == 0 ? +1 : -1});
  }
  n.bias = 21;
  return n;
}

}  // namespace

TEST(Variants, FaOnlyMatchesPaperModel) {
  const auto spec = wide_neuron(6);
  const auto v = adder::fa_only_cost(spec);
  const auto model = adder::estimate_adder(spec);
  EXPECT_EQ(v.full_adders, model.total_fa());
  EXPECT_EQ(v.half_adders, 0);
}

TEST(Variants, RippleUsesOneCpaPerOperand) {
  adder::NeuronAdderSpec spec;
  spec.summands.push_back({0xF, 4, 0, +1});
  spec.summands.push_back({0xF, 4, 0, +1});
  spec.bias = 0;
  const auto v = adder::ripple_accumulate_cost(spec);
  // Two operands, no constant: one CPA (first operand is wiring).
  EXPECT_EQ(v.stages, 1);
  EXPECT_EQ(v.half_adders, 1);
  EXPECT_GT(v.full_adders, 0);
}

TEST(Variants, CsaBeatsRippleForWideFanIn) {
  // The reason bespoke neurons use CSA trees: for many operands the
  // sequential ripple accumulation pays a full CPA per summand.
  const auto spec = wide_neuron(12);
  const auto csa = adder::csa_with_ha_cost(spec);
  const auto ripple = adder::ripple_accumulate_cost(spec);
  EXPECT_LT(csa.ha_equivalents(), ripple.ha_equivalents());
}

TEST(Variants, HaVariantNeverWorseThanFaOnlyInCells) {
  // Allowing HAs can only reduce the number of (more expensive) FAs the
  // reduction needs; in HA-equivalents the Wallace-style variant should
  // not be dramatically worse across random neurons.
  std::mt19937 rng(9);
  for (int trial = 0; trial < 30; ++trial) {
    adder::NeuronAdderSpec spec;
    const int n = 3 + static_cast<int>(rng() % 8);
    for (int i = 0; i < n; ++i) {
      spec.summands.push_back({static_cast<std::uint32_t>(rng() & 0xFu), 4,
                               static_cast<int>(rng() % 5),
                               (rng() & 1) ? +1 : -1});
    }
    spec.bias = static_cast<int>(rng() % 64) - 32;
    const auto fa_only = adder::fa_only_cost(spec);
    const auto with_ha = adder::csa_with_ha_cost(spec);
    // The FA count of the HA variant is bounded by the FA-only count.
    EXPECT_LE(with_ha.full_adders, fa_only.full_adders + 2) << trial;
  }
}

TEST(Variants, EmptyNeuronIsFree) {
  adder::NeuronAdderSpec spec;
  spec.bias = 0;
  EXPECT_EQ(adder::ripple_accumulate_cost(spec).ha_equivalents(), 0.0);
  EXPECT_EQ(adder::csa_with_ha_cost(spec).ha_equivalents(), 0.0);
  EXPECT_EQ(adder::fa_only_cost(spec).ha_equivalents(), 0.0);
}

class VariantsSweep : public ::testing::TestWithParam<int> {};

TEST_P(VariantsSweep, CostsGrowWithFanIn) {
  const int n = GetParam();
  const auto small = wide_neuron(n);
  const auto big = wide_neuron(n + 4);
  EXPECT_LE(adder::fa_only_cost(small).ha_equivalents(),
            adder::fa_only_cost(big).ha_equivalents());
  EXPECT_LE(adder::csa_with_ha_cost(small).ha_equivalents(),
            adder::csa_with_ha_cost(big).ha_equivalents());
  EXPECT_LE(adder::ripple_accumulate_cost(small).ha_equivalents(),
            adder::ripple_accumulate_cost(big).ha_equivalents());
}

INSTANTIATE_TEST_SUITE_P(FanIns, VariantsSweep,
                         ::testing::Values(2, 4, 6, 8, 12));
