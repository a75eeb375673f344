// core::Rng against std::mt19937_64 (stream, text, standard distributions)
// and core::BernoulliTrial against std::bernoulli_distribution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "pmlp/core/rng.hpp"

namespace core = pmlp::core;

namespace {

constexpr std::uint64_t kSeeds[] = {0, 1, 5489, 0x9e3779b97f4a7c15ull,
                                    ~std::uint64_t{0}};
constexpr int kDraws[] = {0, 1, 311, 312, 313, 1000};

template <class Engine>
std::string text(const Engine& e) {
  std::ostringstream os;
  os << e;
  return os.str();
}

/// A 64-bit engine that returns one chosen value.
struct Fixed {
  using result_type = std::uint_fast64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type value;
  result_type operator()() const { return value; }
};

bool std_trial(double p, std::uint64_t x) {
  std::bernoulli_distribution dist(p);
  Fixed engine{x};
  return dist(engine);
}

}  // namespace

TEST(Rng, StreamEqualsStdMt19937AcrossRefills) {
  for (const std::uint64_t seed : kSeeds) {
    for (const int draws : kDraws) {
      std::mt19937_64 ref(seed);
      core::Rng rng(seed);
      for (int i = 0; i < draws; ++i) {
        ASSERT_EQ(rng(), ref()) << "seed " << seed << " draw " << i;
      }
      EXPECT_EQ(text(rng), text(ref)) << "seed " << seed << " after " << draws;
    }
  }
  std::mt19937_64 ref;
  core::Rng rng;
  for (int i = 0; i < 700; ++i) ASSERT_EQ(rng(), ref()) << "default seed";
  EXPECT_EQ(core::Rng::min(), std::mt19937_64::min());
  EXPECT_EQ(core::Rng::max(), std::mt19937_64::max());
}

TEST(Rng, TextIsStdTextAndCrossReadsContinueTheStream) {
  for (const std::uint64_t seed : kSeeds) {
    for (const int draws : kDraws) {
      std::mt19937_64 ref(seed);
      core::Rng rng(seed);
      for (int i = 0; i < draws; ++i) {
        (void)ref();
        (void)rng();
      }
      const std::string ref_text = text(ref);
      ASSERT_EQ(text(rng), ref_text);

      // std's text read into Rng, and Rng's text read into std.
      core::Rng from_std(99);
      std::istringstream in_std(ref_text);
      in_std >> from_std;
      ASSERT_TRUE(in_std) << "seed " << seed;
      std::mt19937_64 from_rng(99);
      std::istringstream in_rng(text(rng));
      in_rng >> from_rng;
      ASSERT_TRUE(in_rng);
      EXPECT_EQ(text(from_std), ref_text);
      for (int i = 0; i < 700; ++i) {
        const auto want = ref();
        ASSERT_EQ(from_std(), want) << "seed " << seed << " after " << draws;
        ASSERT_EQ(from_rng(), want);
        ASSERT_EQ(rng(), want);
      }
    }
  }
  // The stream operators leave the stream's own format alone.
  std::ostringstream os;
  os << std::hex << std::setfill('*') << core::Rng(3);
  EXPECT_EQ(os.flags() & std::ios_base::basefield, std::ios_base::hex);
  EXPECT_EQ(os.fill(), '*');
}

TEST(Rng, StdDistributionsAndShuffleGiveStdResults) {
  for (const std::uint64_t seed : kSeeds) {
    std::mt19937_64 ref(seed);
    core::Rng rng(seed);
    std::vector<int> a(1000), b(1000);
    std::iota(a.begin(), a.end(), 0);
    std::iota(b.begin(), b.end(), 0);
    std::shuffle(a.begin(), a.end(), ref);
    std::shuffle(b.begin(), b.end(), rng);
    EXPECT_EQ(a, b) << "seed " << seed;
    for (int i = 0; i < 2000; ++i) {
      std::uniform_int_distribution<std::size_t> pick(0, 119);
      std::uniform_int_distribution<int> wide(-1000000, 1000000);
      std::uniform_int_distribution<std::uint64_t> full;
      std::bernoulli_distribution coin(0.3);
      std::uniform_real_distribution<double> u01(0.0, 1.0);
      ASSERT_EQ(pick(rng), pick(ref));
      ASSERT_EQ(wide(rng), wide(ref));
      ASSERT_EQ(full(rng), full(ref));
      ASSERT_EQ(coin(rng), coin(ref));
      ASSERT_EQ(u01(rng), u01(ref));
    }
    EXPECT_EQ(text(rng), text(ref));
  }
}

TEST(BernoulliTrial, MatchesStdAtTheThresholdAndOverDraws) {
  const double probs[] = {0.0,
                          std::numeric_limits<double>::denorm_min(),
                          std::ldexp(1.0, -65),
                          std::ldexp(1.0, -64),
                          1.0 / 405.0,
                          0.2,
                          0.5,
                          0.7,
                          std::nextafter(1.0, 0.0),
                          1.0};
  for (const double p : probs) {
    SCOPED_TRACE(p);
    const core::BernoulliTrial trial(p);
    const std::uint64_t t = trial.threshold();
    if (trial.always()) {
      EXPECT_EQ(p, 1.0);
      EXPECT_TRUE(std_trial(p, 0));
      EXPECT_TRUE(std_trial(p, ~std::uint64_t{0}));
      EXPECT_TRUE(trial.test(~std::uint64_t{0}));
    } else {
      // The edge: T - 1 succeeds, T fails, in both.
      if (t > 0) {
        EXPECT_TRUE(std_trial(p, t - 1));
        EXPECT_TRUE(trial.test(t - 1));
      }
      EXPECT_FALSE(std_trial(p, t));
      EXPECT_FALSE(trial.test(t));
      EXPECT_EQ(t == 0, p == 0.0);
    }

    std::mt19937_64 ref(static_cast<std::uint64_t>(p * 1e6) + 17);
    core::Rng rng(static_cast<std::uint64_t>(p * 1e6) + 17);
    std::bernoulli_distribution dist(p);
    long hits = 0;
    for (int i = 0; i < 100000; ++i) {
      const bool want = dist(ref);
      ASSERT_EQ(trial(rng), want) << "draw " << i;
      hits += want ? 1 : 0;
    }
    EXPECT_EQ(text(rng), text(ref));  // one draw per trial
    if (p == 0.0) {
      EXPECT_EQ(hits, 0);
    }
    if (p == 1.0) {
      EXPECT_EQ(hits, 100000);
    }
  }
  // Tiny probabilities still succeed on the smallest draw only.
  EXPECT_EQ(core::BernoulliTrial(std::ldexp(1.0, -64)).threshold(), 1u);
  EXPECT_EQ(
      core::BernoulliTrial(std::numeric_limits<double>::denorm_min())
          .threshold(),
      1u);
}
