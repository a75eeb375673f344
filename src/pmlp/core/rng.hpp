// The GA's random engine: MT19937-64 (Matsumoto & Nishimura, 2000) that
// twists and tempers its whole 312-word state a block at a time, and
// std::bernoulli_distribution as one raw draw against an exact threshold.
//
// Rng is a drop-in for std::mt19937_64: the same seeding, the same output
// stream and the same `<<`/`>>` text (the 312 untempered state words and the
// read position), so a checkpoint written by either engine resumes on the
// other. Any standard distribution or algorithm (std::shuffle,
// uniform_int_distribution, ...) therefore returns the same values on both.
// The difference is cost: libstdc++ tempers one word per call and twists
// the state in an out-of-line call, while Rng twists and tempers the whole
// block into a buffer in branchless loops the compiler vectorizes, so a
// call is an index check and a load. Portable C++, no ISA dispatch.
//
// BernoulliTrial(p) is std::bernoulli_distribution(p) on a 64-bit engine
// with the floating point taken out: the distribution maps one raw 64-bit
// draw x to a double u in [0, 1) (generate_canonical) and returns u < p,
// which is monotone in x, so the trial is exactly `x < T` for one
// threshold T. The constructor finds T
// by bisecting std::bernoulli_distribution itself on a fixed-output engine,
// so T inherits the library's rounding instead of restating it. A trial
// consumes exactly one draw, as the distribution does, even when p is 0 or
// 1 — the stream never depends on the probability.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <random>

namespace pmlp::core {

class Rng {
 public:
  using result_type = std::uint_fast64_t;  ///< std::mt19937_64's type
  static constexpr result_type default_seed = 5489u;

  Rng() : Rng(default_seed) {}
  explicit Rng(result_type value) { seed(value); }

  /// std::mt19937_64::seed(value): the state is filled and the first call
  /// twists.
  void seed(result_type value) {
    x_[0] = value;
    for (std::size_t i = 1; i < kN; ++i) {
      const std::uint64_t prev = x_[i - 1];
      x_[i] = kF * (prev ^ (prev >> 62)) + i;
    }
    p_ = kN;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (p_ >= kN) refill();
    return out_[p_++];
  }

  /// The std::mt19937_64 text: each state word and a space, then the read
  /// position, in decimal.
  friend std::ostream& operator<<(std::ostream& os, const Rng& rng) {
    const auto flags = os.flags();
    const auto fill = os.fill();
    os.flags(std::ios_base::dec | std::ios_base::fixed | std::ios_base::left);
    os.fill(os.widen(' '));
    for (const std::uint64_t word : rng.x_) os << word << os.widen(' ');
    os << rng.p_;
    os.flags(flags);
    os.fill(fill);
    return os;
  }

  /// Reads what operator<< (either engine's) wrote and continues its stream.
  friend std::istream& operator>>(std::istream& is, Rng& rng) {
    const auto flags = is.flags();
    is.flags(std::ios_base::dec | std::ios_base::skipws);
    for (std::uint64_t& word : rng.x_) is >> word;
    is >> rng.p_;
    is.flags(flags);
    rng.temper();
    return is;
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ull;
  static constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
  static constexpr std::uint64_t kLower = ~kUpper;
  static constexpr std::uint64_t kF = 6364136223846793005ull;

  static std::uint64_t twist(std::uint64_t hi, std::uint64_t lo,
                             std::uint64_t far) {
    const std::uint64_t y = (hi & kUpper) | (lo & kLower);
    return far ^ (y >> 1) ^ ((std::uint64_t{0} - (y & 1u)) & kMatrixA);
  }

  /// std's _M_gen_rand without its branch: words [0, n-m) read words not
  /// yet twisted, [n-m, n-1) read ones twisted by the first loop, so each
  /// loop is free of carried dependences.
  void refill() {
    for (std::size_t k = 0; k < kN - kM; ++k) {
      x_[k] = twist(x_[k], x_[k + 1], x_[k + kM]);
    }
    for (std::size_t k = kN - kM; k < kN - 1; ++k) {
      x_[k] = twist(x_[k], x_[k + 1], x_[k + kM - kN]);
    }
    x_[kN - 1] = twist(x_[kN - 1], x_[0], x_[kM - 1]);
    temper();
    p_ = 0;
  }

  void temper() {
    for (std::size_t k = 0; k < kN; ++k) {
      std::uint64_t z = x_[k];
      z ^= (z >> 29) & 0x5555555555555555ull;
      z ^= (z << 17) & 0x71d67fffeda60000ull;
      z ^= (z << 37) & 0xfff7eee000000000ull;
      z ^= z >> 43;
      out_[k] = z;
    }
  }

  std::array<std::uint64_t, kN> x_{};    ///< std's state words (untempered)
  std::array<std::uint64_t, kN> out_{};  ///< x_ tempered: the next outputs
  std::size_t p_ = kN;                   ///< next output index; kN = twist
};

/// std::bernoulli_distribution(p) as one raw draw compared with an exact
/// uint64 threshold (see the file comment). p must lie in [0, 1].
class BernoulliTrial {
 public:
  explicit BernoulliTrial(double p) {
    std::bernoulli_distribution dist(p);
    const auto trial = [&dist](std::uint64_t x) {
      Fixed engine{x};
      return dist(engine);
    };
    if (trial(~std::uint64_t{0})) {
      always_ = true;  // p >= 1: every draw succeeds
      return;
    }
    // trial(x) holds exactly for x < threshold_: the smallest failing x.
    if (!trial(0)) return;  // threshold_ = 0: never
    std::uint64_t lo = 0;                  // trial(lo) holds
    std::uint64_t hi = ~std::uint64_t{0};  // trial(hi) fails
    while (hi - lo > 1) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (trial(mid)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    threshold_ = hi;
  }

  /// The outcome std::bernoulli_distribution(p) gives for raw draw `x`.
  [[nodiscard]] bool test(std::uint64_t x) const {
    return (x < threshold_) | always_;
  }
  [[nodiscard]] bool operator()(Rng& rng) const { return test(rng()); }

  /// Draws below this succeed (meaningless when always()).
  [[nodiscard]] std::uint64_t threshold() const { return threshold_; }
  [[nodiscard]] bool always() const { return always_; }

 private:
  /// A 64-bit engine that returns one chosen value.
  struct Fixed {
    using result_type = std::uint_fast64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type value;
    result_type operator()() const { return value; }
  };

  std::uint64_t threshold_ = 0;
  bool always_ = false;
};

}  // namespace pmlp::core
