#include "pmlp/core/refine_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "pmlp/bitops/bitops.hpp"
#include "pmlp/core/eval_kernels.hpp"
#include "pmlp/core/simd.hpp"

namespace pmlp::core {
namespace {

constexpr auto kBlock = static_cast<std::size_t>(CompiledNet::kBlockSamples);

/// Copy `row` (one lane per sample) into neuron `o`'s planes of a
/// `width`-neuron layer stored in the block layout.
template <typename T>
void scatter_row(const std::vector<T>& row, int width, int o,
                 std::vector<T>& planes) {
  const std::size_t n = row.size();
  for (std::size_t base = 0; base < n; base += kBlock) {
    const std::size_t b = std::min(kBlock, n - base);
    std::copy_n(row.data() + base, b,
                planes.data() + base * static_cast<std::size_t>(width) +
                    static_cast<std::size_t>(o) * b);
  }
}

}  // namespace

RefineEngine::RefineEngine(ApproxMlp& net, const SamplePlanes& train)
    : net_(net),
      train_(train),
      n_samples_(train.size()),
      n_layers_(static_cast<int>(net.layers().size())),
      act_max_((std::int64_t{1} << net.bits().act_bits) - 1) {
  if (train.n_features() != net.topology().n_inputs()) {
    throw std::invalid_argument("RefineEngine: dataset/topology mismatch");
  }
  bool narrow = true;
  for (const ApproxLayer& layer : net.layers()) {
    layers_.push_back(compile_layer(layer));
    // The incoming shift may be stale; every shift refine itself derives
    // lies in [0, 30] once the bound below holds.
    narrow = narrow && layer.qrelu_shift >= 0 && layer.qrelu_shift <= 30;
  }
  // Refine only clears mask bits and moves biases within the BitConfig
  // range, so the layer_lanes() bound with every |bias| widened to
  // 2^(bias_bits-1) covers every state a trial can reach.
  const std::int64_t bias_bound =
      std::int64_t{1} << std::clamp(net.bits().bias_bits - 1, 0, 32);
  const std::vector<LaneType> lanes =
      layer_lanes(layers_, act_max_, bias_bound);
  if (narrow && std::all_of(lanes.begin(), lanes.end(), [](LaneType t) {
        return t != LaneType::kInt64;
      })) {
    memo_.emplace<Memo<std::int32_t>>();
  } else {
    memo_.emplace<Memo<std::int64_t>>();
  }

  std::visit(
      [&](auto& m) {
        const auto L = static_cast<std::size_t>(n_layers_);
        m.acc.resize(L);
        m.act.resize(L);
        m.next_acc.resize(L);
        m.next_act.resize(L);
        for (std::size_t l = 0; l < L; ++l) {
          const std::size_t lanes =
              n_samples_ * static_cast<std::size_t>(layers_[l].n_out);
          m.acc[l].resize(lanes);
          // Scratch accumulators of layer 0 are only written when layer 0
          // is also the output layer, which has no QReLU.
          if (l > 0 || !layers_[l].qrelu) m.next_acc[l].resize(lanes);
          if (layers_[l].qrelu) {
            m.act[l].resize(lanes);
            m.next_act[l].resize(lanes);
          }
        }
        m.row_acc.resize(n_samples_);
        m.row_act.resize(n_samples_);
        m.in0.resize(kBlock * static_cast<std::size_t>(train_.n_features()));
        rebuild(m);
      },
      memo_);
  accuracy_before_ = accuracy();

  // Sync every shift to the current parameters — what the naive loop's
  // first update_qrelu_shifts() call would do. Arriving with stale shifts
  // is legal (accuracy_before_ already captured the stale view).
  bool stale = false;
  for (int l = 0; l < n_layers_; ++l) {
    const int s = net_.compute_qrelu_shift(l);
    if (s != layers_[static_cast<std::size_t>(l)].qrelu_shift) {
      net_.layers()[static_cast<std::size_t>(l)].qrelu_shift = s;
      layers_[static_cast<std::size_t>(l)].qrelu_shift = s;
      stale = true;
    }
  }
  if (stale) std::visit([&](auto& m) { rebuild(m); }, memo_);
}

template <typename T>
const T* RefineEngine::Memo<T>::input(const SamplePlanes& planes,
                                      std::size_t base, int b, int first,
                                      int count) {
  const std::int16_t* rows =
      planes.block(base) + static_cast<std::size_t>(first) * b;
  std::copy_n(rows, static_cast<std::size_t>(count) * b, in0.data());
  return in0.data();
}

template <typename T>
void RefineEngine::rebuild(Memo<T>& m) {
  const SimdIsa isa = active_simd_isa();
  const auto& out = layers_.back();
  n_correct_ = 0;
  for (std::size_t base = 0; base < n_samples_; base += kBlock) {
    const int b = static_cast<int>(std::min(kBlock, n_samples_ - base));
    const T* in = m.input(train_, base, b, 0, train_.n_features());
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      const std::size_t off = base * static_cast<std::size_t>(layers_[l].n_out);
      T* acc = m.acc[l].data() + off;
      T* act = m.act_of(l, layers_[l].qrelu) + off;
      layer_sweep(isa, layers_[l], in, acc, act, b, static_cast<T>(act_max_));
      in = act;
    }
    n_correct_ += static_cast<long>(
        argmax_block(isa, in, out.n_out, b, train_.labels() + base, nullptr));
  }
}

double RefineEngine::accuracy() const {
  if (n_samples_ == 0) return 0.0;
  return static_cast<double>(n_correct_) / static_cast<double>(n_samples_);
}

long RefineEngine::min_correct_for(double min_acc) const {
  const long s = static_cast<long>(n_samples_);
  // The naive accept test verbatim, as a predicate on the correct count.
  // Monotone in c (exact integer-to-double conversion, monotone division),
  // so the binary search finds the exact double-comparison boundary.
  const auto passes = [&](long c) {
    const double acc =
        s == 0 ? 0.0 : static_cast<double>(c) / static_cast<double>(s);
    return acc + 1e-12 >= min_acc;
  };
  if (!passes(s)) return s + 1;  // unreachable even with a perfect scan
  long lo = 0, hi = s;
  while (lo < hi) {
    const long mid = lo + (hi - lo) / 2;
    if (passes(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

std::optional<double> RefineEngine::trial(int l, int o,
                                          const CompiledConn& term,
                                          std::int64_t delta, double min_acc) {
  ++stats_.trials;
  const auto li = static_cast<std::size_t>(l);
  if (net_.layers()[li].qrelu_shift != layers_[li].qrelu_shift) {
    ++stats_.shift_trials;
  }
  return std::visit(
      [&](auto& m) {
        using T = typename std::decay_t<decltype(m)>::value_type;
        return run_trial(m, l, o, term, static_cast<T>(delta), min_acc);
      },
      memo_);
}

template <typename T>
std::optional<double> RefineEngine::run_trial(Memo<T>& m, int l0, int o,
                                              const CompiledConn& term,
                                              T delta, double min_acc) {
  const long allowed_wrong =
      static_cast<long>(n_samples_) - min_correct_for(min_acc);
  if (allowed_wrong < 0) {
    ++stats_.early_aborts;
    return std::nullopt;  // no scan can pass; nothing was written
  }

  const SimdIsa isa = active_simd_isa();
  const auto L0 = static_cast<std::size_t>(l0);
  const std::size_t last = layers_.size() - 1;
  const ApproxLayer& edited = net_.layers()[L0];
  const bool qrelu0 = edited.qrelu;
  const bool shift_changed = edited.qrelu_shift != layers_[L0].qrelu_shift;
  const Activation f0{qrelu0, edited.qrelu_shift, act_max_};
  const auto w0 = static_cast<std::size_t>(edited.n_out);
  const auto ob = [o](int b) {
    return static_cast<std::size_t>(o) * static_cast<std::size_t>(b);
  };
  // The edited layer's activations go to scratch whole when every neuron
  // may move (a shift change) or when the argmax reads them (the output
  // layer). Otherwise only neuron o's row does, and the next layer takes a
  // rank-1 update from it through its column of connections to input o.
  const bool whole0 = shift_changed || L0 == last;
  if (!whole0) {
    const ApproxLayer& next = net_.layers()[L0 + 1];
    const auto in_mask =
        static_cast<std::uint32_t>(bitops::low_mask(next.input_bits));
    column_.resize(static_cast<std::size_t>(next.n_out));
    for (int p = 0; p < next.n_out; ++p) {
      const ApproxConn& c = next.conn(p, o);
      column_[static_cast<std::size_t>(p)] =
          CompiledConn{o, c.mask & in_mask, c.exponent, c.sign < 0 ? 1 : 0};
    }
  }

  long wrong = 0;
  for (std::size_t base = 0; base < n_samples_; base += kBlock) {
    const int b = static_cast<int>(std::min(kBlock, n_samples_ - base));
    const std::size_t off0 = base * w0;
    const T* acc0 = m.acc[L0].data() + off0;
    const T* act0 = m.act_of(L0, qrelu0) + off0;
    const T* x = l0 == 0 ? m.input(train_, base, b, term.in, 1)
                         : m.act_of(L0 - 1, layers_[L0 - 1].qrelu) +
                               base * static_cast<std::size_t>(
                                          layers_[L0 - 1].n_out) +
                               static_cast<std::size_t>(term.in) *
                                   static_cast<std::size_t>(b);

    // New activation planes of layer l0 for this block, when whole.
    T* new_act0 = nullptr;
    T* row_act = (qrelu0 ? m.row_act : m.row_acc).data() + base;
    if (whole0) {
      new_act0 = m.next_act_of(L0, qrelu0) + off0;
      if (shift_changed) {
        activate_lanes(acc0, w0 * static_cast<std::size_t>(b), f0, new_act0);
      } else {
        std::copy_n(act0, w0 * static_cast<std::size_t>(b), new_act0);
      }
      row_act = new_act0 + ob(b);
    }
    edit_row(isa, acc0 + ob(b), x, term, delta, f0, b,
             m.row_acc.data() + base, row_act);

    const T* in = new_act0;
    for (std::size_t l = L0 + 1; l <= last; ++l) {
      const CompiledLayer& layer = layers_[l];
      const std::size_t off = base * static_cast<std::size_t>(layer.n_out);
      T* acc = m.next_acc[l].data() + off;
      T* act = m.next_act_of(l, layer.qrelu) + off;
      if (in == nullptr) {
        rank1_update(isa, act0 + ob(b), row_act, column_.data(), layer.n_out,
                     m.acc[l].data() + off,
                     Activation{layer.qrelu, layer.qrelu_shift, act_max_}, b,
                     acc, act);
      } else {
        layer_sweep(isa, layer, in, acc, act, b, static_cast<T>(act_max_));
      }
      in = act;
    }
    wrong += b - static_cast<long>(argmax_block(isa, in, layers_[last].n_out,
                                                b, train_.labels() + base,
                                                nullptr));
    if (wrong > allowed_wrong) {
      ++stats_.early_aborts;
      return std::nullopt;
    }
  }

  // A completed scan always passes: the abort bound is exact, so surviving
  // every block means correct >= min_correct. Commit the scratch planes.
  if (whole0 && !qrelu0) {
    m.acc[L0].swap(m.next_acc[L0]);  // row o is in the swapped-in planes
  } else {
    scatter_row(m.row_acc, edited.n_out, o, m.acc[L0]);
    if (whole0) {
      m.act[L0].swap(m.next_act[L0]);
    } else if (qrelu0) {
      scatter_row(m.row_act, edited.n_out, o, m.act[L0]);
    }
  }
  for (std::size_t l = L0 + 1; l <= last; ++l) {
    m.acc[l].swap(m.next_acc[l]);
    m.act[l].swap(m.next_act[l]);
  }
  layers_[L0] = compile_layer(edited);
  n_correct_ = static_cast<long>(n_samples_) - wrong;
  return accuracy();
}

std::optional<double> RefineEngine::try_clear_mask_bit(int l, int o, int i,
                                                       int bit,
                                                       double min_acc) {
  ApproxLayer& layer = net_.layers()[static_cast<std::size_t>(l)];
  ApproxConn& c = layer.conn(o, i);
  const std::uint32_t old_mask = c.mask;
  c.mask = static_cast<std::uint32_t>(bitops::set_bit(c.mask, bit, false));
  const int old_shift = layer.qrelu_shift;
  layer.qrelu_shift = net_.compute_qrelu_shift(l);
  // Removing a retained bit removes sign * ((x & bit) << k) from the
  // accumulator: the term of that one bit with its sign flipped.
  const CompiledConn term{i, std::uint32_t{1} << bit, c.exponent,
                          c.sign < 0 ? 0 : 1};
  const auto result = trial(l, o, term, 0, min_acc);
  if (!result) {
    c.mask = old_mask;
    layer.qrelu_shift = old_shift;
  }
  return result;
}

std::optional<double> RefineEngine::try_set_bias(int l, int o,
                                                 std::int64_t candidate,
                                                 double min_acc) {
  ApproxLayer& layer = net_.layers()[static_cast<std::size_t>(l)];
  std::int64_t& bias = layer.biases[static_cast<std::size_t>(o)];
  const std::int64_t old_bias = bias;
  bias = candidate;
  const int old_shift = layer.qrelu_shift;
  layer.qrelu_shift = net_.compute_qrelu_shift(l);
  const auto result = trial(l, o, CompiledConn{}, candidate - old_bias,
                            min_acc);
  if (!result) {
    bias = old_bias;
    layer.qrelu_shift = old_shift;
  }
  return result;
}

}  // namespace pmlp::core
