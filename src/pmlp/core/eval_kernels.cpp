#include "pmlp/core/eval_kernels.hpp"

#include <algorithm>
#include <cstddef>
#include <type_traits>

#include "pmlp/core/eval_engine.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PMLP_HAVE_AVX2 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define PMLP_HAVE_NEON 1
#include <arm_neon.h>
#endif

namespace pmlp::core {
namespace {

/// `(x & mask) << shift` at lane width T. The shift runs unsigned, so every
/// in-range value equals the int64 reference term exactly.
template <typename T>
T masked_term(T x, std::uint32_t mask, int shift) {
  using U = std::make_unsigned_t<T>;
  return static_cast<T>(
      static_cast<U>(static_cast<std::uint32_t>(x) & mask) << shift);
}

template <typename T>
T activate(T a, const Activation& f) {
  if (!f.qrelu) return a;
  return a <= 0 ? 0
                : std::min(static_cast<T>(a >> f.shift),
                           static_cast<T>(f.act_max));
}

/// Scalar sweep of samples [s0, s1) of the block — the whole block under
/// scalar dispatch or when it is shorter than one vector, and the NEON
/// variant's n % 4 tail: each lane width's oracle. Per sample
/// this is the lane-width image of CompiledNet::forward's int64 loop: same
/// connections, same order, same adds. Activations are stored at TAct,
/// which may be wider than T (a widening store).
template <typename T, typename TAct>
void sweep_scalar(const CompiledLayer& layer, const T* in, T* acc, TAct* act,
                  int n, int s0, int s1, T act_max) {
  const CompiledConn* conns = layer.conns.data();
  const std::int32_t* begin = layer.conn_begin.data();
  const Activation f{layer.qrelu, layer.qrelu_shift, act_max};
  for (int o = 0; o < layer.n_out; ++o) {
    const auto bias = static_cast<T>(layer.biases[static_cast<std::size_t>(o)]);
    T* accp = acc + static_cast<std::size_t>(o) * n;
    TAct* actp = act + static_cast<std::size_t>(o) * n;
    const std::int32_t cb = begin[o];
    const std::int32_t ce = begin[o + 1];
    for (int s = s0; s < s1; ++s) {
      T a = bias;
      for (std::int32_t c = cb; c < ce; ++c) {
        const CompiledConn& cc = conns[c];
        const T term = masked_term(
            in[static_cast<std::size_t>(cc.in) * n + s], cc.mask, cc.shift);
        a += cc.neg ? -term : term;
      }
      accp[s] = a;
      actp[s] = activate(a, f);
    }
  }
}

/// Scalar argmax epilogue over samples [s0, s1) of the block: the oracle of
/// the vector variants, and blocks shorter than one vector.
template <typename T>
std::size_t argmax_scalar(const T* out, int n_out, int n, int s0, int s1,
                          const std::int32_t* labels, std::int32_t* preds) {
  std::size_t correct = 0;
  for (int s = s0; s < s1; ++s) {
    int best = 0;
    T best_v = out[s];
    for (int k = 1; k < n_out; ++k) {
      const T v = out[static_cast<std::size_t>(k) * n + s];
      const bool gt = v > best_v;  // a later class wins only when greater
      best = gt ? k : best;
      best_v = gt ? v : best_v;
    }
    if (preds != nullptr) preds[s] = best;
    if (labels != nullptr && labels[s] == best) ++correct;
  }
  return correct;
}

/// Scalar edit_row over lanes [s0, s1): the oracle of the vector variant,
/// and its tail.
template <typename T>
void edit_row_scalar(const T* acc, const T* x, CompiledConn term,
                     T delta, Activation f, int s0, int s1, T* acc_out,
                     T* act_out) {
  for (int s = s0; s < s1; ++s) {
    T a = acc[s] + delta;
    if (term.mask != 0) {
      const T t = masked_term(x[s], term.mask, term.shift);
      a = term.neg ? a - t : a + t;
    }
    acc_out[s] = a;
    act_out[s] = activate(a, f);
  }
}

/// Scalar rank1_update of one neuron over lanes [s0, s1): the oracle of the
/// vector variant, and its tail.
template <typename T>
void rank1_row_scalar(const T* old_in, const T* new_in, CompiledConn cc,
                      const T* acc, Activation f, int s0, int s1,
                      T* acc_out, T* act_out) {
  for (int s = s0; s < s1; ++s) {
    const T d = masked_term(new_in[s], cc.mask, cc.shift) -
                masked_term(old_in[s], cc.mask, cc.shift);
    const T a = cc.neg ? acc[s] - d : acc[s] + d;
    acc_out[s] = a;
    act_out[s] = activate(a, f);
  }
}

template <typename T>
void rank1_scalar(const T* old_in, const T* new_in, const CompiledConn* column,
                  int n_out, const T* acc, Activation f, int n,
                  T* acc_out, T* act_out) {
  for (int p = 0; p < n_out; ++p) {
    const std::size_t off = static_cast<std::size_t>(p) * n;
    rank1_row_scalar(old_in, new_in, column[p], acc + off, f, 0, n,
                     acc_out + off, act_out + off);
  }
}

#if defined(PMLP_HAVE_AVX2)
#define PMLP_AVX2_INLINE \
  __attribute__((target("avx2"), always_inline)) inline

/// The AVX2 operations of one lane width, so one sweep and one argmax
/// template serve int16 (16 lanes) and int32 (8 lanes).
template <typename T>
struct Avx2Lanes;

template <>
struct Avx2Lanes<std::int32_t> {
  static constexpr int kLanes = 8;
  PMLP_AVX2_INLINE static __m256i set1(std::int64_t v) {
    return _mm256_set1_epi32(static_cast<std::int32_t>(v));
  }
  PMLP_AVX2_INLINE static __m256i add(__m256i a, __m256i b) {
    return _mm256_add_epi32(a, b);
  }
  PMLP_AVX2_INLINE static __m256i sub(__m256i a, __m256i b) {
    return _mm256_sub_epi32(a, b);
  }
  PMLP_AVX2_INLINE static __m256i sll(__m256i a, __m128i k) {
    return _mm256_sll_epi32(a, k);
  }
  PMLP_AVX2_INLINE static __m256i sra(__m256i a, __m128i k) {
    return _mm256_sra_epi32(a, k);
  }
  PMLP_AVX2_INLINE static __m256i max(__m256i a, __m256i b) {
    return _mm256_max_epi32(a, b);
  }
  PMLP_AVX2_INLINE static __m256i min(__m256i a, __m256i b) {
    return _mm256_min_epi32(a, b);
  }
  PMLP_AVX2_INLINE static __m256i cmpgt(__m256i a, __m256i b) {
    return _mm256_cmpgt_epi32(a, b);
  }
  PMLP_AVX2_INLINE static unsigned store_classes(__m256i k,
                                                 const std::int32_t* labels,
                                                 std::int32_t* preds) {
    if (preds != nullptr) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(preds), k);
    }
    if (labels == nullptr) return 0;
    const __m256i eq = _mm256_cmpeq_epi32(
        k, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(labels)));
    return static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(eq)));
  }
};

template <>
struct Avx2Lanes<std::int16_t> {
  static constexpr int kLanes = 16;
  PMLP_AVX2_INLINE static __m256i set1(std::int64_t v) {
    return _mm256_set1_epi16(static_cast<std::int16_t>(v));
  }
  PMLP_AVX2_INLINE static __m256i add(__m256i a, __m256i b) {
    return _mm256_add_epi16(a, b);
  }
  PMLP_AVX2_INLINE static __m256i sub(__m256i a, __m256i b) {
    return _mm256_sub_epi16(a, b);
  }
  PMLP_AVX2_INLINE static __m256i sll(__m256i a, __m128i k) {
    return _mm256_sll_epi16(a, k);
  }
  PMLP_AVX2_INLINE static __m256i sra(__m256i a, __m128i k) {
    return _mm256_sra_epi16(a, k);
  }
  PMLP_AVX2_INLINE static __m256i max(__m256i a, __m256i b) {
    return _mm256_max_epi16(a, b);
  }
  PMLP_AVX2_INLINE static __m256i min(__m256i a, __m256i b) {
    return _mm256_min_epi16(a, b);
  }
  PMLP_AVX2_INLINE static __m256i cmpgt(__m256i a, __m256i b) {
    return _mm256_cmpgt_epi16(a, b);
  }
  /// Widen 16 class indices to int32, store them to `preds` when non-null
  /// and return the lane mask (bit s = sample s) of matches with `labels`.
  PMLP_AVX2_INLINE static unsigned store_classes(__m256i k,
                                                 const std::int32_t* labels,
                                                 std::int32_t* preds) {
    const __m256i lo = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(k));
    const __m256i hi = _mm256_cvtepi16_epi32(_mm256_extracti128_si256(k, 1));
    return Avx2Lanes<std::int32_t>::store_classes(lo, labels, preds) |
           Avx2Lanes<std::int32_t>::store_classes(
               hi, labels != nullptr ? labels + 8 : nullptr,
               preds != nullptr ? preds + 8 : nullptr)
               << 8;
  }
};

template <typename T>
PMLP_AVX2_INLINE __m256i load_lanes(const T* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

template <typename T>
PMLP_AVX2_INLINE void store_lanes(T* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

/// Store a vector of T lanes at TAct: as is, or sign-extended int16 ->
/// int32 into two vectors.
template <typename T, typename TAct>
PMLP_AVX2_INLINE void store_act(TAct* p, __m256i v) {
  if constexpr (std::is_same_v<T, TAct>) {
    store_lanes(p, v);
  } else {
    static_assert(sizeof(T) == 2 && sizeof(TAct) == 4);
    store_lanes(p, _mm256_cvtepi16_epi32(_mm256_castsi256_si128(v)));
    store_lanes(p + 8, _mm256_cvtepi16_epi32(_mm256_extracti128_si256(v, 1)));
  }
}

/// QReLU on one vector: max(a, 0) then >> then clamp matches the scalar
/// `a <= 0 ? 0 : min(a >> shift, act_max)` exactly (a non-positive
/// accumulator becomes 0, which shifts and clamps to 0).
template <typename T>
PMLP_AVX2_INLINE __m256i qrelu_lanes(__m256i a, __m128i vshift,
                                     __m256i vact_max) {
  using V = Avx2Lanes<T>;
  return V::min(V::sra(V::max(a, _mm256_setzero_si256()), vshift), vact_max);
}

/// Neuron `o` of `layer` over the K vectors of samples starting at `s`.
/// Each lane accumulates its sample's terms in the exact scalar order, so
/// neither the unroll nor an overlapping tail vector can change a bit.
template <typename T, typename TAct, int K>
PMLP_AVX2_INLINE void sweep_vectors(const CompiledLayer& layer, int o,
                                    const T* in, T* acc, TAct* act, int n,
                                    int s, __m128i vqshift, __m256i vact_max) {
  using V = Avx2Lanes<T>;
  constexpr int W = V::kLanes;
  const CompiledConn* conns = layer.conns.data();
  const std::int32_t ce = layer.conn_begin[static_cast<std::size_t>(o) + 1];
  __m256i a[K];
  for (int q = 0; q < K; ++q) {
    a[q] = V::set1(layer.biases[static_cast<std::size_t>(o)]);
  }
  // The per-connection setup (struct load, mask broadcast, shift-count
  // move, sign branch) is paid once per K vectors.
  for (std::int32_t c = layer.conn_begin[static_cast<std::size_t>(o)]; c < ce;
       ++c) {
    const CompiledConn& cc = conns[c];
    const __m256i vmask = V::set1(cc.mask);
    const __m128i vsh = _mm_cvtsi32_si128(cc.shift);
    const T* p = in + static_cast<std::size_t>(cc.in) * n + s;
    __m256i v[K];
    for (int q = 0; q < K; ++q) {
      v[q] = V::sll(_mm256_and_si256(load_lanes(p + q * W), vmask), vsh);
    }
    if (cc.neg) {
      for (int q = 0; q < K; ++q) a[q] = V::sub(a[q], v[q]);
    } else {
      for (int q = 0; q < K; ++q) a[q] = V::add(a[q], v[q]);
    }
  }
  T* accp = acc + static_cast<std::size_t>(o) * n + s;
  TAct* actp = act + static_cast<std::size_t>(o) * n + s;
  for (int q = 0; q < K; ++q) store_lanes(accp + q * W, a[q]);
  if (layer.qrelu) {
    for (int q = 0; q < K; ++q) {
      store_act<T>(actp + q * W, qrelu_lanes<T>(a[q], vqshift, vact_max));
    }
  } else if (static_cast<void*>(actp) != static_cast<void*>(accp)) {
    for (int q = 0; q < K; ++q) store_act<T>(actp + q * W, a[q]);
  }
}

/// 4-vector passes (64 int16 samples: one whole block), then single
/// vectors, then the ragged tail as one vector overlapping the last.
template <typename T, typename TAct>
__attribute__((target("avx2"))) void sweep_avx2(const CompiledLayer& layer,
                                                const T* in, T* acc, TAct* act,
                                                int n, T act_max) {
  constexpr int W = Avx2Lanes<T>::kLanes;
  if (n < W) {
    sweep_scalar(layer, in, acc, act, n, 0, n, act_max);
    return;
  }
  const int unroll_end = n - n % (4 * W);
  const __m256i vact_max = Avx2Lanes<T>::set1(act_max);
  const __m128i vqshift = _mm_cvtsi32_si128(layer.qrelu_shift);
  for (int o = 0; o < layer.n_out; ++o) {
    int s = 0;
    for (; s < unroll_end; s += 4 * W) {
      sweep_vectors<T, TAct, 4>(layer, o, in, acc, act, n, s, vqshift,
                                vact_max);
    }
    for (; s + W <= n; s += W) {
      sweep_vectors<T, TAct, 1>(layer, o, in, acc, act, n, s, vqshift,
                                vact_max);
    }
    if (s < n) {
      sweep_vectors<T, TAct, 1>(layer, o, in, acc, act, n, n - W, vqshift,
                                vact_max);
    }
  }
}

__attribute__((target("avx2"))) void edit_row_avx2(
    const std::int32_t* acc, const std::int32_t* x, CompiledConn term,
    std::int32_t delta, Activation f, int n, std::int32_t* acc_out,
    std::int32_t* act_out) {
  const int vec_end = n & ~7;
  const __m256i vdelta = _mm256_set1_epi32(delta);
  const __m256i vmask = _mm256_set1_epi32(static_cast<std::int32_t>(term.mask));
  const __m128i vsh = _mm_cvtsi32_si128(term.shift);
  const __m128i vqshift = _mm_cvtsi32_si128(f.shift);
  const __m256i vact_max =
      _mm256_set1_epi32(static_cast<std::int32_t>(f.act_max));
  for (int s = 0; s < vec_end; s += 8) {
    __m256i a = _mm256_add_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + s)), vdelta);
    if (term.mask != 0) {
      const __m256i t = _mm256_sll_epi32(
          _mm256_and_si256(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + s)),
              vmask),
          vsh);
      a = term.neg ? _mm256_sub_epi32(a, t) : _mm256_add_epi32(a, t);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc_out + s), a);
    if (f.qrelu) a = qrelu_lanes<std::int32_t>(a, vqshift, vact_max);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(act_out + s), a);
  }
  if (vec_end < n) {
    edit_row_scalar(acc, x, term, delta, f, vec_end, n, acc_out, act_out);
  }
}

__attribute__((target("avx2"))) void rank1_avx2(
    const std::int32_t* old_in, const std::int32_t* new_in,
    const CompiledConn* column, int n_out, const std::int32_t* acc,
    Activation f, int n, std::int32_t* acc_out,
    std::int32_t* act_out) {
  const int vec_end = n & ~7;
  const __m128i vqshift = _mm_cvtsi32_si128(f.shift);
  const __m256i vact_max =
      _mm256_set1_epi32(static_cast<std::int32_t>(f.act_max));
  for (int p = 0; p < n_out; ++p) {
    const CompiledConn& cc = column[p];
    const std::size_t off = static_cast<std::size_t>(p) * n;
    const std::int32_t* accp = acc + off;
    std::int32_t* acc_p = acc_out + off;
    std::int32_t* act_p = act_out + off;
    const __m256i vmask = _mm256_set1_epi32(static_cast<std::int32_t>(cc.mask));
    const __m128i vsh = _mm_cvtsi32_si128(cc.shift);
    for (int s = 0; s < vec_end; s += 8) {
      const __m256i t_new = _mm256_sll_epi32(
          _mm256_and_si256(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(new_in + s)),
              vmask),
          vsh);
      const __m256i t_old = _mm256_sll_epi32(
          _mm256_and_si256(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(old_in + s)),
              vmask),
          vsh);
      const __m256i d = _mm256_sub_epi32(t_new, t_old);
      const __m256i prev =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(accp + s));
      __m256i a =
          cc.neg ? _mm256_sub_epi32(prev, d) : _mm256_add_epi32(prev, d);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc_p + s), a);
      if (f.qrelu) {
        a = qrelu_lanes<std::int32_t>(a, vqshift, vact_max);
      } else if (act_p == acc_p) {
        continue;
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(act_p + s), a);
    }
    if (vec_end < n) {
      rank1_row_scalar(old_in, new_in, cc, accp, f, vec_end, n, acc_p, act_p);
    }
  }
}

/// The classes of the K vectors of samples from `s` into `best_k`: a lane
/// takes class k only where its logit is strictly greater than the running
/// maximum, so ties keep the lowest class exactly as argmax_scalar does.
/// (max equals the blend of the values on the same mask.) The class
/// broadcast is paid once per K vectors.
template <typename T, int K>
PMLP_AVX2_INLINE void argmax_vectors(const T* out, int n_out, int n, int s,
                                     __m256i (&best_k)[K]) {
  using V = Avx2Lanes<T>;
  constexpr int W = V::kLanes;
  __m256i best_v[K];
  for (int q = 0; q < K; ++q) {
    best_v[q] = load_lanes(out + s + q * W);
    best_k[q] = _mm256_setzero_si256();
  }
  for (int k = 1; k < n_out; ++k) {
    const __m256i vk = V::set1(k);
    const T* row = out + static_cast<std::size_t>(k) * n + s;
    for (int q = 0; q < K; ++q) {
      const __m256i v = load_lanes(row + q * W);
      const __m256i gt = V::cmpgt(v, best_v[q]);
      best_v[q] = V::max(best_v[q], v);
      best_k[q] = _mm256_blendv_epi8(best_k[q], vk, gt);
    }
  }
}

/// Store one vector of classes for the samples from `s` and return the
/// lanes whose class matches the label.
template <typename T>
PMLP_AVX2_INLINE unsigned store_matches(__m256i k, int s,
                                        const std::int32_t* labels,
                                        std::int32_t* preds) {
  return Avx2Lanes<T>::store_classes(k, labels != nullptr ? labels + s : nullptr,
                                     preds != nullptr ? preds + s : nullptr);
}

/// Label matches are counted from each vector's match mask; the overlapping
/// tail vector counts only the lanes no earlier vector covered.
template <typename T>
__attribute__((target("avx2"))) std::size_t argmax_avx2(
    const T* out, int n_out, int n, const std::int32_t* labels,
    std::int32_t* preds) {
  constexpr int W = Avx2Lanes<T>::kLanes;
  if (n < W) return argmax_scalar(out, n_out, n, 0, n, labels, preds);
  std::size_t correct = 0;
  int s = 0;
  for (; s + 4 * W <= n; s += 4 * W) {
    __m256i k[4];
    argmax_vectors<T, 4>(out, n_out, n, s, k);
    for (int q = 0; q < 4; ++q) {
      correct += static_cast<std::size_t>(__builtin_popcount(
          store_matches<T>(k[q], s + q * W, labels, preds)));
    }
  }
  for (; s + W <= n; s += W) {
    __m256i k[1];
    argmax_vectors<T, 1>(out, n_out, n, s, k);
    correct += static_cast<std::size_t>(
        __builtin_popcount(store_matches<T>(k[0], s, labels, preds)));
  }
  if (s < n) {
    __m256i k[1];
    argmax_vectors<T, 1>(out, n_out, n, n - W, k);
    const unsigned fresh =
        store_matches<T>(k[0], n - W, labels, preds) >> (W - (n - s));
    correct += static_cast<std::size_t>(__builtin_popcount(fresh));
  }
  return correct;
}
#endif  // PMLP_HAVE_AVX2

#if defined(PMLP_HAVE_NEON)
void sweep_neon(const CompiledLayer& layer, const std::int32_t* in,
                std::int32_t* acc, std::int32_t* act, int n,
                std::int32_t act_max) {
  const CompiledConn* conns = layer.conns.data();
  const std::int32_t* begin = layer.conn_begin.data();
  const int vec_end = n & ~3;
  const int quad_end = n & ~15;
  const int32x4_t vzero = vdupq_n_s32(0);
  const int32x4_t vact_max = vdupq_n_s32(act_max);
  // SSHL by a negative count is a truncating right shift — for the
  // non-negative post-max accumulator that equals the scalar `>>`.
  const int32x4_t vqshift = vdupq_n_s32(-layer.qrelu_shift);
  for (int o = 0; o < layer.n_out; ++o) {
    std::int32_t* accp = acc + static_cast<std::size_t>(o) * n;
    std::int32_t* actp = act + static_cast<std::size_t>(o) * n;
    const int32x4_t vbias = vdupq_n_s32(
        static_cast<std::int32_t>(layer.biases[static_cast<std::size_t>(o)]));
    const std::int32_t cb = begin[o];
    const std::int32_t ce = begin[o + 1];
    int s = 0;
    // 16-samples-per-pass main loop: per-connection broadcasts amortized
    // over four 4-lane vectors (see the AVX2 twin for the bit-identity
    // argument — per-lane accumulation order is unchanged).
    for (; s < quad_end; s += 16) {
      int32x4_t a0 = vbias, a1 = vbias, a2 = vbias, a3 = vbias;
      for (std::int32_t c = cb; c < ce; ++c) {
        const CompiledConn& cc = conns[c];
        const int32x4_t vmask = vdupq_n_s32(static_cast<std::int32_t>(cc.mask));
        const int32x4_t vsh = vdupq_n_s32(cc.shift);
        const std::int32_t* p = in + static_cast<std::size_t>(cc.in) * n + s;
        const int32x4_t v0 = vshlq_s32(vandq_s32(vld1q_s32(p), vmask), vsh);
        const int32x4_t v1 =
            vshlq_s32(vandq_s32(vld1q_s32(p + 4), vmask), vsh);
        const int32x4_t v2 =
            vshlq_s32(vandq_s32(vld1q_s32(p + 8), vmask), vsh);
        const int32x4_t v3 =
            vshlq_s32(vandq_s32(vld1q_s32(p + 12), vmask), vsh);
        if (cc.neg) {
          a0 = vsubq_s32(a0, v0);
          a1 = vsubq_s32(a1, v1);
          a2 = vsubq_s32(a2, v2);
          a3 = vsubq_s32(a3, v3);
        } else {
          a0 = vaddq_s32(a0, v0);
          a1 = vaddq_s32(a1, v1);
          a2 = vaddq_s32(a2, v2);
          a3 = vaddq_s32(a3, v3);
        }
      }
      const int32x4_t as[4] = {a0, a1, a2, a3};
      for (int q = 0; q < 4; ++q) vst1q_s32(accp + s + q * 4, as[q]);
      if (layer.qrelu) {
        for (int q = 0; q < 4; ++q) {
          int32x4_t r = vmaxq_s32(as[q], vzero);
          r = vshlq_s32(r, vqshift);
          r = vminq_s32(r, vact_max);
          vst1q_s32(actp + s + q * 4, r);
        }
      } else if (actp != accp) {
        for (int q = 0; q < 4; ++q) vst1q_s32(actp + s + q * 4, as[q]);
      }
    }
    for (; s < vec_end; s += 4) {
      int32x4_t a = vbias;
      for (std::int32_t c = cb; c < ce; ++c) {
        const CompiledConn& cc = conns[c];
        int32x4_t v =
            vld1q_s32(in + static_cast<std::size_t>(cc.in) * n + s);
        v = vandq_s32(v, vdupq_n_s32(static_cast<std::int32_t>(cc.mask)));
        v = vshlq_s32(v, vdupq_n_s32(cc.shift));
        a = cc.neg ? vsubq_s32(a, v) : vaddq_s32(a, v);
      }
      vst1q_s32(accp + s, a);
      if (layer.qrelu) {
        int32x4_t r = vmaxq_s32(a, vzero);
        r = vshlq_s32(r, vqshift);
        r = vminq_s32(r, vact_max);
        vst1q_s32(actp + s, r);
      } else if (actp != accp) {
        vst1q_s32(actp + s, a);
      }
    }
  }
  if (vec_end < n) sweep_scalar(layer, in, acc, act, n, vec_end, n, act_max);
}
#endif  // PMLP_HAVE_NEON

}  // namespace

void layer_sweep(SimdIsa isa, const CompiledLayer& layer,
                 const std::int16_t* in, std::int16_t* acc, std::int16_t* act,
                 int n, std::int16_t act_max) {
#if defined(PMLP_HAVE_AVX2)
  if (isa == SimdIsa::kAvx2) {
    sweep_avx2(layer, in, acc, act, n, act_max);
    return;
  }
#endif
  (void)isa;
  sweep_scalar(layer, in, acc, act, n, 0, n, act_max);
}

void layer_sweep(SimdIsa isa, const CompiledLayer& layer,
                 const std::int16_t* in, std::int16_t* acc, std::int32_t* act,
                 int n, std::int16_t act_max) {
#if defined(PMLP_HAVE_AVX2)
  if (isa == SimdIsa::kAvx2) {
    sweep_avx2(layer, in, acc, act, n, act_max);
    return;
  }
#endif
  (void)isa;
  sweep_scalar(layer, in, acc, act, n, 0, n, act_max);
}

void layer_sweep(SimdIsa isa, const CompiledLayer& layer,
                 const std::int32_t* in, std::int32_t* acc, std::int32_t* act,
                 int n, std::int32_t act_max) {
  switch (isa) {
#if defined(PMLP_HAVE_AVX2)
    case SimdIsa::kAvx2:
      sweep_avx2(layer, in, acc, act, n, act_max);
      return;
#endif
#if defined(PMLP_HAVE_NEON)
    case SimdIsa::kNeon:
      sweep_neon(layer, in, acc, act, n, act_max);
      return;
#endif
    default:
      break;
  }
  sweep_scalar(layer, in, acc, act, n, 0, n, act_max);
}

void layer_sweep(SimdIsa, const CompiledLayer& layer, const std::int64_t* in,
                 std::int64_t* acc, std::int64_t* act, int n,
                 std::int64_t act_max) {
  sweep_scalar(layer, in, acc, act, n, 0, n, act_max);
}

void transpose_block(const std::uint8_t* rows, int n_features, int n,
                     std::int16_t* planes) {
  for (int i = 0; i < n_features; ++i) {
    std::int16_t* plane = planes + static_cast<std::size_t>(i) * n;
    for (int s = 0; s < n; ++s) {
      plane[s] = rows[static_cast<std::size_t>(s) * n_features + i];
    }
  }
}

bool use_int16_lanes(SimdIsa isa, int n) {
  return isa != SimdIsa::kNeon && n >= 16;
}

std::size_t argmax_block(SimdIsa isa, const std::int16_t* out, int n_out,
                         int n, const std::int32_t* labels,
                         std::int32_t* preds) {
#if defined(PMLP_HAVE_AVX2)
  if (isa == SimdIsa::kAvx2) return argmax_avx2(out, n_out, n, labels, preds);
#endif
  (void)isa;
  return argmax_scalar(out, n_out, n, 0, n, labels, preds);
}

std::size_t argmax_block(SimdIsa isa, const std::int32_t* out, int n_out,
                         int n, const std::int32_t* labels,
                         std::int32_t* preds) {
#if defined(PMLP_HAVE_AVX2)
  if (isa == SimdIsa::kAvx2) return argmax_avx2(out, n_out, n, labels, preds);
#endif
  (void)isa;
  return argmax_scalar(out, n_out, n, 0, n, labels, preds);
}

std::size_t argmax_block(SimdIsa, const std::int64_t* out, int n_out, int n,
                         const std::int32_t* labels, std::int32_t* preds) {
  return argmax_scalar(out, n_out, n, 0, n, labels, preds);
}

void edit_row(SimdIsa isa, const std::int32_t* acc, const std::int32_t* x,
              CompiledConn term, std::int32_t delta,
              Activation f, int n, std::int32_t* acc_out,
              std::int32_t* act_out) {
#if defined(PMLP_HAVE_AVX2)
  if (isa == SimdIsa::kAvx2) {
    edit_row_avx2(acc, x, term, delta, f, n, acc_out, act_out);
    return;
  }
#endif
  (void)isa;
  edit_row_scalar(acc, x, term, delta, f, 0, n, acc_out, act_out);
}

void edit_row(SimdIsa, const std::int64_t* acc, const std::int64_t* x,
              CompiledConn term, std::int64_t delta,
              Activation f, int n, std::int64_t* acc_out,
              std::int64_t* act_out) {
  edit_row_scalar(acc, x, term, delta, f, 0, n, acc_out, act_out);
}

void rank1_update(SimdIsa isa, const std::int32_t* old_in,
                  const std::int32_t* new_in, const CompiledConn* column,
                  int n_out, const std::int32_t* acc, Activation f,
                  int n, std::int32_t* acc_out, std::int32_t* act_out) {
#if defined(PMLP_HAVE_AVX2)
  if (isa == SimdIsa::kAvx2) {
    rank1_avx2(old_in, new_in, column, n_out, acc, f, n, acc_out, act_out);
    return;
  }
#endif
  (void)isa;
  rank1_scalar(old_in, new_in, column, n_out, acc, f, n, acc_out, act_out);
}

void rank1_update(SimdIsa, const std::int64_t* old_in,
                  const std::int64_t* new_in, const CompiledConn* column,
                  int n_out, const std::int64_t* acc, Activation f,
                  int n, std::int64_t* acc_out, std::int64_t* act_out) {
  rank1_scalar(old_in, new_in, column, n_out, acc, f, n, acc_out, act_out);
}

void activate_lanes(const std::int32_t* acc, std::size_t count, Activation f,
                    std::int32_t* act) {
  for (std::size_t s = 0; s < count; ++s) act[s] = activate(acc[s], f);
}

void activate_lanes(const std::int64_t* acc, std::size_t count, Activation f,
                    std::int64_t* act) {
  for (std::size_t s = 0; s < count; ++s) act[s] = activate(acc[s], f);
}

}  // namespace pmlp::core
