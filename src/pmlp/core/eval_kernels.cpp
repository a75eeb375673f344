#include "pmlp/core/eval_kernels.hpp"

#include <algorithm>
#include <cstddef>

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

/// Scalar sweep of samples [s0, s1) of the block — the whole block under
/// scalar dispatch, and the n % lanes tail of the SIMD variants. Per sample
/// this is the int32 image of CompiledNet::forward's int64 loop: same
/// connections, same order, same adds.
void sweep_scalar(const CompiledLayer& layer, const std::int32_t* in,
                  std::int32_t* acc, std::int32_t* act, int n, int s0, int s1,
                  std::int32_t act_max) {
  const CompiledConn* conns = layer.conns.data();
  const std::int32_t* begin = layer.conn_begin.data();
  for (int o = 0; o < layer.n_out; ++o) {
    const auto bias =
        static_cast<std::int32_t>(layer.biases[static_cast<std::size_t>(o)]);
    std::int32_t* accp = acc + static_cast<std::size_t>(o) * n;
    std::int32_t* actp = act + static_cast<std::size_t>(o) * n;
    const std::int32_t cb = begin[o];
    const std::int32_t ce = begin[o + 1];
    for (int s = s0; s < s1; ++s) {
      std::int32_t a = bias;
      for (std::int32_t c = cb; c < ce; ++c) {
        const CompiledConn& cc = conns[c];
        const std::int32_t term = static_cast<std::int32_t>(
            (static_cast<std::uint32_t>(
                 in[static_cast<std::size_t>(cc.in) * n + s]) &
             cc.mask)
            << cc.shift);
        a += cc.neg ? -term : term;
      }
      accp[s] = a;
      if (layer.qrelu) {
        a = a <= 0 ? 0 : std::min(a >> layer.qrelu_shift, act_max);
      }
      actp[s] = a;
    }
  }
}

/// Scalar argmax epilogue over samples [s0, s1) of the block: the oracle of
/// the vector variant, and its n % 8 tail.
std::size_t argmax_scalar(const std::int32_t* out, int n_out, int n, int s0,
                          int s1, const std::int32_t* labels,
                          std::int32_t* preds) {
  std::size_t correct = 0;
  for (int s = s0; s < s1; ++s) {
    int best = 0;
    std::int32_t best_v = out[s];
    for (int k = 1; k < n_out; ++k) {
      const std::int32_t v = out[static_cast<std::size_t>(k) * n + s];
      if (v > best_v) {
        best_v = v;
        best = k;
      }
    }
    if (preds != nullptr) preds[s] = best;
    if (labels != nullptr && labels[s] == best) ++correct;
  }
  return correct;
}

#if defined(PMLP_HAVE_AVX2)
__attribute__((target("avx2"))) void sweep_avx2(
    const CompiledLayer& layer, const std::int32_t* in, std::int32_t* acc,
    std::int32_t* act, int n, std::int32_t act_max) {
  const CompiledConn* conns = layer.conns.data();
  const std::int32_t* begin = layer.conn_begin.data();
  const int vec_end = n & ~7;
  const int quad_end = n & ~31;
  const __m256i vzero = _mm256_setzero_si256();
  const __m256i vact_max = _mm256_set1_epi32(act_max);
  const __m128i vqshift = _mm_cvtsi32_si128(layer.qrelu_shift);
  for (int o = 0; o < layer.n_out; ++o) {
    std::int32_t* accp = acc + static_cast<std::size_t>(o) * n;
    std::int32_t* actp = act + static_cast<std::size_t>(o) * n;
    const __m256i vbias = _mm256_set1_epi32(static_cast<std::int32_t>(
        layer.biases[static_cast<std::size_t>(o)]));
    const std::int32_t cb = begin[o];
    const std::int32_t ce = begin[o + 1];
    int s = 0;
    // 32-samples-per-pass main loop: the per-connection setup (struct
    // load, mask broadcast, shift-count move, sign branch) is paid once
    // per four 8-lane vectors instead of once per vector. Each lane still
    // accumulates its sample's terms in the exact scalar order, so the
    // unroll cannot change any result bit.
    for (; s < quad_end; s += 32) {
      __m256i a0 = vbias, a1 = vbias, a2 = vbias, a3 = vbias;
      for (std::int32_t c = cb; c < ce; ++c) {
        const CompiledConn& cc = conns[c];
        const __m256i vmask =
            _mm256_set1_epi32(static_cast<std::int32_t>(cc.mask));
        const __m128i vsh = _mm_cvtsi32_si128(cc.shift);
        const std::int32_t* p = in + static_cast<std::size_t>(cc.in) * n + s;
        __m256i v0 = _mm256_sll_epi32(
            _mm256_and_si256(
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)),
                vmask),
            vsh);
        __m256i v1 = _mm256_sll_epi32(
            _mm256_and_si256(
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 8)),
                vmask),
            vsh);
        __m256i v2 = _mm256_sll_epi32(
            _mm256_and_si256(
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 16)),
                vmask),
            vsh);
        __m256i v3 = _mm256_sll_epi32(
            _mm256_and_si256(
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 24)),
                vmask),
            vsh);
        if (cc.neg) {
          a0 = _mm256_sub_epi32(a0, v0);
          a1 = _mm256_sub_epi32(a1, v1);
          a2 = _mm256_sub_epi32(a2, v2);
          a3 = _mm256_sub_epi32(a3, v3);
        } else {
          a0 = _mm256_add_epi32(a0, v0);
          a1 = _mm256_add_epi32(a1, v1);
          a2 = _mm256_add_epi32(a2, v2);
          a3 = _mm256_add_epi32(a3, v3);
        }
      }
      const __m256i as[4] = {a0, a1, a2, a3};
      for (int q = 0; q < 4; ++q) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(accp + s + q * 8),
                            as[q]);
      }
      if (layer.qrelu) {
        // max(acc, 0) then >> then clamp matches the scalar
        // `acc <= 0 ? 0 : min(acc >> shift, act_max)` exactly: a
        // non-positive accumulator becomes 0, which shifts/clamps to 0.
        for (int q = 0; q < 4; ++q) {
          __m256i r = _mm256_max_epi32(as[q], vzero);
          r = _mm256_sra_epi32(r, vqshift);
          r = _mm256_min_epi32(r, vact_max);
          _mm256_storeu_si256(reinterpret_cast<__m256i*>(actp + s + q * 8),
                              r);
        }
      } else if (actp != accp) {
        for (int q = 0; q < 4; ++q) {
          _mm256_storeu_si256(reinterpret_cast<__m256i*>(actp + s + q * 8),
                              as[q]);
        }
      }
    }
    for (; s < vec_end; s += 8) {
      __m256i a = vbias;
      for (std::int32_t c = cb; c < ce; ++c) {
        const CompiledConn& cc = conns[c];
        __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
            in + static_cast<std::size_t>(cc.in) * n + s));
        v = _mm256_and_si256(
            v, _mm256_set1_epi32(static_cast<std::int32_t>(cc.mask)));
        v = _mm256_sll_epi32(v, _mm_cvtsi32_si128(cc.shift));
        a = cc.neg ? _mm256_sub_epi32(a, v) : _mm256_add_epi32(a, v);
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(accp + s), a);
      if (layer.qrelu) {
        __m256i r = _mm256_max_epi32(a, vzero);
        r = _mm256_sra_epi32(r, vqshift);
        r = _mm256_min_epi32(r, vact_max);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(actp + s), r);
      } else if (actp != accp) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(actp + s), a);
      }
    }
  }
  if (vec_end < n) sweep_scalar(layer, in, acc, act, n, vec_end, n, act_max);
}

/// 8 samples per vector: a lane takes class k only where its logit is
/// strictly greater than the running maximum, so ties keep the lowest
/// class exactly as argmax_scalar does. (max_epi32 equals the blend of the
/// values on the same mask.) Label matches are counted from the equality
/// mask's sign bits.
__attribute__((target("avx2"))) std::size_t argmax_avx2(
    const std::int32_t* out, int n_out, int n, const std::int32_t* labels,
    std::int32_t* preds) {
  const int vec_end = n & ~7;
  std::size_t correct = 0;
  for (int s = 0; s < vec_end; s += 8) {
    __m256i best_v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + s));
    __m256i best_k = _mm256_setzero_si256();
    for (int k = 1; k < n_out; ++k) {
      const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
          out + static_cast<std::size_t>(k) * n + s));
      const __m256i gt = _mm256_cmpgt_epi32(v, best_v);
      best_v = _mm256_max_epi32(best_v, v);
      best_k = _mm256_blendv_epi8(best_k, _mm256_set1_epi32(k), gt);
    }
    if (preds != nullptr) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(preds + s), best_k);
    }
    if (labels != nullptr) {
      const __m256i eq = _mm256_cmpeq_epi32(
          best_k,
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(labels + s)));
      correct += static_cast<std::size_t>(__builtin_popcount(
          static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(eq)))));
    }
  }
  if (vec_end < n) {
    correct += argmax_scalar(out, n_out, n, vec_end, n, labels, preds);
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

void transpose_block(const std::uint8_t* rows, int n_features, int n,
                     std::int32_t* planes) {
  for (int i = 0; i < n_features; ++i) {
    std::int32_t* plane = planes + static_cast<std::size_t>(i) * n;
    for (int s = 0; s < n; ++s) {
      plane[s] = rows[static_cast<std::size_t>(s) * n_features + i];
    }
  }
}

std::size_t argmax_block(SimdIsa isa, const std::int32_t* out, int n_out,
                         int n, const std::int32_t* labels,
                         std::int32_t* preds) {
  switch (isa) {
#if defined(PMLP_HAVE_AVX2)
    case SimdIsa::kAvx2:
      return argmax_avx2(out, n_out, n, labels, preds);
#endif
    default:
      break;
  }
  return argmax_scalar(out, n_out, n, 0, n, labels, preds);
}

}  // namespace pmlp::core
