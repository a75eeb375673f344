#include "pmlp/mlp/train_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PMLP_HAVE_AVX2 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define PMLP_HAVE_NEON 1
#include <arm_neon.h>
#endif

namespace pmlp::mlp {
namespace {

// ------------------------------------------------------------------ scalar
//
// The whole block under scalar dispatch, and the nb % lanes tail of the
// SIMD variants. Per sample this is the exact image of the per-sample naive
// loop in oracles/backprop_oracle.cpp: same multiplies, same adds, same
// order (on targets without implicit FMA contraction the scalar sweep is
// bit-identical to train_backprop_naive for a single-block batch —
// train_engine_test pins that down on x86-64).

void forward_scalar(const double* w, const double* bias, int n_in, int n_out,
                    const double* in, double* out, int nb, int s0, int s1,
                    bool relu) {
  for (int o = 0; o < n_out; ++o) {
    const double* wr = w + static_cast<std::size_t>(o) * n_in;
    double* op = out + static_cast<std::size_t>(o) * nb;
    for (int s = s0; s < s1; ++s) {
      double acc = bias[o];
      for (int i = 0; i < n_in; ++i) {
        acc += wr[i] * in[static_cast<std::size_t>(i) * nb + s];
      }
      op[s] = relu ? std::max(acc, 0.0) : acc;
    }
  }
}

void grad_scalar(const double* delta, const double* in, int n_in, int n_out,
                 int nb, double* dw, double* db) {
  for (int o = 0; o < n_out; ++o) {
    const double* dp = delta + static_cast<std::size_t>(o) * nb;
    double bsum = 0.0;
    for (int s = 0; s < nb; ++s) bsum += dp[s];
    db[o] += bsum;
    double* dwr = dw + static_cast<std::size_t>(o) * n_in;
    for (int i = 0; i < n_in; ++i) {
      const double* ip = in + static_cast<std::size_t>(i) * nb;
      double wsum = 0.0;
      for (int s = 0; s < nb; ++s) wsum += dp[s] * ip[s];
      dwr[i] += wsum;
    }
  }
}

void delta_scalar(const double* w, int n_in, int n_out, const double* delta,
                  const double* in_act, double* prev, int nb, int s0, int s1,
                  double relu_leak) {
  for (int i = 0; i < n_in; ++i) {
    double* pp = prev + static_cast<std::size_t>(i) * nb;
    const double* ap = in_act + static_cast<std::size_t>(i) * nb;
    for (int s = s0; s < s1; ++s) {
      double acc = 0.0;
      for (int o = 0; o < n_out; ++o) {
        acc += w[static_cast<std::size_t>(o) * n_in + i] *
               delta[static_cast<std::size_t>(o) * nb + s];
      }
      pp[s] = ap[s] > 0 ? acc : relu_leak * acc;
    }
  }
}

void softmax_scalar(const double* z, int n_out, int nb, double* probs, int s0,
                    int s1) {
  for (int s = s0; s < s1; ++s) {
    double mx = z[s];
    for (int o = 1; o < n_out; ++o) {
      mx = std::max(mx, z[static_cast<std::size_t>(o) * nb + s]);
    }
    double sum = 0.0;
    for (int o = 0; o < n_out; ++o) {
      const double e = std::exp(z[static_cast<std::size_t>(o) * nb + s] - mx);
      probs[static_cast<std::size_t>(o) * nb + s] = e;
      sum += e;
    }
    for (int o = 0; o < n_out; ++o) {
      probs[static_cast<std::size_t>(o) * nb + s] /= sum;
    }
  }
}

// -------------------------------------------------------------------- AVX2
//
// 4 double lanes per vector; the forward/delta sweeps put one sample per
// lane (per-sample reduction order unchanged, FMA instead of mul+add), the
// grad sweep keeps 4 strided partial sums combined as ((l0+l1)+(l2+l3))
// plus a scalar tail — a fixed, thread-count-independent order.

#if defined(PMLP_HAVE_AVX2)

__attribute__((target("avx2,fma"))) inline double hsum4(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const double l0 = _mm_cvtsd_f64(lo);
  const double l1 = _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo));
  const double l2 = _mm_cvtsd_f64(hi);
  const double l3 = _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi));
  return (l0 + l1) + (l2 + l3);
}

__attribute__((target("avx2,fma"))) void forward_avx2(
    const double* w, const double* bias, int n_in, int n_out,
    const double* in, double* out, int nb, bool relu) {
  const int vec_end = nb & ~3;
  const __m256d vzero = _mm256_setzero_pd();
  for (int o = 0; o < n_out; ++o) {
    const double* wr = w + static_cast<std::size_t>(o) * n_in;
    double* op = out + static_cast<std::size_t>(o) * nb;
    const __m256d vbias = _mm256_set1_pd(bias[o]);
    for (int s = 0; s < vec_end; s += 4) {
      __m256d acc = vbias;
      for (int i = 0; i < n_in; ++i) {
        acc = _mm256_fmadd_pd(
            _mm256_set1_pd(wr[i]),
            _mm256_loadu_pd(in + static_cast<std::size_t>(i) * nb + s), acc);
      }
      if (relu) acc = _mm256_max_pd(acc, vzero);
      _mm256_storeu_pd(op + s, acc);
    }
  }
  if (vec_end < nb) {
    forward_scalar(w, bias, n_in, n_out, in, out, nb, vec_end, nb, relu);
  }
}

__attribute__((target("avx2,fma"))) void grad_avx2(
    const double* delta, const double* in, int n_in, int n_out, int nb,
    double* dw, double* db) {
  const int vec_end = nb & ~3;
  for (int o = 0; o < n_out; ++o) {
    const double* dp = delta + static_cast<std::size_t>(o) * nb;
    __m256d vb = _mm256_setzero_pd();
    for (int s = 0; s < vec_end; s += 4) {
      vb = _mm256_add_pd(vb, _mm256_loadu_pd(dp + s));
    }
    double bsum = hsum4(vb);
    for (int s = vec_end; s < nb; ++s) bsum += dp[s];
    db[o] += bsum;
    double* dwr = dw + static_cast<std::size_t>(o) * n_in;
    for (int i = 0; i < n_in; ++i) {
      const double* ip = in + static_cast<std::size_t>(i) * nb;
      __m256d vw = _mm256_setzero_pd();
      for (int s = 0; s < vec_end; s += 4) {
        vw = _mm256_fmadd_pd(_mm256_loadu_pd(dp + s), _mm256_loadu_pd(ip + s),
                             vw);
      }
      double wsum = hsum4(vw);
      for (int s = vec_end; s < nb; ++s) wsum += dp[s] * ip[s];
      dwr[i] += wsum;
    }
  }
}

__attribute__((target("avx2,fma"))) void delta_avx2(
    const double* w, int n_in, int n_out, const double* delta,
    const double* in_act, double* prev, int nb, double relu_leak) {
  const int vec_end = nb & ~3;
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vleak = _mm256_set1_pd(relu_leak);
  for (int i = 0; i < n_in; ++i) {
    double* pp = prev + static_cast<std::size_t>(i) * nb;
    const double* ap = in_act + static_cast<std::size_t>(i) * nb;
    for (int s = 0; s < vec_end; s += 4) {
      __m256d acc = _mm256_setzero_pd();
      for (int o = 0; o < n_out; ++o) {
        acc = _mm256_fmadd_pd(
            _mm256_set1_pd(w[static_cast<std::size_t>(o) * n_in + i]),
            _mm256_loadu_pd(delta + static_cast<std::size_t>(o) * nb + s),
            acc);
      }
      // act > 0 ? acc : leak * acc, lane-wise (leak*acc is the same multiply
      // the scalar path performs, so blending cannot change any bit).
      const __m256d gate = _mm256_cmp_pd(_mm256_loadu_pd(ap + s), vzero,
                                         _CMP_GT_OQ);
      _mm256_storeu_pd(pp + s,
                       _mm256_blendv_pd(_mm256_mul_pd(acc, vleak), acc, gate));
    }
  }
  if (vec_end < nb) {
    delta_scalar(w, n_in, n_out, delta, in_act, prev, nb, vec_end, nb,
                 relu_leak);
  }
}

/// Cephes-style exp for 4 double lanes: reduce by n = round(x * log2(e)),
/// evaluate the Pade expansion e^r = 1 + 2rP(r^2) / (Q(r^2) - rP(r^2)) on
/// the reduced argument, scale by 2^n through the exponent bits. Inputs here
/// are max-subtracted logits, so x <= 0; the clamp at -708 keeps 2^n out of
/// the denormal range (exp(-708) ~ 3e-308 is already an exact-zero prob
/// after the divide for any practical sum). Relative error ~2 ulp — well
/// inside the engine's cross-ISA tolerance contract.
__attribute__((target("avx2,fma"))) inline __m256d exp4_pd(__m256d x) {
  const __m256d kLog2e = _mm256_set1_pd(1.4426950408889634073599);
  const __m256d kC1 = _mm256_set1_pd(6.93145751953125e-1);
  const __m256d kC2 = _mm256_set1_pd(1.42860682030941723212e-6);
  const __m256d kP0 = _mm256_set1_pd(1.26177193074810590878e-4);
  const __m256d kP1 = _mm256_set1_pd(3.02994407707441961300e-2);
  const __m256d kP2 = _mm256_set1_pd(9.99999999999999999910e-1);
  const __m256d kQ0 = _mm256_set1_pd(3.00198505138664455042e-6);
  const __m256d kQ1 = _mm256_set1_pd(2.52448340349684104192e-3);
  const __m256d kQ2 = _mm256_set1_pd(2.27265548208155028766e-1);
  const __m256d kQ3 = _mm256_set1_pd(2.00000000000000000005e0);
  x = _mm256_max_pd(_mm256_min_pd(x, _mm256_set1_pd(708.0)),
                    _mm256_set1_pd(-708.0));
  const __m256d n = _mm256_round_pd(
      _mm256_mul_pd(x, kLog2e), _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  x = _mm256_fnmadd_pd(n, kC1, x);
  x = _mm256_fnmadd_pd(n, kC2, x);
  const __m256d xx = _mm256_mul_pd(x, x);
  __m256d px = _mm256_fmadd_pd(kP0, xx, kP1);
  px = _mm256_fmadd_pd(px, xx, kP2);
  px = _mm256_mul_pd(px, x);
  __m256d qx = _mm256_fmadd_pd(kQ0, xx, kQ1);
  qx = _mm256_fmadd_pd(qx, xx, kQ2);
  qx = _mm256_fmadd_pd(qx, xx, kQ3);
  const __m256d e = _mm256_add_pd(
      _mm256_set1_pd(1.0),
      _mm256_div_pd(_mm256_add_pd(px, px), _mm256_sub_pd(qx, px)));
  const __m256i n64 =
      _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(n));
  const __m256i pow2 = _mm256_slli_epi64(
      _mm256_add_epi64(n64, _mm256_set1_epi64x(1023)), 52);
  return _mm256_mul_pd(e, _mm256_castsi256_pd(pow2));
}

__attribute__((target("avx2,fma"))) void softmax_avx2(const double* z,
                                                      int n_out, int nb,
                                                      double* probs) {
  const int vec_end = nb & ~3;
  const __m256d one = _mm256_set1_pd(1.0);
  for (int s = 0; s < vec_end; s += 4) {
    __m256d mx = _mm256_loadu_pd(z + s);
    for (int o = 1; o < n_out; ++o) {
      mx = _mm256_max_pd(
          mx, _mm256_loadu_pd(z + static_cast<std::size_t>(o) * nb + s));
    }
    __m256d sum = _mm256_setzero_pd();
    for (int o = 0; o < n_out; ++o) {
      const __m256d e = exp4_pd(_mm256_sub_pd(
          _mm256_loadu_pd(z + static_cast<std::size_t>(o) * nb + s), mx));
      _mm256_storeu_pd(probs + static_cast<std::size_t>(o) * nb + s, e);
      sum = _mm256_add_pd(sum, e);
    }
    const __m256d inv = _mm256_div_pd(one, sum);
    for (int o = 0; o < n_out; ++o) {
      double* pp = probs + static_cast<std::size_t>(o) * nb + s;
      _mm256_storeu_pd(pp, _mm256_mul_pd(_mm256_loadu_pd(pp), inv));
    }
  }
  if (vec_end < nb) softmax_scalar(z, n_out, nb, probs, vec_end, nb);
}

/// The dispatch enum only proves AVX2 (detect_simd_isa); the double kernels
/// also want FMA, which every AVX2-era core ships but the contract doesn't
/// include — degrade to scalar on the (hypothetical) AVX2-without-FMA part.
bool avx2_fma_ok() {
  static const bool ok = __builtin_cpu_supports("avx2") &&
                         __builtin_cpu_supports("fma");
  return ok;
}

#endif  // PMLP_HAVE_AVX2

// -------------------------------------------------------------------- NEON
//
// 2 double lanes per vector, vfmaq_f64 as the FMA; the grad partial sums
// combine as l0+l1 (vaddvq) plus a scalar tail.

#if defined(PMLP_HAVE_NEON)

void forward_neon(const double* w, const double* bias, int n_in, int n_out,
                  const double* in, double* out, int nb, bool relu) {
  const int vec_end = nb & ~1;
  const float64x2_t vzero = vdupq_n_f64(0.0);
  for (int o = 0; o < n_out; ++o) {
    const double* wr = w + static_cast<std::size_t>(o) * n_in;
    double* op = out + static_cast<std::size_t>(o) * nb;
    const float64x2_t vbias = vdupq_n_f64(bias[o]);
    for (int s = 0; s < vec_end; s += 2) {
      float64x2_t acc = vbias;
      for (int i = 0; i < n_in; ++i) {
        acc = vfmaq_n_f64(
            acc, vld1q_f64(in + static_cast<std::size_t>(i) * nb + s), wr[i]);
      }
      if (relu) acc = vmaxq_f64(acc, vzero);
      vst1q_f64(op + s, acc);
    }
  }
  if (vec_end < nb) {
    forward_scalar(w, bias, n_in, n_out, in, out, nb, vec_end, nb, relu);
  }
}

void grad_neon(const double* delta, const double* in, int n_in, int n_out,
               int nb, double* dw, double* db) {
  const int vec_end = nb & ~1;
  for (int o = 0; o < n_out; ++o) {
    const double* dp = delta + static_cast<std::size_t>(o) * nb;
    float64x2_t vb = vdupq_n_f64(0.0);
    for (int s = 0; s < vec_end; s += 2) vb = vaddq_f64(vb, vld1q_f64(dp + s));
    double bsum = vaddvq_f64(vb);
    for (int s = vec_end; s < nb; ++s) bsum += dp[s];
    db[o] += bsum;
    double* dwr = dw + static_cast<std::size_t>(o) * n_in;
    for (int i = 0; i < n_in; ++i) {
      const double* ip = in + static_cast<std::size_t>(i) * nb;
      float64x2_t vw = vdupq_n_f64(0.0);
      for (int s = 0; s < vec_end; s += 2) {
        vw = vfmaq_f64(vw, vld1q_f64(dp + s), vld1q_f64(ip + s));
      }
      double wsum = vaddvq_f64(vw);
      for (int s = vec_end; s < nb; ++s) wsum += dp[s] * ip[s];
      dwr[i] += wsum;
    }
  }
}

void delta_neon(const double* w, int n_in, int n_out, const double* delta,
                const double* in_act, double* prev, int nb, double relu_leak) {
  const int vec_end = nb & ~1;
  const float64x2_t vzero = vdupq_n_f64(0.0);
  const float64x2_t vleak = vdupq_n_f64(relu_leak);
  for (int i = 0; i < n_in; ++i) {
    double* pp = prev + static_cast<std::size_t>(i) * nb;
    const double* ap = in_act + static_cast<std::size_t>(i) * nb;
    for (int s = 0; s < vec_end; s += 2) {
      float64x2_t acc = vdupq_n_f64(0.0);
      for (int o = 0; o < n_out; ++o) {
        acc = vfmaq_n_f64(
            acc, vld1q_f64(delta + static_cast<std::size_t>(o) * nb + s),
            w[static_cast<std::size_t>(o) * n_in + i]);
      }
      const uint64x2_t gate = vcgtq_f64(vld1q_f64(ap + s), vzero);
      vst1q_f64(pp + s, vbslq_f64(gate, acc, vmulq_f64(acc, vleak)));
    }
  }
  if (vec_end < nb) {
    delta_scalar(w, n_in, n_out, delta, in_act, prev, nb, vec_end, nb,
                 relu_leak);
  }
}

#endif  // PMLP_HAVE_NEON

}  // namespace

void train_forward_sweep(core::SimdIsa isa, const double* w,
                         const double* bias, int n_in, int n_out,
                         const double* in, double* out, int nb, bool relu) {
  switch (isa) {
#if defined(PMLP_HAVE_AVX2)
    case core::SimdIsa::kAvx2:
      if (avx2_fma_ok()) {
        forward_avx2(w, bias, n_in, n_out, in, out, nb, relu);
        return;
      }
      break;
#endif
#if defined(PMLP_HAVE_NEON)
    case core::SimdIsa::kNeon:
      forward_neon(w, bias, n_in, n_out, in, out, nb, relu);
      return;
#endif
    default:
      break;
  }
  forward_scalar(w, bias, n_in, n_out, in, out, nb, 0, nb, relu);
}

void train_grad_sweep(core::SimdIsa isa, const double* delta, const double* in,
                      int n_in, int n_out, int nb, double* dw, double* db) {
  switch (isa) {
#if defined(PMLP_HAVE_AVX2)
    case core::SimdIsa::kAvx2:
      if (avx2_fma_ok()) {
        grad_avx2(delta, in, n_in, n_out, nb, dw, db);
        return;
      }
      break;
#endif
#if defined(PMLP_HAVE_NEON)
    case core::SimdIsa::kNeon:
      grad_neon(delta, in, n_in, n_out, nb, dw, db);
      return;
#endif
    default:
      break;
  }
  grad_scalar(delta, in, n_in, n_out, nb, dw, db);
}

void train_softmax_sweep(core::SimdIsa isa, const double* z, int n_out,
                         int nb, double* probs) {
#if defined(PMLP_HAVE_AVX2)
  if (isa == core::SimdIsa::kAvx2 && avx2_fma_ok()) {
    softmax_avx2(z, n_out, nb, probs);
    return;
  }
#else
  (void)isa;  // NEON falls through to scalar (see the header note).
#endif
  softmax_scalar(z, n_out, nb, probs, 0, nb);
}

void train_delta_sweep(core::SimdIsa isa, const double* w, int n_in,
                       int n_out, const double* delta, const double* in_act,
                       double* prev, int nb, double relu_leak) {
  switch (isa) {
#if defined(PMLP_HAVE_AVX2)
    case core::SimdIsa::kAvx2:
      if (avx2_fma_ok()) {
        delta_avx2(w, n_in, n_out, delta, in_act, prev, nb, relu_leak);
        return;
      }
      break;
#endif
#if defined(PMLP_HAVE_NEON)
    case core::SimdIsa::kNeon:
      delta_neon(w, n_in, n_out, delta, in_act, prev, nb, relu_leak);
      return;
#endif
    default:
      break;
  }
  delta_scalar(w, n_in, n_out, delta, in_act, prev, nb, 0, nb, relu_leak);
}

}  // namespace pmlp::mlp
