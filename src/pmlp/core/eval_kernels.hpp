// Sample-blocked layer-sweep kernels behind the runtime SIMD dispatch.
//
// A block holds up to CompiledNet::kBlockSamples samples in neuron-major
// planes: the value of input/activation `i` for sample `s` lives at
// `in[i * n + s]`, stride `n` = the block's sample count. Sweeping a layer
// is then a mask-and-accumulate over contiguous lanes — the Eq. 4 inner
// loop `acc += ±((x & mask) << k)` vectorizes directly, with QReLU as
// max/shift/min on the same registers.
//
// The sweep and the argmax come at three lane widths, one overload each:
// int16 (16 lanes per AVX2 vector), int32 (8 per AVX2, 4 per NEON vector)
// and int64 (scalar). The caller proves the width exact (the static
// per-neuron bound |bias| + Σ(mask << k) — see layer_lanes()). Every
// variant of a width performs the same additions in the same per-neuron
// order as that width's scalar loop, its oracle, and every exact width
// gives the int64 values, so results are bit-identical across ISAs and
// widths. The AVX2 variants take a block's ragged tail as one more whole
// vector that overlaps the previous one (recomputing lanes is idempotent),
// so only blocks shorter than a vector run scalar.
//
// Around the sweep sit the block's prologue and epilogue: the row-major →
// int16 plane transpose (the only place rows become planes) and the argmax
// over the output planes, which vectorizes across samples the same way.
//
// The refine engine's trial kernels (edit_row, rank1_update) re-evaluate
// one edit over a block of memoized planes instead of sweeping whole
// layers. Each has an AVX2 variant and a scalar one, its oracle. Refine
// runs nets that fail its int32 proof through the same block algorithm on
// int64 lanes: the int64 overloads here, scalar whatever `isa` says.
#pragma once

#include <cstddef>
#include <cstdint>

#include "pmlp/core/simd.hpp"

namespace pmlp::core {

struct CompiledConn;
struct CompiledLayer;

/// A layer's activation as the refine kernels apply it: QReLU
/// `a <= 0 ? 0 : min(a >> shift, act_max)` when `qrelu`, else the identity.
struct Activation {
  bool qrelu = true;
  int shift = 0;
  std::int64_t act_max = 0;
};

/// Sweep one compiled layer over a block of `n` samples. Reads neuron-major
/// input planes `in` (stride `n`), writes raw accumulator planes to `acc`
/// and activation planes (QReLU applied, or the raw accumulator when the
/// layer has none) to `act`; `act` may alias `acc` when the caller only
/// needs activations, `in` aliases neither. `isa` selects the variant; an
/// ISA without a variant at this width (or that this binary lacks) runs
/// the scalar loop.
void layer_sweep(SimdIsa isa, const CompiledLayer& layer,
                 const std::int16_t* in, std::int16_t* acc, std::int16_t* act,
                 int n, std::int16_t act_max);
/// The int16 sweep with a widening store: activations go to int32 planes
/// `act` (which cannot alias `acc`) for a next layer on int32 lanes.
void layer_sweep(SimdIsa isa, const CompiledLayer& layer,
                 const std::int16_t* in, std::int16_t* acc, std::int32_t* act,
                 int n, std::int16_t act_max);
void layer_sweep(SimdIsa isa, const CompiledLayer& layer,
                 const std::int32_t* in, std::int32_t* acc, std::int32_t* act,
                 int n, std::int32_t act_max);
void layer_sweep(SimdIsa isa, const CompiledLayer& layer,
                 const std::int64_t* in, std::int64_t* acc, std::int64_t* act,
                 int n, std::int64_t act_max);

/// Lay `n` row-major samples of `n_features` codes each (`rows`, stride
/// `n_features`) out as neuron-major planes: feature `i` of sample `s` goes
/// to `planes[i * n + s]`.
void transpose_block(const std::uint8_t* rows, int n_features, int n,
                     std::int16_t* planes);

/// True when a block of `n` samples should run its int16-proven layers on
/// int16 lanes under `isa`: the block fills at least one 16-lane AVX2
/// vector. A shorter block (serve's small batches), and every block under
/// NEON, which has int32 kernels only, runs them on int32 lanes instead —
/// 8 or 4 samples per vector, the same exact values. Scalar follows the
/// AVX2 rule, so the int16 scalar oracle runs where AVX2 would vectorize.
[[nodiscard]] bool use_int16_lanes(SimdIsa isa, int n);

/// First-maximum argmax per sample over `n_out` output planes (stride `n`)
/// of one block — the tie-breaking rule of argmax_first: a later class wins
/// only when strictly greater. Writes each class to `preds[s]` when `preds`
/// is non-null and returns how many samples' class equals `labels[s]` (0
/// when `labels` is null). `isa` selects the variant: AVX2 compares with
/// strict greater-than and blends the class index across 16 (int16) or 8
/// (int32) samples at a time; every other ISA, and int64, takes the scalar
/// loop, the variants' oracle.
std::size_t argmax_block(SimdIsa isa, const std::int16_t* out, int n_out,
                         int n, const std::int32_t* labels,
                         std::int32_t* preds);
std::size_t argmax_block(SimdIsa isa, const std::int32_t* out, int n_out,
                         int n, const std::int32_t* labels,
                         std::int32_t* preds);
std::size_t argmax_block(SimdIsa isa, const std::int64_t* out, int n_out,
                         int n, const std::int32_t* labels,
                         std::int32_t* preds);

/// The edited neuron of a refine trial, over one row of `n` lanes:
///   acc_out[s] = acc[s] + delta ± ((x[s] & term.mask) << term.shift)
/// (minus when term.neg; `x` is not read when term.mask is 0) and
/// act_out[s] = f(acc_out[s]). Clearing a mask bit is the term of that one
/// bit with the sign flipped; moving a bias is `delta` alone. `act_out` may
/// alias `acc_out`.
void edit_row(SimdIsa isa, const std::int32_t* acc, const std::int32_t* x,
              CompiledConn term, std::int32_t delta,
              Activation f, int n, std::int32_t* acc_out,
              std::int32_t* act_out);
void edit_row(SimdIsa isa, const std::int64_t* acc, const std::int64_t* x,
              CompiledConn term, std::int64_t delta,
              Activation f, int n, std::int64_t* acc_out,
              std::int64_t* act_out);

/// The layer after a refine edit, when only one of its inputs changed
/// (from `old_in` to `new_in`, one row of `n` lanes each). `column[p]` is
/// neuron p's connection to that input (mask pre-ANDed with the layer's
/// input mask; `in` unused). For each of the `n_out` neurons, over planes
/// of stride `n`:
///   acc_out[p] = acc[p] ± (((new_in & m) << k) - ((old_in & m) << k))
///   act_out[p] = f(acc_out[p])
/// A neuron whose mask is 0 keeps its accumulators. `act_out` may alias
/// `acc_out`.
void rank1_update(SimdIsa isa, const std::int32_t* old_in,
                  const std::int32_t* new_in, const CompiledConn* column,
                  int n_out, const std::int32_t* acc, Activation f,
                  int n, std::int32_t* acc_out, std::int32_t* act_out);
void rank1_update(SimdIsa isa, const std::int64_t* old_in,
                  const std::int64_t* new_in, const CompiledConn* column,
                  int n_out, const std::int64_t* acc, Activation f,
                  int n, std::int64_t* acc_out, std::int64_t* act_out);

/// act[s] = f(acc[s]) over `count` contiguous lanes: re-activating a whole
/// block of a layer's accumulator planes when its QReLU shift moved. Rare
/// enough in refine that it has no vector variant.
void activate_lanes(const std::int32_t* acc, std::size_t count, Activation f,
                    std::int32_t* act);
void activate_lanes(const std::int64_t* acc, std::size_t count, Activation f,
                    std::int64_t* act);

}  // namespace pmlp::core
