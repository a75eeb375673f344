// Sample-blocked layer-sweep kernels behind the runtime SIMD dispatch.
//
// A block holds up to CompiledNet::kBlockSamples samples in neuron-major
// int32 planes: the value of input/activation `i` for sample `s` lives at
// `in[i * n + s]`, stride `n` = the block's sample count. Sweeping a layer
// is then a mask-and-accumulate over contiguous lanes — the Eq. 4 inner
// loop `acc += ±((x & mask) << k)` vectorizes directly on int32 lanes
// (8-wide AVX2, 4-wide NEON), with QReLU as max/shift/min on the same
// registers.
//
// Every variant performs the same int32 additions in the same per-neuron
// order as the scalar per-sample path, so results are bit-identical across
// ISAs; the caller guarantees int32 cannot overflow (the static per-neuron
// bound |bias| + Σ(mask << k) — see CompiledNet::block_safe()).
//
// Around the sweep sit the block's prologue and epilogue: the row-major →
// plane transpose (the only place rows become planes) and the argmax over
// the output planes, which vectorizes across samples the same way.
#pragma once

#include <cstddef>
#include <cstdint>

#include "pmlp/core/simd.hpp"

namespace pmlp::core {

struct CompiledLayer;

/// Sweep one compiled layer over a block of `n` samples. Reads neuron-major
/// input planes `in` (stride `n`), writes raw accumulator planes to `acc`
/// and activation planes (QReLU applied, or the raw accumulator when the
/// layer has none) to `act`; `act` may alias `acc` when the caller only
/// needs activations. `isa` selects the variant; an ISA this binary lacks
/// falls back to scalar.
void layer_sweep(SimdIsa isa, const CompiledLayer& layer,
                 const std::int32_t* in, std::int32_t* acc, std::int32_t* act,
                 int n, std::int32_t act_max);

/// Lay `n` row-major samples of `n_features` codes each (`rows`, stride
/// `n_features`) out as neuron-major planes: feature `i` of sample `s` goes
/// to `planes[i * n + s]`.
void transpose_block(const std::uint8_t* rows, int n_features, int n,
                     std::int32_t* planes);

/// First-maximum argmax per sample over `n_out` output planes (stride `n`)
/// of one block — the tie-breaking rule of argmax_first: a later class wins
/// only when strictly greater. Writes each class to `preds[s]` when `preds`
/// is non-null and returns how many samples' class equals `labels[s]` (0
/// when `labels` is null). `isa` selects the variant: AVX2 compares with
/// strict greater-than and blends the class index across 8 samples at a
/// time; every other ISA takes the scalar loop, the variants' oracle.
std::size_t argmax_block(SimdIsa isa, const std::int32_t* out, int n_out,
                         int n, const std::int32_t* labels,
                         std::int32_t* preds);

}  // namespace pmlp::core
