// Sample-blocked batched backprop engine — the gradient-descent twin of the
// eval engine (core/eval_engine.hpp), replacing the per-sample
// allocation-per-trace scalar loop of train_backprop_naive on the flow's
// backprop stage.
//
// A minibatch is processed as fixed-size sample blocks of kBlockSamples
// samples. Each block is self-contained: its samples are gathered into
// neuron-major double planes held in a reusable TrainWorkspace (activation
// planes for every layer level, ping-pong delta planes, one gradient shard
// per block — zero heap allocations after the first batch), then swept
// layer-by-layer through the runtime-dispatched FMA kernels of
// train_kernels.hpp (AVX2 / NEON / scalar, PMLP_SIMD knob honored).
// Forward, output softmax-CE, weight-gradient accumulation and delta
// back-propagation each run as whole-layer sweeps instead of per-sample
// loops.
//
// Parallelism: blocks of one batch fan out over a borrowed ThreadPool
// (per-chunk plane scratch, per-BLOCK gradient shards). A batch of at most
// kBlockSamples samples is one block and runs on the caller, so at the
// default batch_size of 32 (= kBlockSamples) training is serial at every
// pool size; batches fan out only when batch_size > kBlockSamples.
// Because the block partition depends only on the batch layout — never on
// the pool size — and the shards are reduced into the batch gradient in
// fixed block order, results are bit-identical across pool sizes and
// across repeated runs.
//
// Determinism contract (stated once, tested in train_engine_test):
//   * bit-identical across pool sizes and across runs for a given ISA;
//   * per-sample forward/delta arithmetic is ISA-independent in ORDER (one
//     sample per SIMD lane), but the SIMD variants contract multiply-add
//     into FMA and the gradient's cross-sample reduction is lane-strided,
//     so — unlike the eval engine's int32 kernels — results across ISAs
//     (and vs the train_backprop_naive oracle) agree only within a
//     loss/accuracy tolerance, not bit for bit;
//   * consequently the flow checkpoint fingerprint excludes the ISA the
//     same way it already excludes thread counts: a checkpoint trained
//     under one ISA resumes under another by RELOADING the stored float
//     net, which keeps the flow bit-identical to the original run.
#pragma once

#include <cstdint>
#include <vector>

#include "pmlp/core/simd.hpp"
#include "pmlp/datasets/dataset.hpp"
#include "pmlp/mlp/backprop.hpp"
#include "pmlp/mlp/float_mlp.hpp"

namespace pmlp::mlp {

/// Reusable flat buffers for TrainEngine: per-worker activation/delta
/// planes, per-block gradient shards, the reduced batch gradient and the
/// momentum state. Grows monotonically; one engine's workspace serves every
/// net it trains with zero steady-state allocations. Opaque to callers.
class TrainWorkspace {
 private:
  friend class TrainEngine;

  struct Worker {
    std::vector<double> act;      ///< stacked neuron-major planes, level 0..L
    std::vector<double> delta_a;  ///< ping-pong delta planes (max width)
    std::vector<double> delta_b;
  };

  std::vector<Worker> workers_;
  std::vector<double> shards_;      ///< per-block gradients, block-major
  std::vector<double> block_loss_;  ///< per-block CE-loss partials
  std::vector<double> grad_;        ///< shards reduced in block order
  std::vector<double> velocity_;    ///< momentum SGD state
};

/// One engine per (dataset, config) pair; train() may be called repeatedly
/// (train_float_mlp reuses one engine — and its workspace — across
/// restarts). The dataset and the borrowed pool must outlive the engine.
class TrainEngine {
 public:
  /// Samples per block: the per-worker scheduling AND determinism unit.
  /// Small enough that the double planes of a paper-scale layer stay
  /// L1-resident, large enough to fill 4-wide AVX2 lanes with slack.
  static constexpr int kBlockSamples = 32;

  /// Blocks fan out over `pool` (only when batch_size > kBlockSamples);
  /// null trains serially on the caller.
  TrainEngine(const datasets::Dataset& train, const BackpropConfig& cfg,
              core::ThreadPool* pool = nullptr);

  TrainEngine(const TrainEngine&) = delete;
  TrainEngine& operator=(const TrainEngine&) = delete;

  /// Train `net` in place with cfg.seed (resp. `seed`) driving the epoch
  /// shuffles. Throws std::invalid_argument when the net does not fit the
  /// dataset (feature width, label range).
  BackpropReport train(FloatMlp& net);
  BackpropReport train(FloatMlp& net, std::uint64_t seed);

 private:
  void bind(const FloatMlp& net);
  void run_block(const FloatMlp& net, const std::vector<std::size_t>& order,
                 std::size_t start, int nb, std::size_t block,
                 std::size_t worker, core::SimdIsa isa);
  [[nodiscard]] double blocked_accuracy(const FloatMlp& net,
                                        core::SimdIsa isa);

  const datasets::Dataset& train_;
  BackpropConfig cfg_;
  core::ThreadPool* pool_;  ///< borrowed; null when serial
  TrainWorkspace ws_;
  std::vector<std::size_t> order_;  ///< epoch shuffle order, reused

  // Per-net layout, rebuilt by bind() (cheap; restarts share one topology).
  // Activation plane offsets are capacity-based (stride kBlockSamples), the
  // kernels then use the block's tight stride nb inside each plane.
  std::vector<int> widths_;            ///< layer level widths, size L+1
  std::vector<std::size_t> act_off_;   ///< plane offsets, size L+1
  std::vector<std::size_t> w_off_;     ///< per-layer dw offset into grad
  std::vector<std::size_t> b_off_;     ///< per-layer db offset into grad
  std::size_t n_params_ = 0;
  int max_width_ = 0;
};

}  // namespace pmlp::mlp
