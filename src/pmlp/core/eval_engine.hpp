// Compiled sparse evaluation engine for the GA training hot path.
//
// `HwAwareProblem::evaluate` runs ~26M times per paper-scale experiment, and
// the naive path re-walks every connection of a freshly decoded `ApproxMlp`
// per sample, heap-allocating two activation vectors per layer per sample.
// This module makes a single evaluation cheap in four steps:
//
//   compile  — flatten a chromosome-decoded `ApproxMlp` into a `CompiledNet`:
//              per layer a CSR array of only the *active* connections
//              (mask & in_mask != 0) with the layer input mask pre-ANDed in,
//              plus the FA-count area (Eq. 2) computed neuron-by-neuron
//              during the same walk (`load_neuron_spec`, shared with
//              `ApproxMlp::fa_area`).
//   planes   — a training set is laid out once, when its problem is built,
//              as `SamplePlanes`: blocks of up to `CompiledNet::kBlockSamples`
//              samples in neuron-major int32 planes, plus int32 labels. Every
//              GA evaluation then reads its layer-1 inputs straight from
//              them; nothing re-transposes the constant dataset.
//   batch    — one block loop sweeps each layer over a block
//              (`EvalWorkspace` flat buffers, zero allocations after warmup)
//              through explicitly vectorized mask-and-accumulate kernels
//              picked by runtime CPU dispatch (AVX2 / NEON / scalar — see
//              simd.hpp, eval_kernels.hpp), then a vectorized first-maximum
//              argmax epilogue classifies the block and counts label
//              matches in the same pass. Row-major callers (serve, RTL
//              export, hardware scoring) enter the same loop; their blocks
//              are transposed into the workspace first.
//   memoize  — a genome-keyed bounded-LRU cache (`EvalCache`) short-circuits
//              re-evaluation of duplicate individuals, which NSGA-II
//              crossover/mutation produce every generation (an offspring
//              that undergoes neither is an exact parent copy).
//
// Results are bit-identical to `ApproxMlp::forward`/`fa_area` by
// construction: the compiled sample loop performs the same int64 additions
// in the same order, merely skipping terms that are provably zero. The
// batched int32 kernels stay bit-identical too: since `(x & mask) <= mask`
// for any input, a per-neuron static bound `|bias| + sum(mask << k)` that
// fits int32 proves no accumulator can ever leave int32 range, so the
// narrow adds produce the same values as the int64 ones (computed once at
// compile time as `block_safe()`; nets that fail it fall back to the
// per-sample path). The epilogue keeps argmax_first's tie rule exactly (a
// later class wins only when strictly greater). The naive path stays as
// the reference oracle (see eval_engine_test), and the per-sample scalar
// path as the kernels' one.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "pmlp/core/approx_mlp.hpp"
#include "pmlp/datasets/dataset.hpp"
#include "pmlp/nsga2/nsga2.hpp"

namespace pmlp::core {

/// First-maximum argmax over integer logits — the tie-breaking rule of
/// ApproxMlp::predict (std::max_element), which CompiledNet::predict uses
/// and argmax_block keeps lane-wise.
[[nodiscard]] inline int argmax_first(std::span<const std::int64_t> logits) {
  int best = 0;
  for (int k = 1; k < static_cast<int>(logits.size()); ++k) {
    if (logits[static_cast<std::size_t>(k)] >
        logits[static_cast<std::size_t>(best)]) {
      best = k;
    }
  }
  return best;
}

/// One active (non-fully-pruned) connection, flattened for the sample loop.
struct CompiledConn {
  std::int32_t in = 0;       ///< input index within the layer
  std::uint32_t mask = 0;    ///< conn mask pre-ANDed with the layer in_mask
  std::int32_t shift = 0;    ///< pow2 exponent k
  std::int32_t neg = 0;      ///< 1 when sign is -1
};

struct CompiledLayer {
  int n_in = 0;
  int n_out = 0;
  bool qrelu = true;
  int qrelu_shift = 0;
  /// CSR layout: neuron o owns conns[conn_begin[o] .. conn_begin[o+1]).
  std::vector<CompiledConn> conns;
  std::vector<std::int32_t> conn_begin;  ///< size n_out + 1
  std::vector<std::int64_t> biases;
};

/// Flatten one layer's active connections (mask & in_mask != 0) into the
/// CSR layout the sample loops read, with its current QReLU shift. When
/// `fa_area` is non-null, the layer's Eq. 2 FA-count is added to it from
/// the same walk. CompiledNet compiles every layer through this; the refine
/// engine recompiles the one layer an accepted edit changed.
[[nodiscard]] CompiledLayer compile_layer(const ApproxLayer& layer,
                                          long* fa_area = nullptr);

/// The static int32-safety proof behind CompiledNet::block_safe():
/// `(x & mask) <= mask` for any input, so |any partial accumulator| of a
/// neuron is at most |bias| + sum(mask << k) over its connections. True
/// when every neuron's bound, every shifted mask and the QReLU clamp
/// `act_max` fit int32. `bias_bound` widens each |bias| to at least that
/// much, covering biases that may later move anywhere in
/// [-bias_bound, bias_bound] (the refine engine's reachable states).
[[nodiscard]] bool layers_block_safe(std::span<const CompiledLayer> layers,
                                     std::int64_t act_max,
                                     std::int64_t bias_bound = 0);

class EvalWorkspace;
class SamplePlanes;

/// A chromosome compiled for repeated inference; cheap to evaluate, fixed
/// after construction. Pruned connections are gone, masks are pre-truncated,
/// and the FA-count area was computed once at compile time.
class CompiledNet {
 public:
  /// Samples per layer-sweep block: small enough that the int32 activation
  /// planes of a paper-scale layer stay L1-resident, large enough to fill
  /// 8-wide AVX2 lanes with slack for tails.
  static constexpr int kBlockSamples = 64;

  CompiledNet() = default;
  /// Compile `net` (QReLU shifts must be current — decode() guarantees it).
  explicit CompiledNet(const ApproxMlp& net);

  [[nodiscard]] int n_inputs() const { return n_inputs_; }
  [[nodiscard]] int n_outputs() const { return n_outputs_; }
  [[nodiscard]] const std::vector<CompiledLayer>& layers() const {
    return layers_;
  }
  /// Paper Eq. 2 FA-count, streamed during compilation; identical to
  /// `ApproxMlp::fa_area()` of the source model.
  [[nodiscard]] long fa_area() const { return fa_area_; }

  /// Output-layer accumulators for one sample, written into `ws` buffers;
  /// the returned span aliases workspace storage (valid until next call).
  [[nodiscard]] std::span<const std::int64_t> forward(
      std::span<const std::uint8_t> x, EvalWorkspace& ws) const;
  /// Argmax class (first maximum, like std::max_element).
  [[nodiscard]] int predict(std::span<const std::uint8_t> x,
                            EvalWorkspace& ws) const;
  /// Fraction of samples classified correctly; allocation-free given a
  /// bound workspace. Transposes each block of the row-major dataset, like
  /// predict_batch; throws std::invalid_argument on a feature-width
  /// mismatch.
  [[nodiscard]] double accuracy(const datasets::QuantizedDataset& d,
                                EvalWorkspace& ws) const;
  /// The same fraction read from planes built once per dataset: layer 1
  /// sweeps straight from `planes` and the epilogue counts label matches
  /// without materializing predictions — the GA fitness path. Bit-identical
  /// to the dataset overload; throws std::invalid_argument on a
  /// feature-width mismatch.
  [[nodiscard]] double accuracy(const SamplePlanes& planes,
                                EvalWorkspace& ws) const;

  /// True when every neuron's static accumulator bound fits int32, i.e. the
  /// sample-blocked kernels are provably bit-identical to the int64 path.
  /// Holds for every net the default BitConfig can decode; predict_batch
  /// falls back to per-sample predict() when false.
  [[nodiscard]] bool block_safe() const { return block_safe_; }

  /// Classify `n` samples stored row-major at `codes` (stride n_inputs()),
  /// one class per sample into `preds`. Transposes each block of
  /// kBlockSamples samples into workspace planes, then runs the shared
  /// block loop; bit-identical to calling predict() per row on every input.
  void predict_batch(const std::uint8_t* codes, std::size_t n,
                     std::int32_t* preds, EvalWorkspace& ws) const;
  /// Whole-dataset batched classification; the returned span aliases `ws`
  /// storage (valid until the next batched call through `ws`).
  [[nodiscard]] std::span<const std::int32_t> predict_batch(
      const datasets::QuantizedDataset& d, EvalWorkspace& ws) const;

 private:
  int n_inputs_ = 0;
  int n_outputs_ = 0;
  int max_width_ = 0;            ///< widest activation vector in the net
  std::int64_t act_max_ = 0;     ///< QReLU clamp, (1 << act_bits) - 1
  std::int32_t act_max32_ = 0;   ///< act_max_ narrowed (valid iff block_safe_)
  bool block_safe_ = false;
  long fa_area_ = 0;
  std::vector<CompiledLayer> layers_;

  /// The one block loop behind predict_batch and both accuracy overloads.
  /// Block inputs come from `planes` when given, else from `n` row-major
  /// samples at `codes`. Each block is swept layer by layer, then the
  /// argmax epilogue writes `preds` (when non-null) and counts matches
  /// against `labels` (when non-null); returns the match count. Nets that
  /// are not block_safe() classify per sample through predict().
  std::size_t run_blocks(std::size_t n, const std::uint8_t* codes,
                         const SamplePlanes* planes,
                         const std::int32_t* labels, std::int32_t* preds,
                         EvalWorkspace& ws) const;

  friend class EvalWorkspace;
};

/// A QuantizedDataset laid out once as the sample-blocked int32 input
/// planes the batched sweep reads. Block k covers samples
/// [64k, 64k + b) with b = min(kBlockSamples, size() - 64k): its
/// n_features() planes of stride b start at offset 64k * n_features(), so
/// blocks are contiguous and the layout costs 4 bytes per code. Labels are
/// kept as int32 in sample order, which the epilogue compares lane-wise.
/// Immutable after construction, so any number of threads may read one.
class SamplePlanes {
 public:
  explicit SamplePlanes(const datasets::QuantizedDataset& d);

  [[nodiscard]] int n_features() const { return n_features_; }
  [[nodiscard]] std::size_t size() const { return labels_.size(); }
  /// Input planes of the block that starts at sample `base` (a multiple of
  /// kBlockSamples).
  [[nodiscard]] const std::int32_t* block(std::size_t base) const {
    return planes_.data() + base * static_cast<std::size_t>(n_features_);
  }
  [[nodiscard]] const std::int32_t* labels() const { return labels_.data(); }
  /// Copy sample `s` back out as row-major codes into `row` (size
  /// n_features()) — the per-sample fallback of nets that are not
  /// block_safe().
  void gather_row(std::size_t s, std::uint8_t* row) const;

 private:
  int n_features_ = 0;
  std::vector<std::int32_t> planes_;
  std::vector<std::int32_t> labels_;
};

/// Reusable flat activation buffers for CompiledNet inference. One per
/// worker thread; grows monotonically, so a single workspace serves every
/// net evaluated by that worker with zero steady-state allocations. Opaque
/// to callers — only CompiledNet::forward touches the buffers.
class EvalWorkspace final : public nsga2::Problem::Workspace {
 private:
  friend class CompiledNet;

  /// Ensure capacity for `net`; cheap when already large enough.
  void bind(const CompiledNet& net);
  /// Ensure block-plane capacity (kBlockSamples × widest layer) for `net`.
  void bind_block(const CompiledNet& net);

  std::vector<std::int64_t> a_;
  std::vector<std::int64_t> b_;
  // Sample-block state: neuron-major int32 activation planes (ping-pong),
  // the per-dataset prediction buffer the span-returning predict_batch hands
  // out, and one gathered row for the non-block_safe() fallback over
  // SamplePlanes.
  std::vector<std::int32_t> block_a_;
  std::vector<std::int32_t> block_b_;
  std::vector<std::int32_t> preds_;
  std::vector<std::uint8_t> row_;
};

/// The worker's own EvalWorkspace when `ws` is one (the PopulationEvaluator
/// path), else `local` — the shared shim for Problem::evaluate overloads.
[[nodiscard]] inline EvalWorkspace& resolve_workspace(
    nsga2::Problem::Workspace* ws, EvalWorkspace& local) {
  auto* workspace = dynamic_cast<EvalWorkspace*>(ws);
  return workspace != nullptr ? *workspace : local;
}

/// Statistics of one EvalCache (and of the evaluations that consulted it).
struct EvalCacheStats {
  long hits = 0;
  long misses = 0;
  [[nodiscard]] long lookups() const { return hits + misses; }
  [[nodiscard]] double hit_rate() const {
    return lookups() == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(lookups());
  }
};

/// Bounded, thread-safe, genome-keyed LRU memo of evaluation results.
/// Keys hash the full gene vector (FNV-1a) and compare exactly, so a hash
/// collision can never return the wrong objectives. Capacity 0 = disabled
/// (every lookup misses, inserts are dropped).
class EvalCache {
 public:
  explicit EvalCache(std::size_t capacity) : capacity_(capacity) {}

  /// Returns true and fills `out` on a hit (refreshing LRU order).
  bool lookup(std::span<const int> genes, nsga2::Problem::Evaluation& out);
  /// Insert (or refresh) the result for `genes`, evicting the LRU entry
  /// beyond capacity.
  void insert(std::span<const int> genes,
              const nsga2::Problem::Evaluation& ev);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] EvalCacheStats stats() const;

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::vector<int> genes;
    nsga2::Problem::Evaluation ev;
  };
  using Lru = std::list<Entry>;

  static std::uint64_t hash_genes(std::span<const int> genes);

  std::size_t capacity_;
  mutable std::mutex mutex_;
  Lru lru_;  ///< front = most recently used
  std::unordered_map<std::uint64_t, Lru::iterator> index_;
  EvalCacheStats stats_;
};

}  // namespace pmlp::core
