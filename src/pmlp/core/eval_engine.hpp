// Compiled sparse evaluation engine for the GA training hot path.
//
// `HwAwareProblem::evaluate` runs ~26M times per paper-scale experiment, and
// the naive walk (oracles/eq4_oracle) re-walks every connection of a freshly
// decoded `ApproxMlp` per sample, heap-allocating an activation vector per
// layer per sample. This module is the library's one Eq. 4 evaluator; it
// makes a single evaluation cheap in four steps:
//
//   compile  — flatten a chromosome-decoded `ApproxMlp` into a `CompiledNet`:
//              per layer a CSR array of only the *active* connections
//              (mask & in_mask != 0) with the layer input mask pre-ANDed in,
//              plus the FA-count area (Eq. 2) computed neuron-by-neuron
//              during the same walk (`load_neuron_spec`, shared with
//              `ApproxMlp::fa_area`). On the GA path each neuron's FA count
//              comes from the worker's `FaMemo` when that exact neuron was
//              priced before: offspring are mostly near-copies, so most of
//              their neurons repeat.
//   planes   — a training set is laid out once, when its problem is built,
//              as `SamplePlanes`: blocks of up to `CompiledNet::kBlockSamples`
//              samples in neuron-major int16 planes, plus int32 labels. Every
//              GA evaluation then reads its layer-1 inputs straight from
//              them; nothing re-transposes the constant dataset.
//   batch    — one block loop sweeps each layer over a block
//              (`EvalWorkspace` flat buffers, zero allocations after warmup)
//              through explicitly vectorized mask-and-accumulate kernels
//              picked by runtime CPU dispatch (AVX2 / NEON / scalar — see
//              simd.hpp, eval_kernels.hpp), each layer on the narrowest lanes
//              its value-range proof allows, then a vectorized first-maximum
//              argmax epilogue classifies the block and counts label
//              matches in the same pass. Row-major callers (serve, RTL
//              export, hardware scoring, one-sample predict) enter the
//              same loop; their blocks are transposed into the workspace
//              first.
//   memoize  — a genome-keyed bounded-LRU cache (`EvalCache`) short-circuits
//              re-evaluation of duplicate individuals, which NSGA-II
//              crossover/mutation produce every generation (an offspring
//              that undergoes neither is an exact parent copy).
//
// Results are bit-identical to the naive walk and `ApproxMlp::fa_area` by
// construction: the int64 lanes perform the naive walk's additions in the
// same order, merely skipping terms that are provably zero, and the FA memo
// compares full neuron keys. The narrower lanes stay bit-identical too. A
// value-range proof (`accumulator_ranges`) walks the net once at compile
// time: inputs are uint8 codes, `(x & mask) <= min(mask, xmax)` for any
// input x <= xmax, so every partial sum of a neuron lies in
// [b - sum(neg term maxima), b + sum(pos term maxima)], and a QReLU layer
// hands on xmax = min(act_max, max(hi, 0) >> shift) to the next. When
// every range, term and the clamp `act_max` fit a lane type, the narrow
// adds produce the same values as the int64 ones. The proof picks each
// layer's lanes (`lanes()`): int16 (every first layer the default
// BitConfig decodes, and most output layers behind it), int32, or int64
// for a layer neither fits — the same block loop, on scalar int64
// kernels. The epilogue keeps std::max_element's tie rule exactly (a later
// class wins only when strictly greater). The naive walk is the reference
// oracle (see eval_engine_test), and each lane width's scalar loop its
// kernels' one.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <span>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "pmlp/core/approx_mlp.hpp"
#include "pmlp/core/simd.hpp"
#include "pmlp/datasets/dataset.hpp"
#include "pmlp/nsga2/nsga2.hpp"

namespace pmlp::core {

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

/// Per-worker memo of per-neuron Eq. 2 FA counts: a direct-mapped table of
/// kSlots entries, each keyed exactly by one neuron's adder spec (bias,
/// then every active summand's mask, shift, input width and sign, in
/// order). A probe hashes the key to one slot and hits only when that slot
/// holds the same key, so a hit returns what `adder::estimate_adder` would.
/// Keys live in one flat array of kSlots fixed-stride rows (the widest key
/// seen so far; a wider one re-lays the table out empty): 39 KB for
/// Pendigits' 16-input layer. 512 slots catch 74-85% of a Table I GA
/// flow's neurons; 1024 caught 1-5 points more for twice the memory.
/// Not thread-safe: each EvalWorkspace owns one.
class FaMemo {
 public:
  static constexpr std::size_t kSlots = 512;

  struct Stats {
    long hits = 0;
    long misses = 0;     ///< priced by estimate_adder
    long evictions = 0;  ///< misses that replaced another key
  };

  /// `adder::estimate_adder(spec).total_fa()`, read from the table when
  /// priced before. A spec whose fields do not fit the packed key (a bias
  /// beyond int32, a mask beyond 16 bits, a shift or width beyond 127) is
  /// priced directly and counts as a miss.
  [[nodiscard]] int total_fa(const adder::NeuronAdderSpec& spec);
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// Row k holds slot k's key: its word count (0 = empty), then the
  /// bias and one word per summand.
  std::vector<std::uint32_t> keys_;
  std::vector<int> fa_;                ///< FA count per slot
  std::size_t stride_ = 0;             ///< words per row
  std::vector<std::uint32_t> probe_;   ///< the current spec's key
  Stats stats_;
};

/// Flatten one layer's active connections (mask & in_mask != 0) into the
/// CSR layout the sample loops read, with its current QReLU shift. When
/// `fa_area` is non-null, the layer's Eq. 2 FA-count is added to it from
/// the same walk, priced through `memo` when one is given. CompiledNet
/// compiles every layer through this; the refine engine recompiles the one
/// layer an accepted edit changed.
[[nodiscard]] CompiledLayer compile_layer(const ApproxLayer& layer,
                                          long* fa_area = nullptr,
                                          FaMemo* memo = nullptr);

/// Lane width of a layer's block sweep, narrowest first.
enum class LaneType : std::uint8_t { kInt16, kInt32, kInt64 };

/// The interval that every partial sum of one neuron's accumulator (bias
/// first, then each active term in order) lies in.
struct AccRange {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

/// The value-range proof of a fixed net, per layer and neuron. Layer 1's
/// inputs are uint8 codes (xmax 255); a term's maximum is
/// min(mask, xmax[in]) << k; a neuron's range is [b - sum of its negative
/// terms' maxima, b + sum of its positive ones']; a QReLU layer hands
/// xmax[o] = min(act_max, max(hi, 0) >> qrelu_shift) to the next layer
/// (a layer without QReLU hands on no bound beyond the masks). Bounds
/// saturate far beyond int32, so an overflowing net reads as one.
[[nodiscard]] std::vector<std::vector<AccRange>> accumulator_ranges(
    std::span<const CompiledLayer> layers, std::int64_t act_max);

/// Per layer, the narrowest lane type T that accumulator_ranges() proves
/// exact: every neuron's range, every term's maximum, every shift (below
/// T's value bits) and the QReLU clamp `act_max` fit T; kInt64 when
/// neither int16 nor int32 does.
[[nodiscard]] std::vector<LaneType> layer_lanes(
    std::span<const CompiledLayer> layers, std::int64_t act_max);

/// The same per-layer lane rule over every state the refine engine can
/// reach from these layers: it clears mask bits, moves biases anywhere in
/// [-bias_bound, bias_bound] and re-derives QReLU shifts, so no input
/// bound beyond the masks holds (a term's maximum is mask << k) and each
/// bias range widens to cover [-bias_bound, bias_bound].
[[nodiscard]] std::vector<LaneType> reachable_lanes(
    std::span<const CompiledLayer> layers, std::int64_t act_max,
    std::int64_t bias_bound);

class EvalWorkspace;
class SamplePlanes;

/// A chromosome compiled for repeated inference; cheap to evaluate, fixed
/// after construction. Pruned connections are gone, masks are pre-truncated,
/// and the FA-count area was computed once at compile time.
class CompiledNet {
 public:
  /// Samples per layer-sweep block: small enough that the activation
  /// planes of a paper-scale layer stay L1-resident, and exactly four
  /// 16-lane AVX2 int16 vectors (eight int32 ones).
  static constexpr int kBlockSamples = 64;

  CompiledNet() = default;
  /// Compile `net` (QReLU shifts must be current — decode() guarantees it).
  explicit CompiledNet(const ApproxMlp& net);
  /// The same compile, pricing each neuron's Eq. 2 FA count through `ws`'s
  /// FaMemo (the GA fitness path); fa_area() is identical.
  CompiledNet(const ApproxMlp& net, EvalWorkspace& ws);

  [[nodiscard]] int n_inputs() const { return n_inputs_; }
  [[nodiscard]] int n_outputs() const { return n_outputs_; }
  [[nodiscard]] const std::vector<CompiledLayer>& layers() const {
    return layers_;
  }
  /// Paper Eq. 2 FA-count, streamed during compilation; identical to
  /// `ApproxMlp::fa_area()` of the source model.
  [[nodiscard]] long fa_area() const { return fa_area_; }

  /// Argmax class of one sample (first maximum, like std::max_element):
  /// a one-sample pass through the block loop. Throws
  /// std::invalid_argument unless `x` holds n_inputs() codes.
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

  /// The lane type each layer's block sweep runs at: layer_lanes() made
  /// non-decreasing through the net, so every layer's input planes are
  /// exact at its own width. Every net the default BitConfig decodes runs
  /// its first layer on int16 and none on int64; its output layer runs
  /// int16 whenever the hidden activations' proven ranges allow. A block
  /// shorter than one int16 vector runs int16 layers on int32 lanes
  /// (use_int16_lanes).
  [[nodiscard]] std::span<const LaneType> lanes() const { return lanes_; }

  /// Classify `n` samples stored row-major at `codes` (stride n_inputs()),
  /// one class per sample into `preds`. Transposes each block of
  /// kBlockSamples samples into workspace planes, then runs the shared
  /// block loop.
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
  long fa_area_ = 0;
  std::vector<CompiledLayer> layers_;
  std::vector<LaneType> lanes_;

  CompiledNet(const ApproxMlp& net, FaMemo* memo);

  /// The one block loop behind predict, predict_batch and both accuracy
  /// overloads. Block inputs come from `planes` when given, else from `n`
  /// row-major samples at `codes`. Each block is swept layer by layer, then
  /// the argmax epilogue writes `preds` (when non-null) and counts matches
  /// against `labels` (when non-null); returns the match count.
  std::size_t run_blocks(std::size_t n, const std::uint8_t* codes,
                         const SamplePlanes* planes,
                         const std::int32_t* labels, std::int32_t* preds,
                         EvalWorkspace& ws) const;

  /// One block's walk through run_blocks: its size, the narrowest lanes it
  /// may use, and where the epilogue reads labels and writes classes.
  struct BlockPass {
    SimdIsa isa;
    int n;
    LaneType floor;
    const std::int32_t* labels;
    std::int32_t* preds;
  };
  /// Sweep layers [l, end) of one block from input planes `in`, then run
  /// the argmax epilogue; returns the block's match count.
  template <typename TIn>
  std::size_t sweep_from(std::size_t l, const TIn* in, const BlockPass& pass,
                         EvalWorkspace& ws) const;
  /// Sweep the run of layers from `l` that share lane type T on T's
  /// workspace planes, widening `in` first when it is narrower. An int16
  /// run followed by an int32 one widens on store instead: its last layer
  /// writes the int32 run's input planes.
  template <typename T, typename TIn>
  std::size_t sweep_run(std::size_t l, const TIn* in, const BlockPass& pass,
                        EvalWorkspace& ws) const;

  friend class EvalWorkspace;
};

/// A QuantizedDataset laid out once as the sample-blocked int16 input
/// planes the batched sweep reads. Block k covers samples
/// [64k, 64k + b) with b = min(kBlockSamples, size() - 64k): its
/// n_features() planes of stride b start at offset 64k * n_features(), so
/// blocks are contiguous and the layout costs 2 bytes per code. Labels are
/// kept as int32 in sample order, which the epilogue compares lane-wise.
/// Immutable after construction, so any number of threads may read one.
class SamplePlanes {
 public:
  explicit SamplePlanes(const datasets::QuantizedDataset& d);

  [[nodiscard]] int n_features() const { return n_features_; }
  [[nodiscard]] std::size_t size() const { return labels_.size(); }
  /// Input planes of the block that starts at sample `base` (a multiple of
  /// kBlockSamples).
  [[nodiscard]] const std::int16_t* block(std::size_t base) const {
    return planes_.data() + base * static_cast<std::size_t>(n_features_);
  }
  [[nodiscard]] const std::int32_t* labels() const { return labels_.data(); }

 private:
  int n_features_ = 0;
  std::vector<std::int16_t> planes_;
  std::vector<std::int32_t> labels_;
};

/// Reusable flat activation buffers for CompiledNet inference, and the
/// worker's FaMemo. One per worker thread; grows monotonically, so a single
/// workspace serves every net evaluated by that worker with zero
/// steady-state allocations. Opaque to callers — only CompiledNet touches
/// the buffers and the memo.
class EvalWorkspace final : public nsga2::Problem::Workspace {
 public:
  [[nodiscard]] const FaMemo::Stats& fa_memo_stats() const {
    return fa_memo_.stats();
  }

 private:
  friend class CompiledNet;

  /// Neuron-major activation planes of one lane type (ping-pong), sized
  /// on first use to kBlockSamples × the widest layer.
  template <typename T>
  struct BlockLanes {
    std::vector<T> a, b;
    void reserve(std::size_t need) {
      if (a.size() < need) {
        a.resize(need);
        b.resize(need);
      }
    }
  };
  template <typename T>
  BlockLanes<T>& lanes() {
    return std::get<BlockLanes<T>>(lanes_);
  }

  // Sample-block state: block planes per lane type, and the per-dataset
  // prediction buffer the span-returning predict_batch hands out.
  std::tuple<BlockLanes<std::int16_t>, BlockLanes<std::int32_t>,
             BlockLanes<std::int64_t>>
      lanes_;
  std::vector<std::int32_t> preds_;
  FaMemo fa_memo_;
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
