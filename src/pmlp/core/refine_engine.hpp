// Incremental evaluation engine for greedy post-GA refinement.
//
// refine_greedy tries thousands of single-parameter edits (clear one mask
// bit, round one bias) and keeps each edit only if training accuracy stays
// above a floor. A trial re-evaluates only what the edit can change, block
// by block, on the sample-blocked planes the GA's batched evaluation uses:
//
//   memo   — every layer's accumulators and activations of the committed
//            net, as neuron-major planes in blocks of
//            CompiledNet::kBlockSamples samples (the SamplePlanes layout).
//            Layer 0 reads the training set's int16 SamplePlanes, which
//            every engine of a front shares read-only, widening one block
//            (or, for a trial, one input row) at a time to the memo's lanes.
//   trial  — per block, with the dispatched kernels of eval_kernels.hpp:
//            the edited neuron's new accumulator and activation from its
//            delta plane (a QReLU-shift change re-activates the whole layer
//            from the stored accumulators); a rank-1 update of the next
//            layer from that one changed input, or a layer_sweep when the
//            whole layer moved, and a layer_sweep of every deeper layer;
//            then argmax_block counts the block's correct samples.
//   abort  — the accuracy floor is known before the scan, so it becomes an
//            exact misclassification budget, checked once per block; the
//            scan stops at the first block that exceeds it.
//   commit — a trial writes only scratch planes. An accepted trial moves
//            them into the memo (a buffer swap per fully rewritten layer, a
//            row copy for the edited neuron); a rejected trial writes
//            nothing, so there is nothing to undo.
//
// Lanes are int32 when a static proof, made once per engine, shows that no
// state refine can reach overflows: reachable_lanes() gives no layer int64
// with every bias range widened to ±2^(bias_bits-1), since refine only
// clears mask bits and moves biases within [bias_min, bias_max]. Its QReLU
// shifts move too, so the proof bounds each term by its mask alone. A net
// that fails the proof runs the same block algorithm on int64 lanes
// through the scalar kernels.
//
// All arithmetic is the adds and shifts of Eq. 4, reordered into exact
// deltas, and the accept test is the naive code's double comparison
// translated into a correct-count threshold by binary search over the
// same predicate. Decisions, reports and final parameters are
// therefore bit-identical to the naive full re-evaluation loop, which
// refine_engine_test keeps as its oracle.
#pragma once

#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "pmlp/core/approx_mlp.hpp"
#include "pmlp/core/eval_engine.hpp"

namespace pmlp::core {

/// Work counters of one RefineEngine (one refine_greedy call).
struct RefineEngineStats {
  long trials = 0;  ///< candidate edits evaluated
  /// Rejected trials. Each one stops early: at the first block whose
  /// running misclassification count exceeds the budget, or before the scan
  /// when no scan could pass. A completed scan always passes.
  long early_aborts = 0;
  /// Trials whose edit moved the edited layer's QReLU shift.
  long shift_trials = 0;
};

/// Incremental trial evaluator bound to one net and one training set. The
/// net is edited in place: a kept trial leaves the edit (and the memoized
/// state) committed, a rejected trial is rolled back completely. Layer
/// QReLU shifts are kept in sync with the current parameters at all times
/// (the invariant the naive loop re-establishes by calling
/// update_qrelu_shifts() before every accuracy()).
class RefineEngine {
 public:
  /// Builds the memoized state over `train`, which must outlive the engine.
  /// `accuracy_before()` reflects the shifts the net arrived with (what the
  /// naive loop's first accuracy() call sees); the engine then syncs every
  /// shift to the current parameters, as the naive loop's first edit would.
  /// Throws std::invalid_argument when the feature width does not match.
  RefineEngine(ApproxMlp& net, const SamplePlanes& train);

  RefineEngine(const RefineEngine&) = delete;
  RefineEngine& operator=(const RefineEngine&) = delete;

  /// Training accuracy of the incoming net, pre shift-sync.
  [[nodiscard]] double accuracy_before() const { return accuracy_before_; }
  /// Training accuracy of the current committed state.
  [[nodiscard]] double accuracy() const;
  /// True when the int32 proof holds and the memo runs on int32 lanes.
  [[nodiscard]] bool int32_lanes() const {
    return std::holds_alternative<Memo<std::int32_t>>(memo_);
  }

  /// Try clearing bit `bit` of conn(o, i) in layer `l` (the bit must be set
  /// and within the layer's input width). Keeps the edit and returns the new
  /// accuracy when it passes the naive accept test `acc + 1e-12 >= min_acc`;
  /// reverts the edit (net and shift) and returns nullopt otherwise.
  std::optional<double> try_clear_mask_bit(int l, int o, int i, int bit,
                                           double min_acc);
  /// Same protocol for replacing neuron (l, o)'s bias with `candidate`
  /// (must differ from the current bias and lie in the BitConfig range).
  std::optional<double> try_set_bias(int l, int o, std::int64_t candidate,
                                     double min_acc);

  [[nodiscard]] const RefineEngineStats& stats() const { return stats_; }

 private:
  /// Committed and scratch planes at lane width T, all in the SamplePlanes
  /// block layout (block at sample `base` starts at `base * width`). A
  /// layer without QReLU keeps its activations in its accumulator planes:
  /// its `act` and `next_act` stay empty.
  template <typename T>
  struct Memo {
    using value_type = T;
    /// Input rows [first, first + count) of the `b`-sample block at
    /// `base`, widened from `planes` into `in0`.
    const T* input(const SamplePlanes& planes, std::size_t base, int b,
                   int first, int count);
    /// Layer l's committed / scratch activation planes.
    T* act_of(std::size_t l, bool qrelu) {
      return (qrelu ? act : acc)[l].data();
    }
    T* next_act_of(std::size_t l, bool qrelu) {
      return (qrelu ? next_act : next_acc)[l].data();
    }

    std::vector<std::vector<T>> acc, act;            ///< committed, per layer
    std::vector<std::vector<T>> next_acc, next_act;  ///< trial scratch
    std::vector<T> row_acc, row_act;  ///< the edited neuron's new row
    std::vector<T> in0;  ///< one block of widened layer-0 input planes
  };

  /// Smallest correct-count passing `acc + 1e-12 >= min_acc`; n_samples + 1
  /// when even a perfect scan cannot pass.
  [[nodiscard]] long min_correct_for(double min_acc) const;
  template <typename T>
  void rebuild(Memo<T>& m);
  /// Runs one trial on neuron (l, o) of the already-edited net: `term` and
  /// `delta` give the edited accumulator's change (see edit_row), and the
  /// layer's QReLU shift is already set to its post-edit value. Commits
  /// and returns the accuracy on pass; returns nullopt with the memo
  /// untouched on fail (the caller reverts the net).
  std::optional<double> trial(int l, int o, const CompiledConn& term,
                              std::int64_t delta, double min_acc);
  template <typename T>
  std::optional<double> run_trial(Memo<T>& m, int l, int o,
                                  const CompiledConn& term, T delta,
                                  double min_acc);

  ApproxMlp& net_;
  const SamplePlanes& train_;
  std::size_t n_samples_ = 0;
  int n_layers_ = 0;
  std::int64_t act_max_ = 0;  ///< QReLU clamp, (1 << act_bits) - 1
  double accuracy_before_ = 0.0;
  long n_correct_ = 0;

  std::vector<CompiledLayer> layers_;  ///< the committed parameters
  std::vector<CompiledConn> column_;   ///< rank-1 scratch: next layer's column
  std::variant<Memo<std::int32_t>, Memo<std::int64_t>> memo_;

  RefineEngineStats stats_;
};

}  // namespace pmlp::core
