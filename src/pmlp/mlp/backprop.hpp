// Mini-batch SGD with momentum on softmax cross-entropy — the conventional
// gradient-based training the paper compares against in Table III.
//
// train_backprop() runs the sample-blocked SIMD TrainEngine
// (train_engine.hpp). The original per-sample scalar loop it is tested
// against lives outside the library, in oracles/backprop_oracle.hpp.
#pragma once

#include <cstdint>
#include <string>

#include "pmlp/datasets/dataset.hpp"
#include "pmlp/mlp/float_mlp.hpp"

namespace pmlp::core {
class ThreadPool;
}  // namespace pmlp::core

namespace pmlp::mlp {

struct BackpropConfig {
  int epochs = 300;
  int batch_size = 32;
  double learning_rate = 0.05;
  double momentum = 0.9;
  double lr_decay = 0.995;   ///< multiplicative per-epoch decay
  double l2 = 1e-5;          ///< weight decay
  /// Gradient passed through inactive ReLUs (forward stays exact ReLU);
  /// keeps 2-5-neuron hidden layers from dying irrecoverably.
  double relu_leak = 0.05;
  /// train_float_mlp() trains `restarts` nets from different seeds and
  /// keeps the most accurate — cheap insurance for tiny topologies.
  int restarts = 3;
  std::uint64_t seed = 1;
};

struct BackpropReport {
  double final_train_accuracy = 0.0;
  double final_loss = 0.0;
  int epochs_run = 0;
  double wall_seconds = 0.0;  ///< measured training time (Table III)
  /// Training throughput over the full run (epochs_run * n / wall).
  double samples_per_second = 0.0;
  // Runtime machine metadata (like TrainingResult::simd_isa) — NOT
  // serialized into checkpoints and never part of any fingerprint.
  std::string simd_isa;  ///< dispatched kernel ISA ("" for the naive loop)
  int block = 0;         ///< engine block size (0 for the naive loop)
  int threads = 1;       ///< borrowed pool size (1 when serial)
};

/// Train `net` in place with the blocked SIMD TrainEngine on the borrowed
/// `pool` (null = serial; bit-identical for any pool); returns a report
/// with the wall time and throughput.
BackpropReport train_backprop(FloatMlp& net, const datasets::Dataset& train,
                              const BackpropConfig& cfg,
                              core::ThreadPool* pool = nullptr);

/// Convenience: init + train (engine-backed, cfg.restarts restarts sharing
/// one TrainEngine on the borrowed `pool`) + return the most accurate
/// network. When `report` is non-null it receives the whole stage's cost,
/// epochs_run and wall_seconds summed over every restart and
/// samples_per_second over that total, with the kept restart's
/// final_train_accuracy and final_loss.
[[nodiscard]] FloatMlp train_float_mlp(const Topology& topology,
                                       const datasets::Dataset& train,
                                       const BackpropConfig& cfg,
                                       BackpropReport* report = nullptr,
                                       core::ThreadPool* pool = nullptr);

}  // namespace pmlp::mlp
