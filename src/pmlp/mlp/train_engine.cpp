#include "pmlp/mlp/train_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <numeric>
#include <random>
#include <stdexcept>

#include "pmlp/core/thread_pool.hpp"
#include "pmlp/mlp/train_kernels.hpp"

namespace pmlp::mlp {

TrainEngine::TrainEngine(const datasets::Dataset& train,
                         const BackpropConfig& cfg, core::ThreadPool* pool)
    : train_(train), cfg_(cfg), pool_(pool) {}

void TrainEngine::bind(const FloatMlp& net) {
  const auto& layers = net.layers();
  if (layers.empty()) {
    throw std::invalid_argument("TrainEngine: net has no layers");
  }
  if (layers.front().n_in != train_.n_features) {
    throw std::invalid_argument(
        "TrainEngine: net input width does not match dataset features");
  }
  const int n_out = layers.back().n_out;
  for (const int y : train_.labels) {
    if (y < 0 || y >= n_out) {
      throw std::invalid_argument(
          "TrainEngine: dataset label outside net output range");
    }
  }

  const auto n_levels = layers.size() + 1;
  widths_.resize(n_levels);
  widths_[0] = layers.front().n_in;
  for (std::size_t l = 0; l < layers.size(); ++l) {
    widths_[l + 1] = layers[l].n_out;
  }
  act_off_.resize(n_levels);
  std::size_t off = 0;
  max_width_ = 0;
  for (std::size_t l = 0; l < n_levels; ++l) {
    act_off_[l] = off;
    off += static_cast<std::size_t>(widths_[l]) * kBlockSamples;
    max_width_ = std::max(max_width_, widths_[l]);
  }
  const std::size_t act_cap = off;

  w_off_.resize(layers.size());
  b_off_.resize(layers.size());
  std::size_t p = 0;
  for (std::size_t l = 0; l < layers.size(); ++l) {
    w_off_[l] = p;
    p += layers[l].weights.size();
    b_off_[l] = p;
    p += layers[l].biases.size();
  }
  n_params_ = p;

  const auto n_workers = static_cast<std::size_t>(core::pool_size(pool_));
  const auto delta_cap = static_cast<std::size_t>(max_width_) * kBlockSamples;
  if (ws_.workers_.size() < n_workers) ws_.workers_.resize(n_workers);
  for (auto& wk : ws_.workers_) {
    if (wk.act.size() < act_cap) wk.act.resize(act_cap);
    if (wk.delta_a.size() < delta_cap) wk.delta_a.resize(delta_cap);
    if (wk.delta_b.size() < delta_cap) wk.delta_b.resize(delta_cap);
  }
  if (ws_.grad_.size() < n_params_) ws_.grad_.resize(n_params_);
  if (ws_.velocity_.size() < n_params_) ws_.velocity_.resize(n_params_);
}

void TrainEngine::run_block(const FloatMlp& net,
                            const std::vector<std::size_t>& order,
                            std::size_t start, int nb, std::size_t block,
                            std::size_t worker, core::SimdIsa isa) {
  auto& wk = ws_.workers_[worker];
  const auto& layers = net.layers();
  const int nf = train_.n_features;

  // Gather the block's rows into the level-0 neuron-major plane.
  const double* feats = train_.features.data();
  double* a0 = wk.act.data();
  for (int s = 0; s < nb; ++s) {
    const double* row =
        feats + order[start + static_cast<std::size_t>(s)] *
                    static_cast<std::size_t>(nf);
    for (int i = 0; i < nf; ++i) {
      a0[static_cast<std::size_t>(i) * nb + s] = row[i];
    }
  }

  // Forward sweep: hidden layers ReLU, output layer linear.
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const auto& layer = layers[l];
    train_forward_sweep(isa, layer.weights.data(), layer.biases.data(),
                        layer.n_in, layer.n_out, wk.act.data() + act_off_[l],
                        wk.act.data() + act_off_[l + 1], nb,
                        l + 1 < layers.size());
  }

  // Output softmax-CE: the dispatched softmax sweep fills the delta plane
  // with probabilities (the scalar variant replicates the naive oracle's
  // per-sample arithmetic exactly), then a scalar ascending-s pass takes the
  // clamped-log loss and subtracts the one-hot target — the same per-sample
  // loss additions, in the same order, as the oracle.
  const int n_out = layers.back().n_out;
  const double* z = wk.act.data() + act_off_[layers.size()];
  double* delta = wk.delta_a.data();
  train_softmax_sweep(isa, z, n_out, nb, delta);
  double loss = 0.0;
  for (int s = 0; s < nb; ++s) {
    const int y = train_.labels[order[start + static_cast<std::size_t>(s)]];
    loss -= std::log(
        std::max(delta[static_cast<std::size_t>(y) * nb + s], 1e-12));
    delta[static_cast<std::size_t>(y) * nb + s] -= 1.0;
  }
  ws_.block_loss_[block] = loss;

  // Backward sweep into this block's own gradient shard.
  double* shard = ws_.shards_.data() + block * n_params_;
  double* dcur = wk.delta_a.data();
  double* dnext = wk.delta_b.data();
  for (int l = static_cast<int>(layers.size()) - 1; l >= 0; --l) {
    const auto& layer = layers[static_cast<std::size_t>(l)];
    const double* in_act =
        wk.act.data() + act_off_[static_cast<std::size_t>(l)];
    train_grad_sweep(isa, dcur, in_act, layer.n_in, layer.n_out, nb,
                     shard + w_off_[static_cast<std::size_t>(l)],
                     shard + b_off_[static_cast<std::size_t>(l)]);
    if (l > 0) {
      train_delta_sweep(isa, layer.weights.data(), layer.n_in, layer.n_out,
                        dcur, in_act, dnext, nb, cfg_.relu_leak);
      std::swap(dcur, dnext);
    }
  }
}

double TrainEngine::blocked_accuracy(const FloatMlp& net, core::SimdIsa isa) {
  const std::size_t n = train_.size();
  if (n == 0) return 0.0;
  const auto& layers = net.layers();
  auto& wk = ws_.workers_[0];
  const int nf = train_.n_features;
  const int n_out = layers.back().n_out;
  const double* feats = train_.features.data();
  std::size_t correct = 0;
  for (std::size_t start = 0; start < n; start += kBlockSamples) {
    const int nb = static_cast<int>(
        std::min<std::size_t>(n - start, kBlockSamples));
    double* a0 = wk.act.data();
    for (int s = 0; s < nb; ++s) {
      const double* row = feats + (start + static_cast<std::size_t>(s)) *
                                      static_cast<std::size_t>(nf);
      for (int i = 0; i < nf; ++i) {
        a0[static_cast<std::size_t>(i) * nb + s] = row[i];
      }
    }
    for (std::size_t l = 0; l < layers.size(); ++l) {
      const auto& layer = layers[l];
      train_forward_sweep(isa, layer.weights.data(), layer.biases.data(),
                          layer.n_in, layer.n_out, wk.act.data() + act_off_[l],
                          wk.act.data() + act_off_[l + 1], nb,
                          l + 1 < layers.size());
    }
    const double* z = wk.act.data() + act_off_[layers.size()];
    for (int s = 0; s < nb; ++s) {
      int best = 0;
      for (int o = 1; o < n_out; ++o) {
        // First max wins, matching std::max_element in FloatMlp::predict.
        if (z[static_cast<std::size_t>(o) * nb + s] >
            z[static_cast<std::size_t>(best) * nb + s]) {
          best = o;
        }
      }
      if (best == train_.labels[start + static_cast<std::size_t>(s)]) {
        ++correct;
      }
    }
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

BackpropReport TrainEngine::train(FloatMlp& net) {
  return train(net, cfg_.seed);
}

BackpropReport TrainEngine::train(FloatMlp& net, std::uint64_t seed) {
  const auto t0 = std::chrono::steady_clock::now();
  const core::SimdIsa isa = core::active_simd_isa();
  bind(net);

  auto& layers = net.layers();
  const std::size_t n = train_.size();
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::mt19937_64 rng(seed);

  const auto batch_size =
      static_cast<std::size_t>(std::max(1, cfg_.batch_size));
  const std::size_t max_blocks =
      n == 0 ? 0
             : (std::min(batch_size, n) + kBlockSamples - 1) / kBlockSamples;
  if (ws_.shards_.size() < max_blocks * n_params_) {
    ws_.shards_.resize(max_blocks * n_params_);
  }
  if (ws_.block_loss_.size() < max_blocks) {
    ws_.block_loss_.resize(max_blocks);
  }
  std::fill(ws_.velocity_.begin(), ws_.velocity_.end(), 0.0);

  // Current batch bounds, read by the pooled runner (one std::function for
  // the whole call — no per-batch allocation).
  std::size_t batch_start = 0;
  std::size_t n_blocks = 0;
  const std::size_t batch_end_cap = n;
  std::function<void(std::size_t, std::size_t, std::size_t)> runner =
      [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
        for (std::size_t b = lo; b < hi; ++b) {
          const std::size_t bs = batch_start + b * kBlockSamples;
          const std::size_t be =
              std::min({batch_end_cap, batch_start + batch_size,
                        bs + kBlockSamples});
          run_block(net, order_, bs, static_cast<int>(be - bs), b, chunk,
                    isa);
        }
      };

  double lr = cfg_.learning_rate;
  double last_loss = 0.0;
  BackpropReport report;
  for (int epoch = 0; epoch < cfg_.epochs; ++epoch) {
    std::shuffle(order_.begin(), order_.end(), rng);
    double epoch_loss = 0.0;

    for (std::size_t start = 0; start < n; start += batch_size) {
      const std::size_t end = std::min(n, start + batch_size);
      const auto batch_n = static_cast<double>(end - start);
      batch_start = start;
      n_blocks = (end - start + kBlockSamples - 1) / kBlockSamples;
      std::fill_n(ws_.shards_.begin(),
                  static_cast<std::ptrdiff_t>(n_blocks * n_params_), 0.0);

      core::parallel_for(pool_, n_blocks, runner);

      // Reduce shards and loss partials in fixed block order — the thread
      // count never touches the summation order.
      std::fill(ws_.grad_.begin(), ws_.grad_.end(), 0.0);
      for (std::size_t b = 0; b < n_blocks; ++b) {
        const double* shard = ws_.shards_.data() + b * n_params_;
        for (std::size_t p = 0; p < n_params_; ++p) ws_.grad_[p] += shard[p];
        epoch_loss += ws_.block_loss_[b];
      }

      // Momentum SGD step with L2 — arithmetic kept verbatim from the
      // naive oracle (oracles/backprop_oracle.cpp).
      for (std::size_t l = 0; l < layers.size(); ++l) {
        auto& layer = layers[l];
        double* dw = ws_.grad_.data() + w_off_[l];
        double* vw = ws_.velocity_.data() + w_off_[l];
        for (std::size_t w = 0; w < layer.weights.size(); ++w) {
          const double g = dw[w] / batch_n + cfg_.l2 * layer.weights[w];
          vw[w] = cfg_.momentum * vw[w] - lr * g;
          layer.weights[w] += vw[w];
        }
        double* db = ws_.grad_.data() + b_off_[l];
        double* vb = ws_.velocity_.data() + b_off_[l];
        for (std::size_t b = 0; b < layer.biases.size(); ++b) {
          const double g = db[b] / batch_n;
          vb[b] = cfg_.momentum * vb[b] - lr * g;
          layer.biases[b] += vb[b];
        }
      }
    }
    lr *= cfg_.lr_decay;
    last_loss = epoch_loss / static_cast<double>(n);
    report.epochs_run = epoch + 1;
  }

  report.final_loss = last_loss;
  report.final_train_accuracy = blocked_accuracy(net, isa);
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  report.samples_per_second =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.epochs_run) * static_cast<double>(n) /
                report.wall_seconds
          : 0.0;
  report.simd_isa = core::simd_isa_name(isa);
  report.block = kBlockSamples;
  report.threads = core::pool_size(pool_);
  return report;
}

}  // namespace pmlp::mlp
