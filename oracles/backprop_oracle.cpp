#include "backprop_oracle.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <random>
#include <vector>

namespace pmlp::oracles {

namespace {

/// Numerically stable softmax in place.
void softmax(std::vector<double>& v) {
  const double mx = *std::max_element(v.begin(), v.end());
  double sum = 0.0;
  for (double& x : v) {
    x = std::exp(x - mx);
    sum += x;
  }
  for (double& x : v) x /= sum;
}

struct LayerGrads {
  std::vector<double> dw;
  std::vector<double> db;
};

}  // namespace

mlp::BackpropReport train_backprop_naive(mlp::FloatMlp& net,
                                         const datasets::Dataset& train,
                                         const mlp::BackpropConfig& cfg) {
  const auto t0 = std::chrono::steady_clock::now();
  std::mt19937_64 rng(cfg.seed);

  auto& layers = net.layers();
  std::vector<LayerGrads> grads(layers.size());
  std::vector<LayerGrads> velocity(layers.size());
  for (std::size_t l = 0; l < layers.size(); ++l) {
    grads[l].dw.assign(layers[l].weights.size(), 0.0);
    grads[l].db.assign(layers[l].biases.size(), 0.0);
    velocity[l].dw.assign(layers[l].weights.size(), 0.0);
    velocity[l].db.assign(layers[l].biases.size(), 0.0);
  }

  std::vector<std::size_t> order(train.size());
  std::iota(order.begin(), order.end(), std::size_t{0});

  double lr = cfg.learning_rate;
  double last_loss = 0.0;
  mlp::BackpropReport report;
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), rng);
    double epoch_loss = 0.0;

    for (std::size_t start = 0; start < order.size();
         start += static_cast<std::size_t>(cfg.batch_size)) {
      const std::size_t end =
          std::min(order.size(), start + static_cast<std::size_t>(cfg.batch_size));
      const auto batch_n = static_cast<double>(end - start);
      for (auto& g : grads) {
        std::fill(g.dw.begin(), g.dw.end(), 0.0);
        std::fill(g.db.begin(), g.db.end(), 0.0);
      }

      for (std::size_t k = start; k < end; ++k) {
        const std::size_t i = order[k];
        auto trace = net.forward_trace(train.row(i));
        auto probs = trace.back();
        softmax(probs);
        const int y = train.labels[i];
        epoch_loss -= std::log(std::max(probs[static_cast<std::size_t>(y)], 1e-12));

        // delta at the output: softmax-CE gradient.
        std::vector<double> delta = probs;
        delta[static_cast<std::size_t>(y)] -= 1.0;

        for (int l = static_cast<int>(layers.size()) - 1; l >= 0; --l) {
          auto& layer = layers[static_cast<std::size_t>(l)];
          auto& g = grads[static_cast<std::size_t>(l)];
          const auto& in = trace[static_cast<std::size_t>(l)];
          for (int o = 0; o < layer.n_out; ++o) {
            const double dz = delta[static_cast<std::size_t>(o)];
            g.db[static_cast<std::size_t>(o)] += dz;
            for (int ii = 0; ii < layer.n_in; ++ii) {
              g.dw[static_cast<std::size_t>(o) * layer.n_in + ii] +=
                  dz * in[static_cast<std::size_t>(ii)];
            }
          }
          if (l > 0) {
            std::vector<double> prev(static_cast<std::size_t>(layer.n_in), 0.0);
            for (int ii = 0; ii < layer.n_in; ++ii) {
              double s = 0.0;
              for (int o = 0; o < layer.n_out; ++o) {
                s += layer.weight(o, ii) * delta[static_cast<std::size_t>(o)];
              }
              // ReLU derivative, with a small leak through inactive units
              // so tiny hidden layers can recover from a dead start.
              prev[static_cast<std::size_t>(ii)] =
                  trace[static_cast<std::size_t>(l)][static_cast<std::size_t>(ii)] > 0
                      ? s
                      : cfg.relu_leak * s;
            }
            delta = std::move(prev);
          }
        }
      }

      // Momentum SGD step with L2.
      for (std::size_t l = 0; l < layers.size(); ++l) {
        auto& layer = layers[l];
        for (std::size_t w = 0; w < layer.weights.size(); ++w) {
          const double g =
              grads[l].dw[w] / batch_n + cfg.l2 * layer.weights[w];
          velocity[l].dw[w] = cfg.momentum * velocity[l].dw[w] - lr * g;
          layer.weights[w] += velocity[l].dw[w];
        }
        for (std::size_t b = 0; b < layer.biases.size(); ++b) {
          const double g = grads[l].db[b] / batch_n;
          velocity[l].db[b] = cfg.momentum * velocity[l].db[b] - lr * g;
          layer.biases[b] += velocity[l].db[b];
        }
      }
    }
    lr *= cfg.lr_decay;
    last_loss = epoch_loss / static_cast<double>(train.size());
    report.epochs_run = epoch + 1;
  }

  report.final_loss = last_loss;
  report.final_train_accuracy = mlp::accuracy(net, train);
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  report.samples_per_second =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.epochs_run) *
                static_cast<double>(train.size()) / report.wall_seconds
          : 0.0;
  return report;
}

}  // namespace pmlp::oracles
