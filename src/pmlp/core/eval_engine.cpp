#include "pmlp/core/eval_engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "pmlp/adder/fa_model.hpp"
#include "pmlp/core/eval_kernels.hpp"
#include "pmlp/core/simd.hpp"

namespace pmlp::core {
bool layers_block_safe(std::span<const CompiledLayer> layers,
                       std::int64_t act_max, std::int64_t bias_bound) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
  if (act_max > kMax) return false;
  for (const auto& layer : layers) {
    for (int o = 0; o < layer.n_out; ++o) {
      const std::int64_t bias = layer.biases[static_cast<std::size_t>(o)];
      std::int64_t bound = std::max(bias < 0 ? -bias : bias, bias_bound);
      if (bound > kMax) return false;
      const std::int32_t end = layer.conn_begin[static_cast<std::size_t>(o) + 1];
      for (std::int32_t c = layer.conn_begin[static_cast<std::size_t>(o)];
           c < end; ++c) {
        const CompiledConn& cc = layer.conns[static_cast<std::size_t>(c)];
        if (cc.shift < 0 || cc.shift > 30 || cc.mask > kMax) return false;
        bound += static_cast<std::int64_t>(cc.mask) << cc.shift;
        if (bound > kMax) return false;
      }
    }
  }
  return true;
}

CompiledLayer compile_layer(const ApproxLayer& layer, long* fa_area) {
  CompiledLayer cl;
  cl.n_in = layer.n_in;
  cl.n_out = layer.n_out;
  cl.qrelu = layer.qrelu;
  cl.qrelu_shift = layer.qrelu_shift;
  cl.biases = layer.biases;
  cl.conn_begin.reserve(static_cast<std::size_t>(layer.n_out) + 1);
  cl.conn_begin.push_back(0);
  // One scratch spec reused across neurons: the FA-count streams out of the
  // same walk that collects the active connections.
  adder::NeuronAdderSpec scratch;
  scratch.summands.reserve(static_cast<std::size_t>(layer.n_in));
  const auto collect = [&cl](int i, const ApproxConn& c, std::uint32_t m) {
    cl.conns.push_back(CompiledConn{i, m, c.exponent, c.sign < 0 ? 1 : 0});
  };
  for (int o = 0; o < layer.n_out; ++o) {
    load_neuron_spec(layer, o, scratch, collect);
    cl.conn_begin.push_back(static_cast<std::int32_t>(cl.conns.size()));
    if (fa_area != nullptr) {
      *fa_area += adder::estimate_adder(scratch).total_fa();
    }
  }
  return cl;
}

CompiledNet::CompiledNet(const ApproxMlp& net) {
  n_inputs_ = net.topology().n_inputs();
  max_width_ = n_inputs_;
  act_max_ = (std::int64_t{1} << net.bits().act_bits) - 1;

  layers_.reserve(net.layers().size());
  for (const auto& layer : net.layers()) {
    layers_.push_back(compile_layer(layer, &fa_area_));
    max_width_ = std::max(max_width_, layers_.back().n_out);
    n_outputs_ = layers_.back().n_out;
  }
  block_safe_ = !layers_.empty() && layers_block_safe(layers_, act_max_);
  if (block_safe_) act_max32_ = static_cast<std::int32_t>(act_max_);
}

std::span<const std::int64_t> CompiledNet::forward(
    std::span<const std::uint8_t> x, EvalWorkspace& ws) const {
  if (x.size() != static_cast<std::size_t>(n_inputs_)) {
    throw std::invalid_argument("CompiledNet::forward: bad input size");
  }
  ws.bind(*this);
  std::int64_t* cur = ws.a_.data();
  std::int64_t* nxt = ws.b_.data();
  for (std::size_t i = 0; i < x.size(); ++i) cur[i] = x[i];

  for (const auto& layer : layers_) {
    const CompiledConn* conns = layer.conns.data();
    const std::int32_t* begin = layer.conn_begin.data();
    for (int o = 0; o < layer.n_out; ++o) {
      std::int64_t acc = layer.biases[static_cast<std::size_t>(o)];
      const std::int32_t end = begin[o + 1];
      for (std::int32_t c = begin[o]; c < end; ++c) {
        const CompiledConn& cc = conns[c];
        const std::int64_t term = static_cast<std::int64_t>(
            static_cast<std::uint32_t>(cur[cc.in]) & cc.mask)
            << cc.shift;
        acc += cc.neg ? -term : term;
      }
      if (layer.qrelu) {
        acc = acc <= 0 ? 0 : std::min(acc >> layer.qrelu_shift, act_max_);
      }
      nxt[o] = acc;
    }
    std::swap(cur, nxt);
  }
  return {cur, static_cast<std::size_t>(n_outputs_)};
}

int CompiledNet::predict(std::span<const std::uint8_t> x,
                         EvalWorkspace& ws) const {
  return argmax_first(forward(x, ws));
}

double CompiledNet::accuracy(const datasets::QuantizedDataset& d,
                             EvalWorkspace& ws) const {
  static_assert(std::is_same_v<decltype(d.labels)::value_type, std::int32_t>,
                "the epilogue compares int32 labels lane-wise");
  if (d.n_features != n_inputs_) {
    throw std::invalid_argument(
        "CompiledNet::accuracy: dataset feature width mismatch");
  }
  if (d.size() == 0) return 0.0;
  const std::size_t correct = run_blocks(d.size(), d.codes.data(), nullptr,
                                         d.labels.data(), nullptr, ws);
  return static_cast<double>(correct) / static_cast<double>(d.size());
}

double CompiledNet::accuracy(const SamplePlanes& planes,
                             EvalWorkspace& ws) const {
  if (planes.n_features() != n_inputs_) {
    throw std::invalid_argument(
        "CompiledNet::accuracy: sample planes feature width mismatch");
  }
  if (planes.size() == 0) return 0.0;
  const std::size_t correct =
      run_blocks(planes.size(), nullptr, &planes, planes.labels(), nullptr,
                 ws);
  return static_cast<double>(correct) / static_cast<double>(planes.size());
}

void CompiledNet::predict_batch(const std::uint8_t* codes, std::size_t n,
                                std::int32_t* preds, EvalWorkspace& ws) const {
  if (n == 0) return;
  run_blocks(n, codes, nullptr, nullptr, preds, ws);
}

std::span<const std::int32_t> CompiledNet::predict_batch(
    const datasets::QuantizedDataset& d, EvalWorkspace& ws) const {
  if (d.n_features != n_inputs_) {
    throw std::invalid_argument(
        "CompiledNet::predict_batch: dataset feature width mismatch");
  }
  if (ws.preds_.size() < d.size()) ws.preds_.resize(d.size());
  predict_batch(d.codes.data(), d.size(), ws.preds_.data(), ws);
  return {ws.preds_.data(), d.size()};
}

std::size_t CompiledNet::run_blocks(std::size_t n, const std::uint8_t* codes,
                                    const SamplePlanes* planes,
                                    const std::int32_t* labels,
                                    std::int32_t* preds,
                                    EvalWorkspace& ws) const {
  const auto width = static_cast<std::size_t>(n_inputs_);
  std::size_t correct = 0;
  if (!block_safe_) {
    // Overflow-unprovable net (never produced by a BitConfig decode at the
    // paper's widths): keep the exact int64 per-sample path.
    if (ws.row_.size() < width) ws.row_.resize(width);
    for (std::size_t s = 0; s < n; ++s) {
      const std::uint8_t* row = codes;
      if (planes != nullptr) {
        planes->gather_row(s, ws.row_.data());
        row = ws.row_.data();
      } else {
        row += s * width;
      }
      const int pred = predict({row, width}, ws);
      if (preds != nullptr) preds[s] = pred;
      if (labels != nullptr && labels[s] == pred) ++correct;
    }
    return correct;
  }
  const SimdIsa isa = active_simd_isa();
  ws.bind_block(*this);
  for (std::size_t base = 0; base < n; base += kBlockSamples) {
    const int b = static_cast<int>(
        std::min<std::size_t>(kBlockSamples, n - base));
    const std::int32_t* in = nullptr;
    if (planes != nullptr) {
      in = planes->block(base);
    } else {
      transpose_block(codes + base * width, n_inputs_, b, ws.block_a_.data());
      in = ws.block_a_.data();
    }
    // Ping-pong through the workspace: layer 1 writes block_b_, layer 2
    // block_a_ (the transposed input is dead by then), and so on.
    std::int32_t* out = ws.block_b_.data();
    std::int32_t* spare = ws.block_a_.data();
    for (const auto& layer : layers_) {
      layer_sweep(isa, layer, in, out, out, b, act_max32_);
      in = out;
      std::swap(out, spare);
    }
    correct += argmax_block(isa, in, n_outputs_, b,
                            labels != nullptr ? labels + base : nullptr,
                            preds != nullptr ? preds + base : nullptr);
  }
  return correct;
}

SamplePlanes::SamplePlanes(const datasets::QuantizedDataset& d)
    : n_features_(d.n_features),
      planes_(d.codes.size()),
      labels_(d.labels.begin(), d.labels.end()) {
  const auto width = static_cast<std::size_t>(n_features_);
  if (d.codes.size() != d.size() * width) {
    throw std::invalid_argument(
        "SamplePlanes: codes do not hold n_features per label");
  }
  constexpr auto kBlock = static_cast<std::size_t>(CompiledNet::kBlockSamples);
  for (std::size_t base = 0; base < d.size(); base += kBlock) {
    const int b = static_cast<int>(std::min(kBlock, d.size() - base));
    transpose_block(d.codes.data() + base * width, n_features_, b,
                    planes_.data() + base * width);
  }
}

void SamplePlanes::gather_row(std::size_t s, std::uint8_t* row) const {
  constexpr auto kBlock = static_cast<std::size_t>(CompiledNet::kBlockSamples);
  const std::size_t base = s - s % kBlock;
  const std::size_t b = std::min(kBlock, size() - base);
  const std::int32_t* planes = block(base);
  for (int i = 0; i < n_features_; ++i) {
    row[i] = static_cast<std::uint8_t>(
        planes[static_cast<std::size_t>(i) * b + (s - base)]);
  }
}

void EvalWorkspace::bind(const CompiledNet& net) {
  const auto width = static_cast<std::size_t>(net.max_width_);
  if (a_.size() < width) {
    a_.resize(width);
    b_.resize(width);
  }
}

void EvalWorkspace::bind_block(const CompiledNet& net) {
  const auto need = static_cast<std::size_t>(net.max_width_) *
                    static_cast<std::size_t>(CompiledNet::kBlockSamples);
  if (block_a_.size() < need) {
    block_a_.resize(need);
    block_b_.resize(need);
  }
}

std::uint64_t EvalCache::hash_genes(std::span<const int> genes) {
  // FNV-1a over the gene words.
  std::uint64_t h = 14695981039346656037ull;
  for (int g : genes) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(g));
    h *= 1099511628211ull;
  }
  return h;
}

bool EvalCache::lookup(std::span<const int> genes,
                       nsga2::Problem::Evaluation& out) {
  if (capacity_ == 0) return false;
  const std::uint64_t h = hash_genes(genes);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(h);
  if (it != index_.end() &&
      std::equal(genes.begin(), genes.end(), it->second->genes.begin(),
                 it->second->genes.end())) {
    lru_.splice(lru_.begin(), lru_, it->second);
    out = it->second->ev;
    ++stats_.hits;
    return true;
  }
  ++stats_.misses;
  return false;
}

void EvalCache::insert(std::span<const int> genes,
                       const nsga2::Problem::Evaluation& ev) {
  if (capacity_ == 0) return;
  const std::uint64_t h = hash_genes(genes);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(h);
  if (it != index_.end()) {
    // Concurrent duplicate compute, or a hash collision: keep the newest
    // genome for this slot (exact gene compare in lookup keeps it correct).
    it->second->genes.assign(genes.begin(), genes.end());
    it->second->ev = ev;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{h, {genes.begin(), genes.end()}, ev});
  index_[h] = lru_.begin();
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().hash);
    lru_.pop_back();
  }
}

std::size_t EvalCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

EvalCacheStats EvalCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace pmlp::core
