#include "pmlp/core/eval_engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "pmlp/adder/fa_model.hpp"
#include "pmlp/core/eval_kernels.hpp"
#include "pmlp/core/simd.hpp"

namespace pmlp::core {
namespace {

/// The narrowest lane type of one layer, in one walk: every neuron's bound
/// |bias| + sum(mask << k) (each |bias| widened to at least `bias_bound`),
/// every shift and `act_max` must fit it. A mask never exceeds its shifted
/// self, so the bound covers the masks too.
LaneType narrowest_lane(const CompiledLayer& layer, std::int64_t act_max,
                        std::int64_t bias_bound) {
  constexpr std::int64_t kMax16 = std::numeric_limits<std::int16_t>::max();
  constexpr std::int64_t kMax32 = std::numeric_limits<std::int32_t>::max();
  if (act_max > kMax32) return LaneType::kInt64;
  std::int64_t worst = act_max;
  int max_shift = 0;
  for (int o = 0; o < layer.n_out; ++o) {
    const std::int64_t bias = layer.biases[static_cast<std::size_t>(o)];
    std::int64_t bound = std::max(bias < 0 ? -bias : bias, bias_bound);
    if (bound > kMax32) return LaneType::kInt64;
    const std::int32_t end = layer.conn_begin[static_cast<std::size_t>(o) + 1];
    for (std::int32_t c = layer.conn_begin[static_cast<std::size_t>(o)];
         c < end; ++c) {
      const CompiledConn& cc = layer.conns[static_cast<std::size_t>(c)];
      if (cc.shift < 0 || cc.shift > 30) return LaneType::kInt64;
      max_shift = std::max(max_shift, cc.shift);
      bound += static_cast<std::int64_t>(cc.mask) << cc.shift;
      if (bound > kMax32) return LaneType::kInt64;
    }
    worst = std::max(worst, bound);
  }
  return worst <= kMax16 && max_shift <= 14 ? LaneType::kInt16
                                            : LaneType::kInt32;
}

template <typename T>
constexpr LaneType kLaneOf = sizeof(T) == 2   ? LaneType::kInt16
                             : sizeof(T) == 4 ? LaneType::kInt32
                                              : LaneType::kInt64;

}  // namespace

std::vector<LaneType> layer_lanes(std::span<const CompiledLayer> layers,
                                  std::int64_t act_max,
                                  std::int64_t bias_bound) {
  std::vector<LaneType> lanes;
  lanes.reserve(layers.size());
  for (const auto& layer : layers) {
    lanes.push_back(narrowest_lane(layer, act_max, bias_bound));
  }
  return lanes;
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
  lanes_ = layer_lanes(layers_, act_max_);
  // A layer's input planes are its predecessor's activations, so its lanes
  // are at least that wide.
  for (std::size_t l = 1; l < lanes_.size(); ++l) {
    lanes_[l] = std::max(lanes_[l], lanes_[l - 1]);
  }
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
  const SimdIsa isa = active_simd_isa();
  auto& rows = ws.lanes<std::int16_t>();
  if (planes == nullptr) {
    rows.reserve(static_cast<std::size_t>(max_width_) * kBlockSamples);
  }
  std::size_t correct = 0;
  for (std::size_t base = 0; base < n; base += kBlockSamples) {
    const int b = static_cast<int>(
        std::min<std::size_t>(kBlockSamples, n - base));
    const std::int16_t* in = nullptr;
    if (planes != nullptr) {
      in = planes->block(base);
    } else {
      transpose_block(codes + base * static_cast<std::size_t>(n_inputs_),
                      n_inputs_, b, rows.a.data());
      in = rows.a.data();
    }
    const BlockPass pass{
        isa, b, use_int16_lanes(isa, b) ? LaneType::kInt16 : LaneType::kInt32,
        labels != nullptr ? labels + base : nullptr,
        preds != nullptr ? preds + base : nullptr};
    correct += sweep_from(0, in, pass, ws);
  }
  return correct;
}

template <typename TIn>
std::size_t CompiledNet::sweep_from(std::size_t l, const TIn* in,
                                    const BlockPass& pass,
                                    EvalWorkspace& ws) const {
  if (l == layers_.size()) {
    return argmax_block(pass.isa, in, n_outputs_, pass.n, pass.labels,
                        pass.preds);
  }
  // Lanes never narrow along the net, so only types at least as wide as
  // the input are instantiated.
  const LaneType lane = std::max(lanes_[l], pass.floor);
  if constexpr (sizeof(TIn) <= 2) {
    if (lane == LaneType::kInt16) {
      return sweep_run<std::int16_t>(l, in, pass, ws);
    }
  }
  if constexpr (sizeof(TIn) <= 4) {
    if (lane == LaneType::kInt32) {
      return sweep_run<std::int32_t>(l, in, pass, ws);
    }
  }
  return sweep_run<std::int64_t>(l, in, pass, ws);
}

template <typename T, typename TIn>
std::size_t CompiledNet::sweep_run(std::size_t l, const TIn* in,
                                   const BlockPass& pass,
                                   EvalWorkspace& ws) const {
  const auto need = static_cast<std::size_t>(max_width_) * kBlockSamples;
  auto& planes = ws.lanes<T>();
  planes.reserve(need);
  const T* cur = nullptr;
  if constexpr (std::is_same_v<T, TIn>) {
    cur = in;
  } else {
    std::copy_n(in, static_cast<std::size_t>(layers_[l].n_in) * pass.n,
                planes.a.data());
    cur = planes.a.data();
  }
  // Ping-pong: the first layer of the run writes `b` (its input may sit in
  // `a`), the next `a` (the run's input is dead by then), and so on.
  T* out = planes.b.data();
  T* spare = planes.a.data();
  for (;;) {
    const LaneType next = l + 1 < layers_.size()
                              ? std::max(lanes_[l + 1], pass.floor)
                              : kLaneOf<T>;
    if constexpr (std::is_same_v<T, std::int16_t>) {
      if (next == LaneType::kInt32) {
        // Widen on store: the run's last layer writes its activations
        // straight into the int32 run's input planes.
        auto& wide = ws.lanes<std::int32_t>();
        wide.reserve(need);
        layer_sweep(pass.isa, layers_[l], cur, out, wide.a.data(), pass.n,
                    static_cast<T>(act_max_));
        return sweep_run<std::int32_t>(
            l + 1, static_cast<const std::int32_t*>(wide.a.data()), pass, ws);
      }
    }
    layer_sweep(pass.isa, layers_[l], cur, out, out, pass.n,
                static_cast<T>(act_max_));
    cur = out;
    std::swap(out, spare);
    if (++l == layers_.size() || next != kLaneOf<T>) {
      return sweep_from(l, cur, pass, ws);
    }
  }
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

void EvalWorkspace::bind(const CompiledNet& net) {
  const auto width = static_cast<std::size_t>(net.max_width_);
  if (a_.size() < width) {
    a_.resize(width);
    b_.resize(width);
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
