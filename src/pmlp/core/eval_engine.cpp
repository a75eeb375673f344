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

/// Every bound of the proof saturates here, far beyond any lane's range
/// and low enough that two saturated bounds still add without overflow.
constexpr std::int64_t kSat = std::int64_t{1} << 61;
/// Layer 1 reads uint8 codes.
constexpr std::int64_t kCodeMax = std::numeric_limits<std::uint8_t>::max();

/// Largest value of `(x & mask) << shift` over inputs x <= xmax (xmax < 0:
/// no bound beyond the mask), saturated at kSat.
std::int64_t term_max(const CompiledConn& cc, std::int64_t xmax) {
  const std::int64_t m = xmax < 0 ? std::int64_t{cc.mask}
                                  : std::min<std::int64_t>(cc.mask, xmax);
  if (m == 0) return 0;
  if (cc.shift < 0 || cc.shift > 61 || m > (kSat >> cc.shift)) return kSat;
  return m << cc.shift;
}

/// One layer of the proof: writes each neuron's range to `ranges` (n_out
/// entries) and returns the narrowest lane type that holds every range,
/// every term's maximum, every shift and `act_max`. `in_max[i]` bounds
/// input i (empty: the masks alone bound the terms); each bias range widens
/// to cover [-bias_bound, bias_bound].
LaneType prove_layer(const CompiledLayer& layer, std::int64_t act_max,
                     std::int64_t bias_bound,
                     std::span<const std::int64_t> in_max, AccRange* ranges) {
  const std::int64_t widen = std::min(bias_bound, kSat);
  std::int64_t lo_all = 0;
  std::int64_t hi_all = act_max;
  int min_shift = 0;
  int max_shift = 0;
  for (int o = 0; o < layer.n_out; ++o) {
    const std::int64_t bias =
        std::clamp(layer.biases[static_cast<std::size_t>(o)], -kSat, kSat);
    AccRange r{bias, bias};
    if (widen > 0) r = {std::min(bias, -widen), std::max(bias, widen)};
    const std::int32_t end = layer.conn_begin[static_cast<std::size_t>(o) + 1];
    for (std::int32_t c = layer.conn_begin[static_cast<std::size_t>(o)];
         c < end; ++c) {
      const CompiledConn& cc = layer.conns[static_cast<std::size_t>(c)];
      const std::int64_t t = term_max(
          cc, in_max.empty() ? -1 : in_max[static_cast<std::size_t>(cc.in)]);
      min_shift = std::min(min_shift, cc.shift);
      max_shift = std::max(max_shift, cc.shift);
      hi_all = std::max(hi_all, t);  // the term itself is a lane value too
      if (cc.neg != 0) {
        r.lo = std::max(r.lo - t, -kSat);
      } else {
        r.hi = std::min(r.hi + t, kSat);
      }
    }
    ranges[o] = r;
    lo_all = std::min(lo_all, r.lo);
    hi_all = std::max(hi_all, r.hi);
  }
  const auto fits = [&](auto lane, int max_lane_shift) {
    using T = decltype(lane);
    return min_shift >= 0 && max_shift <= max_lane_shift &&
           lo_all >= std::numeric_limits<T>::min() &&
           hi_all <= std::numeric_limits<T>::max();
  };
  if (fits(std::int16_t{}, 14)) return LaneType::kInt16;
  if (fits(std::int32_t{}, 30)) return LaneType::kInt32;
  return LaneType::kInt64;
}

/// The largest activation a neuron of range `r` can hand on: QReLU clamps
/// to [0, min(act_max, max(hi, 0) >> shift)]; a layer without QReLU hands
/// on no bound beyond the next layer's masks (-1).
std::int64_t activation_max(const CompiledLayer& layer, const AccRange& r,
                            std::int64_t act_max) {
  if (!layer.qrelu) return -1;
  if (layer.qrelu_shift < 0 || layer.qrelu_shift > 62) return act_max;
  return std::min(act_max,
                  std::max<std::int64_t>(r.hi, 0) >> layer.qrelu_shift);
}

/// The value-range walk behind layer_lanes and accumulator_ranges: every
/// layer's lanes, and its ranges into `ranges` when non-null.
std::vector<LaneType> prove_net(std::span<const CompiledLayer> layers,
                                std::int64_t act_max,
                                std::vector<std::vector<AccRange>>* ranges) {
  std::vector<LaneType> lanes;
  lanes.reserve(layers.size());
  std::vector<std::int64_t> in_max;
  std::vector<AccRange> acc;
  if (!layers.empty()) {
    in_max.assign(static_cast<std::size_t>(layers.front().n_in), kCodeMax);
  }
  for (const auto& layer : layers) {
    acc.resize(static_cast<std::size_t>(layer.n_out));
    lanes.push_back(prove_layer(layer, act_max, 0, in_max, acc.data()));
    in_max.resize(acc.size());
    for (std::size_t o = 0; o < acc.size(); ++o) {
      in_max[o] = activation_max(layer, acc[o], act_max);
    }
    if (ranges != nullptr) ranges->push_back(acc);
  }
  return lanes;
}

template <typename T>
constexpr LaneType kLaneOf = sizeof(T) == 2   ? LaneType::kInt16
                             : sizeof(T) == 4 ? LaneType::kInt32
                                              : LaneType::kInt64;

/// The FaMemo key of `spec` into `key`: its word count, the bias, then one
/// word per summand (mask | shift << 16 | width << 23 | negative << 30).
/// False when a field does not fit its bits.
bool pack_key(const adder::NeuronAdderSpec& spec,
              std::vector<std::uint32_t>& key) {
  if (spec.bias < std::numeric_limits<std::int32_t>::min() ||
      spec.bias > std::numeric_limits<std::int32_t>::max()) {
    return false;
  }
  key.clear();
  key.push_back(static_cast<std::uint32_t>(spec.summands.size() + 2));
  key.push_back(static_cast<std::uint32_t>(spec.bias));
  for (const adder::SummandSpec& s : spec.summands) {
    if (s.mask > 0xFFFF || s.shift < 0 || s.shift > 127 ||
        s.input_width < 0 || s.input_width > 127) {
      return false;
    }
    key.push_back(s.mask | static_cast<std::uint32_t>(s.shift) << 16 |
                  static_cast<std::uint32_t>(s.input_width) << 23 |
                  std::uint32_t{s.sign < 0} << 30);
  }
  return true;
}

}  // namespace

std::vector<std::vector<AccRange>> accumulator_ranges(
    std::span<const CompiledLayer> layers, std::int64_t act_max) {
  std::vector<std::vector<AccRange>> ranges;
  ranges.reserve(layers.size());
  prove_net(layers, act_max, &ranges);
  return ranges;
}

std::vector<LaneType> layer_lanes(std::span<const CompiledLayer> layers,
                                  std::int64_t act_max) {
  return prove_net(layers, act_max, nullptr);
}

std::vector<LaneType> reachable_lanes(std::span<const CompiledLayer> layers,
                                      std::int64_t act_max,
                                      std::int64_t bias_bound) {
  std::vector<LaneType> lanes;
  lanes.reserve(layers.size());
  std::vector<AccRange> acc;
  for (const auto& layer : layers) {
    acc.resize(static_cast<std::size_t>(layer.n_out));
    lanes.push_back(prove_layer(layer, act_max, bias_bound, {}, acc.data()));
  }
  return lanes;
}

int FaMemo::total_fa(const adder::NeuronAdderSpec& spec) {
  if (!pack_key(spec, probe_)) {
    ++stats_.misses;
    return adder::estimate_adder(spec).total_fa();
  }
  if (probe_.size() > stride_) {
    stride_ = probe_.size();
    keys_.assign(kSlots * stride_, 0);
    fa_.assign(kSlots, 0);
  }
  std::uint64_t h = 0;
  for (const std::uint32_t w : probe_) {
    h = (h ^ w) * 0x9E3779B97F4A7C15ull;
    h ^= h >> 29;
  }
  const std::size_t slot = h & (kSlots - 1);
  std::uint32_t* row = keys_.data() + slot * stride_;
  if (std::equal(probe_.begin(), probe_.end(), row)) {
    ++stats_.hits;
    return fa_[slot];
  }
  const int fa = adder::estimate_adder(spec).total_fa();
  ++stats_.misses;
  if (row[0] != 0) ++stats_.evictions;
  std::copy(probe_.begin(), probe_.end(), row);
  fa_[slot] = fa;
  return fa;
}

CompiledLayer compile_layer(const ApproxLayer& layer, long* fa_area,
                            FaMemo* memo) {
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
      *fa_area += memo != nullptr ? memo->total_fa(scratch)
                                  : adder::estimate_adder(scratch).total_fa();
    }
  }
  return cl;
}

CompiledNet::CompiledNet(const ApproxMlp& net)
    : CompiledNet(net, static_cast<FaMemo*>(nullptr)) {}

CompiledNet::CompiledNet(const ApproxMlp& net, EvalWorkspace& ws)
    : CompiledNet(net, &ws.fa_memo_) {}

CompiledNet::CompiledNet(const ApproxMlp& net, FaMemo* memo) {
  n_inputs_ = net.topology().n_inputs();
  max_width_ = n_inputs_;
  act_max_ = (std::int64_t{1} << net.bits().act_bits) - 1;

  layers_.reserve(net.layers().size());
  for (const auto& layer : net.layers()) {
    layers_.push_back(compile_layer(layer, &fa_area_, memo));
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

int CompiledNet::predict(std::span<const std::uint8_t> x,
                         EvalWorkspace& ws) const {
  if (x.size() != static_cast<std::size_t>(n_inputs_)) {
    throw std::invalid_argument("CompiledNet::predict: bad input size");
  }
  std::int32_t pred = 0;
  run_blocks(1, x.data(), nullptr, nullptr, &pred, ws);
  return pred;
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
