#include "pmlp/core/serialize.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "pmlp/bitops/bitops.hpp"
#include "pmlp/core/record.hpp"

namespace pmlp::core {

namespace {

constexpr const char* kModelMagic = "pmlp-approx-mlp";
constexpr long kMaxLong = std::numeric_limits<long>::max();
constexpr int kMaxInt = std::numeric_limits<int>::max();

// Model topology bounds, generous next to Table I's largest net (16-5-10,
// 130 connections) but small enough that a corrupt header can never ask
// for a huge allocation.
constexpr int kMaxLayers = 64;
constexpr int kMaxWidth = 1 << 20;
constexpr long long kMaxConnections = 1 << 22;

/// The topology reader of all three model formats. Float and quant nets
/// write the layer count first ("topology 3 10 3 2"); the approx-mlp block
/// lists the widths up to its `bits` tag ("topology 10 3 2").
mlp::Topology read_topology(RecordReader& r, bool counted) {
  r.expect("topology");
  const int n_layers =
      counted ? r.value<int>(2, kMaxLayers, "bad topology size") : kMaxLayers;
  mlp::Topology topo;
  while (static_cast<int>(topo.layers.size()) < n_layers &&
         (counted || !r.peek('b'))) {
    topo.layers.push_back(r.value<int>(1, kMaxWidth, "bad topology entry"));
  }
  long long connections = 0;
  for (std::size_t l = 1; l < topo.layers.size(); ++l) {
    connections += static_cast<long long>(topo.layers[l - 1]) * topo.layers[l];
  }
  if (topo.layers.size() < 2 || connections > kMaxConnections) {
    r.fail("bad topology size");
  }
  return topo;
}

/// Area, power, delay and cell count, as the baseline and evaluated
/// formats store a netlist price.
hwmodel::CircuitCost read_cost(RecordReader& r) {
  hwmodel::CircuitCost c;
  c.area_mm2 = r.hex();
  c.power_uw = r.hex();
  c.critical_delay_us = r.hex();
  c.cell_count = r.value<long>(0, kMaxLong, "bad cell_count");
  return c;
}

/// One float or quant layer's `w <o> <row>` and `b <o> <bias>` records.
template <typename Layer>
void write_dense_rows(RecordWriter& w, const Layer& layer) {
  const std::span weights(layer.weights);
  const auto n_in = static_cast<std::size_t>(layer.n_in);
  for (int o = 0; o < layer.n_out; ++o) {
    w.line("w", o, weights.subspan(static_cast<std::size_t>(o) * n_in, n_in));
  }
  for (int o = 0; o < layer.n_out; ++o) {
    w.line("b", o, layer.biases[static_cast<std::size_t>(o)]);
  }
}

/// The body of the float and quant nets, up to `end`: a `layer <l> ...`
/// line, then per neuron a `w <o> <n_in values>` row and a `b <o> <value>`
/// line. `layer_line(l)` reads the rest of a layer line and
/// `row(weights, l, o)` the values of one w or b record. Every layer
/// line, weight row and bias must appear (slots 0, 1 + o, 1 + n_out + o):
/// a missing one would otherwise load as silent zeros, a default shift or
/// the random initialization.
template <typename LayerLine, typename Row>
void read_dense_layers(RecordReader& r, const mlp::Topology& topo,
                       LayerLine layer_line, Row row) {
  const auto n_out = [&](std::size_t l) { return topo.layers[l + 1]; };
  LayerCoverage seen;
  for (int l = 0; l < topo.n_layers(); ++l) {
    seen.add_layer(1 + 2 * static_cast<std::size_t>(n_out(l)));
  }
  int l = -1;
  for (std::string_view tag; r.next(tag);) {
    if (tag == "layer") {
      l = r.value<int>(0, topo.n_layers() - 1, "bad layer index");
      layer_line(static_cast<std::size_t>(l));
      seen.mark(static_cast<std::size_t>(l), 0);
      continue;
    }
    if (tag != "w" && tag != "b") r.unknown(tag);
    if (l < 0) r.fail("value before layer");
    const auto sl = static_cast<std::size_t>(l);
    const int o = r.value<int>(0, n_out(sl) - 1, "neuron out of range");
    const bool weights = tag == "w";
    row(weights, sl, o);
    seen.mark(sl, static_cast<std::size_t>(1 + o + (weights ? 0 : n_out(sl))));
  }
  if (!seen.complete()) r.fail("incomplete layer");
}

/// One approx-mlp block, header included. A standalone block runs to EOF
/// (the original v1 file format); an embedded one ends at `endmodel`.
/// Every conn and bias of every layer must be present: a block missing
/// any would otherwise load as a different, partly pruned model.
ApproxMlp read_model(std::istream& is, bool embedded) {
  RecordReader r(is, "load_model");
  r.header(kModelMagic);
  const mlp::Topology topo = read_topology(r, /*counted=*/false);
  r.expect("bits");
  BitConfig bits;
  bits.weight_bits = r.value<int>(2, 16, "bit config out of range");
  bits.input_bits = r.value<int>(1, 8, "bit config out of range");
  bits.act_bits = r.value<int>(1, 16, "bit config out of range");
  bits.bias_bits = r.value<int>(2, 24, "bit config out of range");

  ApproxMlp net(topo, bits);
  LayerCoverage seen;
  for (const auto& layer : net.layers()) {
    seen.add_layer(layer.conns.size() + layer.biases.size());
  }
  int l = -1;
  for (std::string_view tag; r.next(tag, embedded ? "endmodel" : nullptr);) {
    if (tag == "layer") {
      l = r.value<int>(0, topo.n_layers() - 1, "bad layer index");
      continue;
    }
    if (tag != "conn" && tag != "bias") r.unknown(tag);
    if (l < 0) r.fail(std::string(tag) + " before layer");
    const auto sl = static_cast<std::size_t>(l);
    auto& layer = net.layers()[sl];
    const int o = r.value<int>(0, layer.n_out - 1, "neuron out of range");
    if (tag == "conn") {
      const int i = r.value<int>(0, layer.n_in - 1, "conn out of range");
      ApproxConn c;
      c.mask = r.value<std::uint32_t>(
          0, static_cast<std::uint32_t>(bitops::low_mask(layer.input_bits)),
          "conn out of range");
      c.sign = r.value<int>(-1, 1, "conn out of range");
      c.exponent = r.value<int>(0, bits.max_exponent(), "conn out of range");
      if (c.sign == 0) r.fail("conn out of range");
      layer.conn(o, i) = c;
      seen.mark(sl, static_cast<std::size_t>(o) * layer.n_in + i);
    } else {
      layer.biases[static_cast<std::size_t>(o)] = r.value<std::int64_t>(
          bits.bias_min(), bits.bias_max(), "bias out of range");
      seen.mark(sl, layer.conns.size() + static_cast<std::size_t>(o));
    }
  }
  if (!seen.complete()) r.fail("missing conn or bias");
  net.update_qrelu_shifts();
  return net;
}

/// Write one approx-mlp block (header + body, no terminator).
void write_model_block(const ApproxMlp& net, RecordWriter& w) {
  w.header(kModelMagic);
  w.line("topology", net.topology().layers);
  const auto& b = net.bits();
  w.line("bits", b.weight_bits, b.input_bits, b.act_bits, b.bias_bits);
  for (std::size_t l = 0; l < net.layers().size(); ++l) {
    const auto& layer = net.layers()[l];
    w.line("layer", l);
    for (int o = 0; o < layer.n_out; ++o) {
      for (int i = 0; i < layer.n_in; ++i) {
        const ApproxConn& c = layer.conn(o, i);
        w.line("conn", o, i, c.mask, c.sign < 0 ? -1 : 1, c.exponent);
      }
    }
    for (int o = 0; o < layer.n_out; ++o) {
      w.line("bias", o, layer.biases[static_cast<std::size_t>(o)]);
    }
  }
}

void write_model_embedded(const ApproxMlp& net, RecordWriter& w) {
  w.line("model");
  write_model_block(net, w);
  w.line("endmodel");
}

ApproxMlp read_model_embedded(RecordReader& r, std::istream& is) {
  r.expect("model");
  return read_model(is, /*embedded=*/true);
}

}  // namespace

void save_model(const ApproxMlp& net, std::ostream& os) {
  RecordWriter w(os, "save_model");
  write_model_block(net, w);
  w.check();
}

std::string to_text(const ApproxMlp& net) {
  std::ostringstream os;
  save_model(net, os);
  return os.str();
}

ApproxMlp load_model(std::istream& is) {
  return read_model(is, /*embedded=*/false);
}

ApproxMlp from_text(const std::string& text) {
  std::istringstream is(text);
  return load_model(is);
}

void save_model_file(const ApproxMlp& net, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("save_model_file: cannot open " + path);
  save_model(net, os);
}

ApproxMlp load_model_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("load_model_file: cannot open " + path);
  return load_model(is);
}

// ---------------------------------------------------------------- datasets

void save_dataset(const datasets::Dataset& d, std::ostream& os) {
  RecordWriter w(os, "save_dataset");
  w.header("pmlp-dataset");
  w.name("name", d.name);
  w.line("shape", d.n_features, d.n_classes, d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    w.line("row", d.labels[i], d.row(i));
  }
  w.end();
}

datasets::Dataset load_dataset(std::istream& is) {
  RecordReader r(is, "load_dataset");
  r.header("pmlp-dataset");
  datasets::Dataset d;
  r.expect("name");
  d.name = r.name();
  r.expect("shape");
  d.n_features = r.value<int>(1, kMaxInt, "bad shape");
  d.n_classes = r.value<int>(1, kMaxInt, "bad shape");
  const auto n_samples =
      r.value<std::size_t>(0, std::size_t{1} << 32, "bad shape");
  r.records("row", n_samples, "sample count mismatch", [&] {
    d.labels.push_back(r.value<int>(0, d.n_classes - 1, "label out of range"));
    for (int f = 0; f < d.n_features; ++f) {
      d.features.push_back(r.hex());
      // Quantization clamps and rounds features; NaN passes the clamp.
      if (!std::isfinite(d.features.back())) r.fail("non-finite feature");
    }
  });
  return d;
}

void save_quant_dataset(const datasets::QuantizedDataset& d,
                        std::ostream& os) {
  RecordWriter w(os, "save_quant_dataset");
  w.header("pmlp-quant-dataset");
  w.name("name", d.name);
  w.line("shape", d.n_features, d.n_classes, d.input_bits, d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    w.line("row", d.labels[i], d.row(i));
  }
  w.end();
}

datasets::QuantizedDataset load_quant_dataset(std::istream& is) {
  RecordReader r(is, "load_quant_dataset");
  r.header("pmlp-quant-dataset");
  datasets::QuantizedDataset d;
  r.expect("name");
  d.name = r.name();
  r.expect("shape");
  d.n_features = r.value<int>(1, kMaxInt, "bad shape");
  d.n_classes = r.value<int>(1, kMaxInt, "bad shape");
  d.input_bits = r.value<int>(1, 8, "bad shape");
  const auto n_samples =
      r.value<std::size_t>(0, std::size_t{1} << 32, "bad shape");
  const unsigned max_code = (1u << d.input_bits) - 1u;
  r.records("row", n_samples, "sample count mismatch", [&] {
    d.labels.push_back(r.value<int>(0, d.n_classes - 1, "label out of range"));
    for (int f = 0; f < d.n_features; ++f) {
      d.codes.push_back(static_cast<std::uint8_t>(
          r.value<unsigned>(0, max_code, "code out of range")));
    }
  });
  return d;
}

// -------------------------------------------------------------------- MLPs

void save_float_mlp(const mlp::FloatMlp& net, std::ostream& os) {
  RecordWriter w(os, "save_float_mlp");
  w.header("pmlp-float-mlp");
  w.line("topology", net.topology().layers.size(), net.topology().layers);
  for (std::size_t l = 0; l < net.layers().size(); ++l) {
    w.line("layer", l);
    write_dense_rows(w, net.layers()[l]);
  }
  w.end();
}

mlp::FloatMlp load_float_mlp(std::istream& is) {
  RecordReader r(is, "load_float_mlp");
  r.header("pmlp-float-mlp");
  const auto topo = read_topology(r, /*counted=*/true);
  mlp::FloatMlp net(topo, /*seed=*/0);  // shape only; every value is read
  read_dense_layers(
      r, topo, [](std::size_t) {},
      [&](bool weights, std::size_t l, int o) {
        auto& layer = net.layers()[l];
        if (!weights) {
          layer.biases[static_cast<std::size_t>(o)] = r.hex();
          return;
        }
        for (int i = 0; i < layer.n_in; ++i) layer.weight(o, i) = r.hex();
      });
  return net;
}

void save_quant_mlp(const mlp::QuantMlp& net, std::ostream& os) {
  RecordWriter w(os, "save_quant_mlp");
  w.header("pmlp-quant-mlp");
  w.line("topology", net.topology().layers.size(), net.topology().layers);
  w.line("bits", net.weight_bits(), net.activation_bits());
  for (std::size_t l = 0; l < net.layers().size(); ++l) {
    const auto& layer = net.layers()[l];
    w.line("layer", l, layer.input_bits, layer.qrelu_shift);
    write_dense_rows(w, layer);
  }
  w.end();
}

mlp::QuantMlp load_quant_mlp(std::istream& is) {
  RecordReader r(is, "load_quant_mlp");
  r.header("pmlp-quant-mlp");
  const auto topo = read_topology(r, /*counted=*/true);
  r.expect("bits");
  const int weight_bits = r.value<int>(2, 24, "bit config out of range");
  const int act_bits = r.value<int>(1, 24, "bit config out of range");
  std::vector<mlp::QuantLayer> layers(
      static_cast<std::size_t>(topo.n_layers()));
  for (std::size_t l = 0; l < layers.size(); ++l) {
    auto& layer = layers[l];
    layer.n_in = topo.layers[l];
    layer.n_out = topo.layers[l + 1];
    layer.weights.assign(
        static_cast<std::size_t>(layer.n_in) * layer.n_out, 0);
    layer.biases.assign(static_cast<std::size_t>(layer.n_out), 0);
  }
  const std::int64_t limit = std::int64_t{1} << (weight_bits - 1);
  read_dense_layers(
      r, topo,
      [&](std::size_t l) {
        layers[l].input_bits = r.value<int>(1, 24, "bad layer line");
        layers[l].qrelu_shift = r.value<int>(0, 63, "bad layer line");
      },
      [&](bool weights, std::size_t l, int o) {
        auto& layer = layers[l];
        if (!weights) {
          layer.biases[static_cast<std::size_t>(o)] =
              r.value<std::int64_t>("malformed bias");
          return;
        }
        for (int i = 0; i < layer.n_in; ++i) {
          layer.weights[static_cast<std::size_t>(o) * layer.n_in + i] =
              static_cast<std::int32_t>(r.value<std::int64_t>(
                  -limit, limit - 1, "weight out of range"));
        }
      });
  return mlp::QuantMlp(topo, std::move(layers), weight_bits, act_bits);
}

// --------------------------------------------------------- baseline stage

void save_baseline_pricing(const BaselinePricing& pricing, std::ostream& os) {
  RecordWriter w(os, "save_baseline_pricing");
  const auto& c = pricing.cost;
  w.header("pmlp-baseline");
  w.line("cost", c.area_mm2, c.power_uw, c.critical_delay_us, c.cell_count);
  w.line("train_accuracy", pricing.train_accuracy);
  w.line("test_accuracy", pricing.test_accuracy);
  save_quant_mlp(pricing.net, os);
  w.end();
}

BaselinePricing load_baseline_pricing(std::istream& is) {
  RecordReader r(is, "load_baseline_pricing");
  r.header("pmlp-baseline");
  BaselinePricing p;
  r.expect("cost");
  p.cost = read_cost(r);
  r.expect("train_accuracy");
  p.train_accuracy = r.hex();
  r.expect("test_accuracy");
  p.test_accuracy = r.hex();
  p.net = load_quant_mlp(is);
  r.expect("end");
  return p;
}

// --------------------------------------------------------- training result

void save_training_result(const TrainingResult& t, std::ostream& os) {
  RecordWriter w(os, "save_training_result");
  w.header("pmlp-training");
  w.line("counters", t.evaluations, t.wall_seconds, t.baseline_train_accuracy,
         t.evals_per_second, t.cache_hits, t.cache_hit_rate);
  w.line("count", t.estimated_pareto.size());
  for (const auto& p : t.estimated_pareto) {
    w.line("point", p.train_accuracy, p.fa_area);
    write_model_embedded(p.model, w);
  }
  w.end();
}

TrainingResult load_training_result(std::istream& is) {
  RecordReader r(is, "load_training_result");
  r.header("pmlp-training");
  TrainingResult t;
  r.expect("counters");
  t.evaluations = r.value<long>(0, kMaxLong, "bad counters");
  t.wall_seconds = r.hex();
  t.baseline_train_accuracy = r.hex();
  t.evals_per_second = r.hex();
  t.cache_hits = r.value<long>(0, kMaxLong, "bad cache counters");
  t.cache_hit_rate = r.hex();
  r.expect("count");
  const auto count = r.value<std::size_t>(0, std::size_t{1} << 24, "bad count");
  r.records("point", count, "point count mismatch", [&] {
    EstimatedPoint p;
    p.train_accuracy = r.hex();
    p.fa_area = r.value<long>(0, kMaxLong, "bad fa_area");
    p.model = read_model_embedded(r, is);
    t.estimated_pareto.push_back(std::move(p));
  });
  return t;
}

// -------------------------------------------------------- evaluated points

void save_evaluated_points(std::span<const HwEvaluatedPoint> points,
                           std::ostream& os) {
  RecordWriter w(os, "save_evaluated_points");
  w.header("pmlp-evaluated");
  w.line("count", points.size());
  for (const auto& p : points) {
    const auto& c = p.cost;
    w.line("point", p.test_accuracy, p.fa_area, p.functional_match,
           c.area_mm2, c.power_uw, c.critical_delay_us, c.cell_count);
    write_model_embedded(p.model, w);
  }
  w.end();
}

std::vector<HwEvaluatedPoint> load_evaluated_points(std::istream& is) {
  RecordReader r(is, "load_evaluated_points");
  r.header("pmlp-evaluated");
  r.expect("count");
  const auto count = r.value<std::size_t>(0, std::size_t{1} << 24, "bad count");
  std::vector<HwEvaluatedPoint> points;
  r.records("point", count, "point count mismatch", [&] {
    HwEvaluatedPoint p;
    p.test_accuracy = r.hex();
    p.fa_area = r.value<long>(0, kMaxLong, "bad fa_area");
    p.functional_match = r.value<int>(0, 1, "bad functional_match") == 1;
    p.cost = read_cost(r);
    p.model = read_model_embedded(r, is);
    points.push_back(std::move(p));
  });
  return points;
}

// ------------------------------------------------------------ GA state

void save_ga_state(const nsga2::GenerationState& state, std::ostream& os) {
  RecordWriter w(os, "save_ga_state");
  w.header("pmlp-ga-state");
  w.line("generation", state.next_generation);
  w.line("evaluations", state.evaluations);
  // The mt19937_64 stream serialization is space-separated tokens; keep it
  // on one tagged line so the reader can take the line verbatim.
  w.line("rng", state.rng);
  const auto& pop = state.population;
  w.line("population", pop.size(), pop.empty() ? 0 : pop.front().genes.size(),
         pop.empty() ? 0 : pop.front().objectives.size());
  for (const auto& ind : pop) {
    w.line("ind", ind.rank, ind.crowding, ind.constraint_violation);
    w.line("genes", ind.genes);
    w.line("obj", ind.objectives);
  }
  w.end();
}

nsga2::GenerationState load_ga_state(std::istream& is) {
  RecordReader r(is, "load_ga_state");
  r.header("pmlp-ga-state");
  nsga2::GenerationState state;
  r.expect("generation");
  state.next_generation = r.value<int>(0, kMaxInt, "bad generation");
  r.expect("evaluations");
  state.evaluations = r.value<long>(0, kMaxLong, "bad evaluations");
  r.expect("rng");
  state.rng = r.rest();
  if (state.rng.empty()) r.fail("missing rng state");
  r.expect("population");
  const auto count = r.value<std::size_t>(0, std::size_t{1} << 20,
                                          "bad population header");
  const auto n_genes = r.value<std::size_t>(0, std::size_t{1} << 20,
                                            "bad population header");
  const auto n_obj = r.value<std::size_t>(0, 16, "bad population header");
  r.records("ind", count, "population count mismatch", [&] {
    nsga2::Individual ind;
    ind.rank = r.value<int>(-1, kMaxInt, "bad rank");
    // Ranking needs NaN-free objectives and violations; crowding is +inf
    // on a front's boundary points but never NaN.
    ind.crowding = r.hex();
    if (std::isnan(ind.crowding)) r.fail("NaN crowding");
    ind.constraint_violation = r.hex();
    if (!std::isfinite(ind.constraint_violation)) {
      r.fail("non-finite constraint violation");
    }
    r.expect("genes");
    ind.genes.resize(n_genes);
    for (int& g : ind.genes) g = r.value<int>("malformed genes");
    r.expect("obj");
    ind.objectives.resize(n_obj);
    for (double& o : ind.objectives) {
      o = r.hex();
      if (!std::isfinite(o)) r.fail("non-finite objective");
    }
    state.population.push_back(std::move(ind));
  });
  return state;
}

// ------------------------------------------------------- checksum footers

namespace {

/// Slicing-by-8 tables (Kounavis & Berry, 2005) for the reflected
/// polynomial 0xEDB88320: kCrcTables[0] is the bytewise table and
/// kCrcTables[k][b] the CRC of byte b followed by k zero bytes, so eight
/// lookups advance the CRC by eight bytes.
constexpr auto kCrcTables = [] {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}();

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n) {
  const auto& t = kCrcTables;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t low =
        crc ^ (std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
               std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24);
    crc = t[7][low & 0xFFu] ^ t[6][(low >> 8) & 0xFFu] ^
          t[5][(low >> 16) & 0xFFu] ^ t[4][low >> 24] ^ t[3][p[4]] ^
          t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

std::string checksum_footer(const std::string& content) {
  const std::size_t lines =
      static_cast<std::size_t>(std::count(content.begin(), content.end(),
                                          '\n'));
  char buf[64];
  std::snprintf(buf, sizeof buf, "# crc32 %08x lines %zu\n",
                crc32(content.data(), content.size()), lines);
  return buf;
}

void verify_checksum_footer(const std::string& content, const char* what) {
  if (content.empty()) return;
  // Locate the final line (newline-terminated or a trailing partial line —
  // a partial line can only be a truncated footer and must be rejected).
  const bool terminated = content.back() == '\n';
  const std::size_t scan_end = terminated ? content.size() - 1
                                          : content.size();
  const std::size_t prev_nl = content.find_last_of('\n', scan_end == 0
                                                             ? 0
                                                             : scan_end - 1);
  const std::size_t line_begin =
      (scan_end == 0 || prev_nl == std::string::npos) ? 0 : prev_nl + 1;
  if (line_begin >= content.size() || content[line_begin] != '#') {
    return;  // no footer: a legacy artifact, accepted unverified
  }
  // From here on the file claims a footer; anything short of a complete,
  // matching one is corruption.
  const std::string line = content.substr(line_begin, scan_end - line_begin);
  if (!terminated) {
    throw std::invalid_argument(std::string(what) +
                                ": truncated checksum footer");
  }
  unsigned long got_crc = 0;
  std::size_t got_lines = 0;
  int consumed = 0;
  if (std::sscanf(line.c_str(), "# crc32 %8lx lines %zu%n", &got_crc,
                  &got_lines, &consumed) != 2 ||
      consumed != static_cast<int>(line.size())) {
    throw std::invalid_argument(std::string(what) +
                                ": malformed checksum footer '" + line + "'");
  }
  const std::string_view body(content.data(), line_begin);
  const auto body_lines = static_cast<std::size_t>(
      std::count(body.begin(), body.end(), '\n'));
  if (body_lines != got_lines) {
    throw std::invalid_argument(
        std::string(what) + ": checksum footer line count mismatch (footer " +
        std::to_string(got_lines) + ", file " + std::to_string(body_lines) +
        ")");
  }
  const std::uint32_t body_crc = crc32(body.data(), body.size());
  if (body_crc != static_cast<std::uint32_t>(got_crc)) {
    throw std::invalid_argument(std::string(what) +
                                ": checksum mismatch (artifact corrupt)");
  }
}

std::string read_artifact_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("cannot open " + path);
  }
  // One read into a string sized from the file; bytes appended since the
  // size was taken follow in chunks.
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  std::string content(ec ? 0 : static_cast<std::size_t>(size), '\0');
  is.read(content.data(), static_cast<std::streamsize>(content.size()));
  content.resize(static_cast<std::size_t>(is.gcount()));
  for (char chunk[4096]; is.good();) {
    is.read(chunk, sizeof chunk);
    content.append(chunk, static_cast<std::size_t>(is.gcount()));
  }
  if (is.bad()) {
    throw std::runtime_error("cannot read " + path);
  }
  verify_checksum_footer(content, path.c_str());
  return content;
}

namespace {

/// fsync one path; directory syncs are best-effort (some filesystems
/// reject O_DIRECTORY fsync), file syncs are mandatory.
void fsync_file_or_throw(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw std::runtime_error("cannot fsync " + path + ": " +
                             std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  const int saved = errno;
  ::close(fd);
  if (rc != 0) {
    throw std::runtime_error("fsync failed for " + path + ": " +
                             std::strerror(saved));
  }
}

void fsync_dir_best_effort(const std::string& dir) {
  const int fd = ::open(dir.empty() ? "." : dir.c_str(),
                        O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  (void)::fsync(fd);
  ::close(fd);
}

}  // namespace

void write_artifact_file(const std::string& path,
                         const std::function<void(std::ostream&)>& writer) {
  const std::string tmp = path + ".tmp";
  try {
    std::ostringstream body;
    writer(body);
    std::string content = body.str();
    content += checksum_footer(content);
    {
      std::ofstream os(tmp, std::ios::binary);
      if (!os) throw std::runtime_error("cannot write " + tmp);
      os.write(content.data(),
               static_cast<std::streamsize>(content.size()));
      os.flush();
      if (!os) throw std::runtime_error("short write to " + tmp);
    }
    // Durability before visibility: the temp file's bytes must be on disk
    // before the rename publishes them, and the rename itself before the
    // parent directory claims the new name survived. Otherwise a power
    // loss can publish an empty or partial artifact through the rename.
    fsync_file_or_throw(tmp);
    std::filesystem::rename(tmp, path);
    fsync_dir_best_effort(
        std::filesystem::path(path).parent_path().string());
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw;
  }
}

// ---------------------------------------------------------- front artifacts

namespace {

namespace fs = std::filesystem;

/// Exact-precision double from one index.tsv field (the writer emits
/// max_digits10 decimal digits, which round-trip IEEE-754 exactly).
double parse_index_double(const std::string& field, const std::string& line) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(field.c_str(), &end);
  if (field.empty() || end != field.c_str() + field.size() ||
      errno == ERANGE) {
    throw std::invalid_argument("load_front_dir: bad numeric field '" +
                                field + "' in index row '" + line + "'");
  }
  return v;
}

/// True when `name` looks like a front model artifact (front_*.model) — the
/// namespace the index is authoritative over. Other files in the directory
/// (index.tsv itself, notes, ...) are none of our business.
bool is_front_model_name(const std::string& name) {
  return name.size() > 12 && name.rfind("front_", 0) == 0 &&
         name.compare(name.size() - 6, 6, ".model") == 0;
}

std::string front_model_name(std::size_t i) {
  char name[40];
  std::snprintf(name, sizeof name, "front_%03zu.model", i);
  return name;
}

}  // namespace

std::vector<FrontEntry> load_front_dir(const std::string& dir) {
  const fs::path root(dir);
  std::ifstream index(root / "index.tsv");
  if (!index) {
    throw std::runtime_error("load_front_dir: cannot read " +
                             (root / "index.tsv").string());
  }
  std::string line;
  if (!std::getline(index, line) ||
      line.rfind("file\ttest_accuracy\tarea_cm2\tpower_mw", 0) != 0) {
    throw std::invalid_argument("load_front_dir: bad index.tsv header in " +
                                dir);
  }
  std::vector<FrontEntry> entries;
  while (std::getline(index, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    std::vector<std::string> fields;
    std::string field;
    std::istringstream ls(line);
    while (std::getline(ls, field, '\t')) fields.push_back(field);
    if (fields.size() != 5) {
      throw std::invalid_argument("load_front_dir: expected 5 fields in "
                                  "index row '" + line + "'");
    }
    FrontEntry e;
    e.file = fields[0];
    if (!is_front_model_name(e.file)) {
      throw std::invalid_argument("load_front_dir: index names '" + e.file +
                                  "', not a front_*.model file");
    }
    for (const auto& prior : entries) {
      if (prior.file == e.file) {
        throw std::invalid_argument("load_front_dir: duplicate index entry '" +
                                    e.file + "'");
      }
    }
    e.test_accuracy = parse_index_double(fields[1], line);
    e.area_cm2 = parse_index_double(fields[2], line);
    e.power_mw = parse_index_double(fields[3], line);
    if (fields[4] != "0" && fields[4] != "1") {
      throw std::invalid_argument("load_front_dir: bad functional_match in "
                                  "index row '" + line + "'");
    }
    e.functional_match = fields[4] == "1";
    const fs::path model_path = root / e.file;
    std::error_code ec;
    if (!fs::exists(model_path, ec)) {
      throw std::invalid_argument("load_front_dir: index names missing file " +
                                  model_path.string());
    }
    e.model = load_model_file(model_path.string());
    entries.push_back(std::move(e));
  }
  // The index is authoritative: any front_*.model on disk that it does not
  // name is a stale artifact from an earlier, larger front — reject rather
  // than glob, so a consumer can never serve a model nothing vouches for.
  for (const auto& ent : fs::directory_iterator(root)) {
    const std::string name = ent.path().filename().string();
    if (!is_front_model_name(name)) continue;
    const bool indexed =
        std::any_of(entries.begin(), entries.end(),
                    [&](const FrontEntry& e) { return e.file == name; });
    if (!indexed) {
      throw std::invalid_argument("load_front_dir: stale model file '" +
                                  name + "' in " + dir +
                                  " is not named by index.tsv");
    }
  }
  return entries;
}

std::vector<FrontEntry> load_front_tree(const std::string& dir) {
  const fs::path root(dir);
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    throw std::runtime_error("load_front_tree: '" + dir +
                             "' is not a directory");
  }
  // Deterministic entry order regardless of directory_iterator order.
  std::vector<std::string> flows;
  for (const auto& ent : fs::directory_iterator(root)) {
    if (ent.is_directory() && fs::exists(ent.path() / "evaluated.txt", ec)) {
      flows.push_back(ent.path().filename().string());
    }
  }
  std::sort(flows.begin(), flows.end());
  std::vector<FrontEntry> entries;
  for (const auto& flow : flows) {
    std::ifstream is(root / flow / "evaluated.txt");
    if (!is) {
      throw std::runtime_error("load_front_tree: cannot read " +
                               (root / flow / "evaluated.txt").string());
    }
    auto front = true_pareto(load_evaluated_points(is));
    for (std::size_t i = 0; i < front.size(); ++i) {
      FrontEntry e;
      e.file = flow + "/" + front_model_name(i);
      e.test_accuracy = front[i].test_accuracy;
      e.area_cm2 = front[i].cost.area_cm2();
      e.power_mw = front[i].cost.power_mw();
      e.functional_match = front[i].functional_match;
      e.model = std::move(front[i].model);
      entries.push_back(std::move(e));
    }
  }
  if (entries.empty()) {
    throw std::runtime_error(
        "load_front_tree: no flow under '" + dir +
        "' has reached the hardware stage (no evaluated.txt)");
  }
  return entries;
}

std::vector<FrontEntry> load_front_any(const std::string& dir) {
  std::error_code ec;
  if (fs::exists(fs::path(dir) / "index.tsv", ec)) {
    return load_front_dir(dir);
  }
  return load_front_tree(dir);
}

void save_front_dir(std::span<const FrontEntry> entries,
                    const std::string& dir) {
  const fs::path target(dir);
  const fs::path tmp(dir + ".tmp");
  const fs::path old(dir + ".old");
  fs::remove_all(tmp);  // leftovers of a previously killed writer
  fs::remove_all(old);
  fs::create_directories(tmp);
  std::ofstream index(tmp / "index.tsv");
  if (!index) {
    throw std::runtime_error("cannot write " + (tmp / "index.tsv").string());
  }
  // max_digits10 round-trips the doubles exactly, so the index always
  // agrees with the model artifacts and selector queries never tie-break
  // on rounded values.
  index << std::setprecision(std::numeric_limits<double>::max_digits10);
  index << "file\ttest_accuracy\tarea_cm2\tpower_mw\tfunctional_match\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const FrontEntry& e = entries[i];
    const std::string name = front_model_name(i);
    save_model_file(e.model, (tmp / name).string());
    index << name << '\t' << e.test_accuracy << '\t' << e.area_cm2 << '\t'
          << e.power_mw << '\t' << (e.functional_match ? 1 : 0) << '\n';
  }
  index.flush();
  if (!index) {
    throw std::runtime_error("short write to " + (tmp / "index.tsv").string());
  }
  index.close();
  if (fs::exists(target)) fs::rename(target, old);
  fs::rename(tmp, target);
  fs::remove_all(old);
}

// --------------------------------------------------------------- hexfloats

void write_hexdouble(std::ostream& os, double v) {
  RecordWriter::hexfloat(os, v);
}

double read_hexdouble(std::istream& is, const char* what) {
  return RecordReader(is, what).hex();
}

// ------------------------------------------------------------------ digest

void Fnv1a::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    state ^= p[i];
    state *= 1099511628211ull;
  }
}

std::uint64_t dataset_digest(const datasets::Dataset& d) {
  Fnv1a h;
  h.str(d.name);
  h.i64(d.n_features);
  h.i64(d.n_classes);
  h.u64(d.labels.size());
  for (int label : d.labels) h.i64(label);
  h.bytes(d.features.data(), d.features.size() * sizeof(double));
  return h.state;
}

}  // namespace pmlp::core
