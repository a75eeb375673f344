// Tests for model serialization (serialize.hpp) and greedy refinement
// (refine.hpp).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>

#include "pmlp/core/chromosome.hpp"
#include "pmlp/core/refine.hpp"
#include "pmlp/core/serialize.hpp"
#include "pmlp/core/worker.hpp"
#include "pmlp/datasets/synthetic.hpp"
#include "pmlp/mlp/backprop.hpp"
#include "pmlp/nsga2/nsga2.hpp"

namespace core = pmlp::core;
namespace ds = pmlp::datasets;
namespace mlp = pmlp::mlp;
namespace nsga2 = pmlp::nsga2;

namespace {

core::ApproxMlp random_model(std::uint64_t seed,
                             const mlp::Topology& topo = {{5, 3, 2}}) {
  core::ChromosomeCodec codec(topo, core::BitConfig{});
  std::mt19937_64 rng(seed);
  std::vector<int> genes(static_cast<std::size_t>(codec.n_genes()));
  for (int g = 0; g < codec.n_genes(); ++g) {
    const auto b = codec.bounds(g);
    genes[static_cast<std::size_t>(g)] =
        b.lo + static_cast<int>(rng() % static_cast<unsigned>(b.hi - b.lo + 1));
  }
  return codec.decode(genes);
}

}  // namespace

TEST(Serialize, TextRoundTripPreservesEverything) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto net = random_model(seed);
    const auto restored = core::from_text(core::to_text(net));
    ASSERT_EQ(restored.topology().layers, net.topology().layers);
    EXPECT_EQ(restored.bits().weight_bits, net.bits().weight_bits);
    EXPECT_EQ(restored.bits().bias_bits, net.bits().bias_bits);
    for (std::size_t l = 0; l < net.layers().size(); ++l) {
      const auto& a = net.layers()[l];
      const auto& b = restored.layers()[l];
      EXPECT_EQ(a.qrelu_shift, b.qrelu_shift);
      for (int o = 0; o < a.n_out; ++o) {
        EXPECT_EQ(a.biases[static_cast<std::size_t>(o)],
                  b.biases[static_cast<std::size_t>(o)]);
        for (int i = 0; i < a.n_in; ++i) {
          EXPECT_EQ(a.conn(o, i).mask, b.conn(o, i).mask);
          EXPECT_EQ(a.conn(o, i).sign, b.conn(o, i).sign);
          EXPECT_EQ(a.conn(o, i).exponent, b.conn(o, i).exponent);
        }
      }
    }
  }
}

TEST(Serialize, RoundTripPreservesBehaviour) {
  const auto net = random_model(7);
  const auto restored = core::from_text(core::to_text(net));
  std::mt19937_64 rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint8_t> x(5);
    for (auto& v : x) v = static_cast<std::uint8_t>(rng() & 0xF);
    EXPECT_EQ(restored.forward(x), net.forward(x));
  }
}

TEST(Serialize, FileRoundTrip) {
  const auto net = random_model(11);
  const std::string path = "/tmp/pmlp_serialize_test.model";
  core::save_model_file(net, path);
  const auto restored = core::load_model_file(path);
  EXPECT_EQ(core::to_text(restored), core::to_text(net));
  std::remove(path.c_str());
}

TEST(Serialize, RejectsBadHeader) {
  EXPECT_THROW((void)core::from_text("wrong v1\n"), std::invalid_argument);
  EXPECT_THROW((void)core::from_text("pmlp-approx-mlp v9\n"),
               std::invalid_argument);
  EXPECT_THROW((void)core::from_text(""), std::invalid_argument);
}

TEST(Serialize, RejectsOutOfRangeValues) {
  const auto net = random_model(13);
  auto text = core::to_text(net);
  // Corrupt a conn line with a huge exponent.
  const auto pos = text.find("conn 0 0 ");
  ASSERT_NE(pos, std::string::npos);
  const auto eol = text.find('\n', pos);
  text.replace(pos, eol - pos, "conn 0 0 3 1 99");
  EXPECT_THROW((void)core::from_text(text), std::invalid_argument);
}

TEST(Serialize, RejectsUnknownTag) {
  const auto net = random_model(17);
  EXPECT_THROW((void)core::from_text(core::to_text(net) + "garbage 1\n"),
               std::invalid_argument);
}

// A standalone front_*.model has no terminator line, so a file cut at a
// line boundary is only caught by requiring every conn and bias of every
// layer: without that check it loads as a different, partly pruned model.
TEST(Serialize, EveryLinePrefixOfModelRejected) {
  const auto text = core::to_text(random_model(21, mlp::Topology{{4, 3, 2}}));
  int prefixes = 0;
  for (std::size_t n = 0; n < text.size(); n = text.find('\n', n) + 1) {
    EXPECT_THROW((void)core::from_text(text.substr(0, n)),
                 std::invalid_argument)
        << "prefix of " << n << " bytes";
    ++prefixes;
  }
  // Header, topology, bits, 2 layer lines, 4*3 + 3*2 conns, 3 + 2 biases.
  EXPECT_EQ(prefixes, 28);
  EXPECT_NO_THROW((void)core::from_text(text));
}

// Impossible topologies must fail as std::invalid_argument before any
// allocation is sized from them (not as length_error or bad_alloc).
TEST(Serialize, RejectsImpossibleTopologies) {
  const std::string bits = " bits 8 4 8 12\n";
  for (const std::string topo :
       {"topology -5 2", "topology 3000000 3000000", "topology 4",
        "topology 2 0 2", "topology 2 x 2", "topology 1048576 1048576 2"}) {
    SCOPED_TRACE(topo);
    EXPECT_THROW((void)core::from_text("pmlp-approx-mlp v1\n" + topo + bits),
                 std::invalid_argument);
  }
  std::string deep = "pmlp-approx-mlp v1\ntopology";
  for (int i = 0; i < 65; ++i) deep += " 2";
  EXPECT_THROW((void)core::from_text(deep + bits), std::invalid_argument);

  for (const std::string topo :
       {"topology 3 2 1048576 1048576", "topology 3 -5 2 2",
        "topology 1 4", "topology 65 2 2"}) {
    SCOPED_TRACE(topo);
    std::istringstream fs("pmlp-float-mlp v1\n" + topo + "\nend\n");
    EXPECT_THROW((void)core::load_float_mlp(fs), std::invalid_argument);
    std::istringstream qs("pmlp-quant-mlp v1\n" + topo + "\nbits 8 8\nend\n");
    EXPECT_THROW((void)core::load_quant_mlp(qs), std::invalid_argument);
  }
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW((void)core::load_model_file("/nonexistent/x.model"),
               std::runtime_error);
}

TEST(Serialize, HugeHeaderCountWithoutRecordsRejected) {
  // A header count is untrusted input: loaders must not size memory from
  // it, so a huge count followed by no records is a plain count mismatch
  // (std::invalid_argument, which the flow quarantines), never an
  // allocation failure.
  const auto expect_mismatch = [](const std::string& text, auto load) {
    SCOPED_TRACE(text.substr(0, text.find('\n')));
    std::istringstream is(text);
    try {
      (void)load(is);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("mismatch"), std::string::npos)
          << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "threw " << e.what();
    }
  };
  // With `count` replaced by `huge` in the text `save` writes.
  const auto with_count = [](auto save, const std::string& count,
                             const std::string& huge) {
    std::ostringstream os;
    save(os);
    std::string text = os.str();
    const auto at = text.find(count);
    EXPECT_NE(at, std::string::npos) << text;
    return text.replace(at, count.size(), huge);
  };

  expect_mismatch(
      "pmlp-dataset v1\nname x\nshape 2147483647 2 4294967296\nend\n",
      [](std::istream& is) { return core::load_dataset(is); });
  expect_mismatch(
      "pmlp-quant-dataset v1\nname x\nshape 2147483647 2 8 4294967296\n"
      "end\n",
      [](std::istream& is) { return core::load_quant_dataset(is); });
  expect_mismatch(
      with_count([](std::ostream& os) {
        core::save_training_result(core::TrainingResult{}, os);
      }, "count 0", "count 16777216"),
      [](std::istream& is) { return core::load_training_result(is); });
  expect_mismatch(
      with_count([](std::ostream& os) {
        core::save_evaluated_points({}, os);
      }, "count 0", "count 16777216"),
      [](std::istream& is) { return core::load_evaluated_points(is); });
  expect_mismatch(
      with_count([](std::ostream& os) {
        nsga2::GenerationState state;
        state.rng = "1";
        core::save_ga_state(state, os);
      }, "population 0 0 0", "population 1048576 1048576 16"),
      [](std::istream& is) { return core::load_ga_state(is); });

  // The header-only file (no `end`) is rejected the same way.
  std::istringstream truncated(
      "pmlp-dataset v1\nname x\nshape 2147483647 2 4294967296\n");
  EXPECT_THROW((void)core::load_dataset(truncated), std::invalid_argument);
}

// --------------------------------------------- flow checkpoint artifacts

namespace {

template <typename T, typename Save, typename Load>
T round_trip(const T& value, Save save, Load load) {
  std::ostringstream os;
  save(value, os);
  std::istringstream is(os.str());
  return load(is);
}

template <typename T, typename Save>
std::string dump(const T& value, Save save) {
  std::ostringstream os;
  save(value, os);
  return os.str();
}

ds::Dataset tiny_dataset() {
  ds::Dataset d;
  d.name = "tiny";
  d.n_features = 3;
  d.n_classes = 2;
  // Values picked to stress exact double round-trips (subnormal-ish,
  // repeating binary fractions, exact integers).
  d.features = {0.1, 0.25, 1.0, 1e-17, 0.3333333333333333, 0.9999999999999999};
  d.labels = {0, 1};
  return d;
}

ds::QuantizedDataset tiny_quant() {
  ds::QuantizedDataset d;
  d.name = "tinyq";
  d.n_features = 2;
  d.n_classes = 3;
  d.input_bits = 4;
  d.codes = {0, 15, 7, 8, 1, 14};
  d.labels = {0, 2, 1};
  return d;
}

}  // namespace

TEST(SerializeArtifacts, DatasetRoundTripExact) {
  const auto d = tiny_dataset();
  const auto r = round_trip(d, core::save_dataset, core::load_dataset);
  EXPECT_EQ(r.name, d.name);
  EXPECT_EQ(r.n_features, d.n_features);
  EXPECT_EQ(r.n_classes, d.n_classes);
  EXPECT_EQ(r.labels, d.labels);
  ASSERT_EQ(r.features.size(), d.features.size());
  for (std::size_t i = 0; i < d.features.size(); ++i) {
    EXPECT_EQ(r.features[i], d.features[i]);  // bit-exact, not approx
  }
}

TEST(SerializeArtifacts, DatasetRejectsMalformed) {
  const auto good =
      dump(tiny_dataset(), [](const auto& v, auto& os) {
        core::save_dataset(v, os);
      });
  auto parse = [](const std::string& text) {
    std::istringstream is(text);
    return core::load_dataset(is);
  };
  EXPECT_THROW((void)parse("pmlp-dataset v9\n"), std::invalid_argument);
  EXPECT_THROW((void)parse("wrong v1\n"), std::invalid_argument);
  EXPECT_THROW((void)parse(""), std::invalid_argument);
  // Missing end terminator.
  EXPECT_THROW((void)parse(good.substr(0, good.size() - 4)),
               std::invalid_argument);
  // Label out of range.
  std::string bad = good;
  bad.replace(bad.find("row 0"), 5, "row 9");
  EXPECT_THROW((void)parse(bad), std::invalid_argument);
  // Unknown tag.
  bad = good;
  bad.replace(bad.find("row"), 3, "wat");
  EXPECT_THROW((void)parse(bad), std::invalid_argument);
  // Non-numeric feature.
  bad = good;
  bad.replace(bad.find("0x"), 2, "zz");
  EXPECT_THROW((void)parse(bad), std::invalid_argument);
}

TEST(SerializeArtifacts, DatasetRejectsNonFiniteFeatures) {
  // A NaN feature would pass the quantizer's clamp straight into lround.
  const auto good = dump(tiny_dataset(), [](const auto& v, auto& os) {
    core::save_dataset(v, os);
  });
  const std::string first = "0x1.999999999999ap-4";  // 0.1, the first feature
  ASSERT_NE(good.find(first), std::string::npos);
  for (const char* v : {"nan", "-nan", "inf", "-inf", "0x1p+1024"}) {
    std::string bad = good;
    bad.replace(bad.find(first), first.size(), v);
    std::istringstream is(bad);
    EXPECT_THROW((void)core::load_dataset(is), std::invalid_argument) << v;
  }
}

TEST(SerializeArtifacts, QuantDatasetRoundTripAndRejects) {
  const auto d = tiny_quant();
  const auto r =
      round_trip(d, core::save_quant_dataset, core::load_quant_dataset);
  EXPECT_EQ(r.name, d.name);
  EXPECT_EQ(r.input_bits, d.input_bits);
  EXPECT_EQ(r.codes, d.codes);
  EXPECT_EQ(r.labels, d.labels);

  const auto good = dump(d, [](const auto& v, auto& os) {
    core::save_quant_dataset(v, os);
  });
  auto parse = [](const std::string& text) {
    std::istringstream is(text);
    return core::load_quant_dataset(is);
  };
  EXPECT_THROW((void)parse("pmlp-quant-dataset v2\n"),
               std::invalid_argument);
  // Code above 2^input_bits - 1.
  std::string bad = good;
  bad.replace(bad.find(" 15"), 3, " 16");
  EXPECT_THROW((void)parse(bad), std::invalid_argument);
  EXPECT_THROW((void)parse(good.substr(0, good.size() - 4)),
               std::invalid_argument);
}

TEST(SerializeArtifacts, FloatMlpRoundTripExact) {
  auto spec = ds::breast_cancer_spec();
  spec.n_samples = 120;
  const auto data = ds::generate(spec);
  mlp::BackpropConfig bp;
  bp.epochs = 10;
  bp.seed = 5;
  const auto net =
      mlp::train_float_mlp(mlp::Topology{{10, 3, 2}}, data, bp);
  const auto r = round_trip(net, core::save_float_mlp, core::load_float_mlp);
  ASSERT_EQ(r.topology().layers, net.topology().layers);
  for (std::size_t l = 0; l < net.layers().size(); ++l) {
    EXPECT_EQ(r.layers()[l].weights, net.layers()[l].weights);
    EXPECT_EQ(r.layers()[l].biases, net.layers()[l].biases);
  }

  const auto good = dump(net, [](const auto& v, auto& os) {
    core::save_float_mlp(v, os);
  });
  auto parse = [](const std::string& text) {
    std::istringstream is(text);
    return core::load_float_mlp(is);
  };
  EXPECT_THROW((void)parse("pmlp-float-mlp v2\n"), std::invalid_argument);
  EXPECT_THROW((void)parse(good.substr(0, good.size() - 4)),
               std::invalid_argument);
  std::string bad = good;
  bad.replace(bad.find("w 0"), 3, "w 9");  // neuron out of range
  EXPECT_THROW((void)parse(bad), std::invalid_argument);
}

TEST(SerializeArtifacts, QuantMlpRoundTripPreservesBehaviour) {
  auto spec = ds::breast_cancer_spec();
  spec.n_samples = 120;
  const auto data = ds::generate(spec);
  mlp::BackpropConfig bp;
  bp.epochs = 10;
  bp.seed = 5;
  const auto fnet =
      mlp::train_float_mlp(mlp::Topology{{10, 3, 2}}, data, bp);
  const auto net = mlp::QuantMlp::from_float(fnet);
  const auto r = round_trip(net, core::save_quant_mlp, core::load_quant_mlp);
  ASSERT_EQ(r.topology().layers, net.topology().layers);
  EXPECT_EQ(r.weight_bits(), net.weight_bits());
  const auto quant = ds::quantize_inputs(data, 4);
  for (std::size_t i = 0; i < quant.size(); ++i) {
    EXPECT_EQ(r.forward(quant.row(i)), net.forward(quant.row(i)));
  }

  const auto good = dump(net, [](const auto& v, auto& os) {
    core::save_quant_mlp(v, os);
  });
  auto parse = [](const std::string& text) {
    std::istringstream is(text);
    return core::load_quant_mlp(is);
  };
  EXPECT_THROW((void)parse("pmlp-quant-mlp v2\n"), std::invalid_argument);
  EXPECT_THROW((void)parse(good.substr(0, good.size() - 4)),
               std::invalid_argument);
  // Weight outside the 8-bit signed range.
  std::string bad = good;
  const auto wpos = bad.find("w 0 ");
  const auto weol = bad.find('\n', wpos);
  bad.replace(wpos, weol - wpos, "w 0 999 0 0 0 0 0 0 0 0 0");
  EXPECT_THROW((void)parse(bad), std::invalid_argument);
}

TEST(SerializeArtifacts, TrainingResultRoundTrip) {
  core::TrainingResult t;
  t.evaluations = 1234;
  t.wall_seconds = 0.125;
  t.baseline_train_accuracy = 0.9000000000000001;
  t.evals_per_second = 9876.5;
  t.cache_hits = 77;
  t.cache_hit_rate = 0.25;
  for (std::uint64_t seed : {1u, 2u}) {
    core::EstimatedPoint p;
    p.model = random_model(seed);
    p.train_accuracy = 0.5 + 0.01 * static_cast<double>(seed);
    p.fa_area = 100 + static_cast<long>(seed);
    t.estimated_pareto.push_back(std::move(p));
  }

  const auto r = round_trip(t, core::save_training_result,
                            core::load_training_result);
  EXPECT_EQ(r.evaluations, t.evaluations);
  EXPECT_EQ(r.wall_seconds, t.wall_seconds);
  EXPECT_EQ(r.baseline_train_accuracy, t.baseline_train_accuracy);
  EXPECT_EQ(r.evals_per_second, t.evals_per_second);
  EXPECT_EQ(r.cache_hits, t.cache_hits);
  EXPECT_EQ(r.cache_hit_rate, t.cache_hit_rate);
  ASSERT_EQ(r.estimated_pareto.size(), t.estimated_pareto.size());
  for (std::size_t i = 0; i < t.estimated_pareto.size(); ++i) {
    EXPECT_EQ(core::to_text(r.estimated_pareto[i].model),
              core::to_text(t.estimated_pareto[i].model));
    EXPECT_EQ(r.estimated_pareto[i].train_accuracy,
              t.estimated_pareto[i].train_accuracy);
    EXPECT_EQ(r.estimated_pareto[i].fa_area, t.estimated_pareto[i].fa_area);
  }

  const auto good = dump(t, [](const auto& v, auto& os) {
    core::save_training_result(v, os);
  });
  auto parse = [](const std::string& text) {
    std::istringstream is(text);
    return core::load_training_result(is);
  };
  EXPECT_THROW((void)parse("pmlp-training v2\n"), std::invalid_argument);
  // Truncation inside an embedded model (drops its endmodel + outer end).
  const auto cut = good.find("endmodel");
  EXPECT_THROW((void)parse(good.substr(0, cut)), std::invalid_argument);
  // Count mismatch.
  std::string bad = good;
  bad.replace(bad.find("count 2"), 7, "count 3");
  EXPECT_THROW((void)parse(bad), std::invalid_argument);
  // Corrupt gene inside an embedded model block propagates.
  bad = good;
  const auto cpos = bad.find("conn 0 0 ");
  const auto ceol = bad.find('\n', cpos);
  bad.replace(cpos, ceol - cpos, "conn 0 0 3 1 99");
  EXPECT_THROW((void)parse(bad), std::invalid_argument);
}

TEST(SerializeArtifacts, EvaluatedPointsRoundTrip) {
  std::vector<core::HwEvaluatedPoint> points;
  for (std::uint64_t seed : {3u, 4u}) {
    core::HwEvaluatedPoint p;
    p.model = random_model(seed);
    p.test_accuracy = 0.75 + 0.001 * static_cast<double>(seed);
    p.fa_area = 55;
    p.functional_match = seed == 3u;
    p.cost.area_mm2 = 1.5;
    p.cost.power_uw = 2.5e3;
    p.cost.critical_delay_us = 12.0;
    p.cost.cell_count = 321;
    points.push_back(std::move(p));
  }
  const auto r = round_trip(points, core::save_evaluated_points,
                            core::load_evaluated_points);
  ASSERT_EQ(r.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(core::to_text(r[i].model), core::to_text(points[i].model));
    EXPECT_EQ(r[i].test_accuracy, points[i].test_accuracy);
    EXPECT_EQ(r[i].functional_match, points[i].functional_match);
    EXPECT_EQ(r[i].cost.area_mm2, points[i].cost.area_mm2);
    EXPECT_EQ(r[i].cost.power_uw, points[i].cost.power_uw);
    EXPECT_EQ(r[i].cost.cell_count, points[i].cost.cell_count);
  }

  const auto good = dump(points, [](const auto& v, auto& os) {
    core::save_evaluated_points(v, os);
  });
  auto parse = [](const std::string& text) {
    std::istringstream is(text);
    return core::load_evaluated_points(is);
  };
  EXPECT_THROW((void)parse("pmlp-evaluated v2\n"), std::invalid_argument);
  EXPECT_THROW((void)parse(good.substr(0, good.size() - 4)),
               std::invalid_argument);
  // functional_match must be 0/1.
  std::string bad = good;
  bad.replace(bad.find(" 55 1 "), 6, " 55 7 ");
  EXPECT_THROW((void)parse(bad), std::invalid_argument);
}

TEST(SerializeArtifacts, NamesWithSpacesRoundTrip) {
  auto d = tiny_dataset();
  d.name = "red wine quality";
  const auto r = round_trip(d, core::save_dataset, core::load_dataset);
  EXPECT_EQ(r.name, d.name);
  auto q = tiny_quant();
  q.name = "white wine";
  const auto rq =
      round_trip(q, core::save_quant_dataset, core::load_quant_dataset);
  EXPECT_EQ(rq.name, q.name);
}

TEST(SerializeArtifacts, FloatMlpRejectsMissingRows) {
  mlp::FloatMlp net(mlp::Topology{{4, 3, 2}}, 9);
  const auto good = dump(net, [](const auto& v, auto& os) {
    core::save_float_mlp(v, os);
  });
  // Drop one weight row but keep the file otherwise well-formed: must be
  // rejected, not silently filled with random initialization.
  const auto pos = good.find("w 1");
  const auto eol = good.find('\n', pos);
  std::string bad = good;
  bad.erase(pos, eol - pos + 1);
  std::istringstream is(bad);
  EXPECT_THROW((void)core::load_float_mlp(is), std::invalid_argument);
}

TEST(SerializeArtifacts, QuantMlpRejectsMissingRows) {
  mlp::FloatMlp fnet(mlp::Topology{{4, 3, 2}}, 9);
  const auto net = mlp::QuantMlp::from_float(fnet);
  const auto good = dump(net, [](const auto& v, auto& os) {
    core::save_quant_mlp(v, os);
  });
  // Missing bias line.
  auto pos = good.find("b 1");
  auto eol = good.find('\n', pos);
  std::string bad = good;
  bad.erase(pos, eol - pos + 1);
  {
    std::istringstream is(bad);
    EXPECT_THROW((void)core::load_quant_mlp(is), std::invalid_argument);
  }
  // Missing layer header line (would silently keep default qrelu shift).
  pos = good.find("layer 1");
  eol = good.find('\n', pos);
  bad = good;
  bad.erase(pos, eol - pos + 1);
  {
    std::istringstream is(bad);
    EXPECT_THROW((void)core::load_quant_mlp(is), std::invalid_argument);
  }
}

TEST(SerializeArtifacts, BaselinePricingRoundTripAndRejects) {
  mlp::FloatMlp fnet(mlp::Topology{{4, 3, 2}}, 9);
  core::BaselinePricing p;
  p.net = mlp::QuantMlp::from_float(fnet);
  p.cost.area_mm2 = 123.5;
  p.cost.power_uw = 4.5e3;
  p.cost.critical_delay_us = 7.25;
  p.cost.cell_count = 999;
  p.train_accuracy = 0.875;
  p.test_accuracy = 0.8333333333333333;

  const auto r = round_trip(p, core::save_baseline_pricing,
                            core::load_baseline_pricing);
  EXPECT_EQ(r.cost.area_mm2, p.cost.area_mm2);
  EXPECT_EQ(r.cost.power_uw, p.cost.power_uw);
  EXPECT_EQ(r.cost.critical_delay_us, p.cost.critical_delay_us);
  EXPECT_EQ(r.cost.cell_count, p.cost.cell_count);
  EXPECT_EQ(r.train_accuracy, p.train_accuracy);
  EXPECT_EQ(r.test_accuracy, p.test_accuracy);
  ASSERT_EQ(r.net.topology().layers, p.net.topology().layers);
  EXPECT_EQ(r.net.layers()[0].weights, p.net.layers()[0].weights);
  EXPECT_EQ(r.net.layers()[1].qrelu_shift, p.net.layers()[1].qrelu_shift);

  const auto good = dump(p, [](const auto& v, auto& os) {
    core::save_baseline_pricing(v, os);
  });
  auto parse = [](const std::string& text) {
    std::istringstream is(text);
    return core::load_baseline_pricing(is);
  };
  EXPECT_THROW((void)parse("pmlp-baseline v2\n"), std::invalid_argument);
  EXPECT_THROW((void)parse(good.substr(0, good.size() - 4)),
               std::invalid_argument);
  std::string bad = good;
  bad.replace(bad.find(" 999"), 4, " -12");  // negative cell count
  EXPECT_THROW((void)parse(bad), std::invalid_argument);
}

TEST(SerializeArtifacts, DatasetDigestDetectsChanges) {
  const auto d = tiny_dataset();
  auto d2 = d;
  EXPECT_EQ(core::dataset_digest(d), core::dataset_digest(d2));
  d2.features[0] += 1e-16;
  EXPECT_NE(core::dataset_digest(d), core::dataset_digest(d2));
  auto d3 = d;
  d3.labels[0] = 1;
  EXPECT_NE(core::dataset_digest(d), core::dataset_digest(d3));
  auto d4 = d;
  d4.name = "other";
  EXPECT_NE(core::dataset_digest(d), core::dataset_digest(d4));
}

TEST(SerializeArtifacts, GaStateRoundTripExact) {
  nsga2::GenerationState st;
  st.next_generation = 7;
  st.evaluations = 421;
  std::mt19937_64 rng(99);
  rng.discard(12345);
  {
    std::ostringstream ros;
    ros << rng;
    st.rng = ros.str();
  }
  for (int i = 0; i < 4; ++i) {
    nsga2::Individual ind;
    ind.genes = {i, 2 * i, 5 - i};
    ind.objectives = {0.5 + i, 1e-17 * i};
    ind.constraint_violation = i == 2 ? 0.25 : 0.0;
    ind.rank = i % 2;
    // Boundary individuals carry infinite crowding — must survive a trip.
    ind.crowding =
        i == 0 ? std::numeric_limits<double>::infinity() : 0.125 * i;
    st.population.push_back(std::move(ind));
  }

  const auto r = round_trip(st, core::save_ga_state, core::load_ga_state);
  EXPECT_EQ(r.next_generation, st.next_generation);
  EXPECT_EQ(r.evaluations, st.evaluations);
  EXPECT_EQ(r.rng, st.rng);
  ASSERT_EQ(r.population.size(), st.population.size());
  for (std::size_t i = 0; i < st.population.size(); ++i) {
    EXPECT_EQ(r.population[i].genes, st.population[i].genes);
    EXPECT_EQ(r.population[i].objectives, st.population[i].objectives);
    EXPECT_EQ(r.population[i].constraint_violation,
              st.population[i].constraint_violation);
    EXPECT_EQ(r.population[i].rank, st.population[i].rank);
    EXPECT_EQ(r.population[i].crowding, st.population[i].crowding);
  }
  // The restored RNG blob must reproduce the exact stream.
  std::mt19937_64 restored;
  std::istringstream ris(r.rng);
  ris >> restored;
  for (int i = 0; i < 8; ++i) EXPECT_EQ(restored(), rng());

  const auto good = dump(st, [](const auto& v, auto& os) {
    core::save_ga_state(v, os);
  });
  auto parse = [](const std::string& text) {
    std::istringstream is(text);
    return core::load_ga_state(is);
  };
  EXPECT_THROW((void)parse("pmlp-ga-state v2\n"), std::invalid_argument);
  EXPECT_THROW((void)parse(good.substr(0, good.size() - 4)),
               std::invalid_argument);
  std::string bad = good;
  bad.replace(bad.find("population 4"), 12, "population 5");
  EXPECT_THROW((void)parse(bad), std::invalid_argument);
}

namespace {

/// A crc-free two-individual GA state whose first `ind`/`obj` lines are
/// replaced by the given ones.
std::string ga_state_text(const std::string& ind, const std::string& obj) {
  return "pmlp-ga-state v1\ngeneration 1\nevaluations 8\nrng 1 2 3\n"
         "population 2 1 2\n" + ind + "\ngenes 1\n" + obj + "\n"
         "ind 1 0x1p-2 0x0p+0\ngenes 0\nobj 0x1p+0 0x1p+1\nend\n";
}

nsga2::GenerationState parse_ga_state(const std::string& text) {
  std::istringstream is(text);
  return core::load_ga_state(is);
}

}  // namespace

TEST(SerializeArtifacts, GaStateAcceptsInfiniteCrowding) {
  const auto st = parse_ga_state(
      ga_state_text("ind 0 inf 0x0p+0", "obj 0x1p-1 0x1p+2"));
  ASSERT_EQ(st.population.size(), 2u);
  EXPECT_TRUE(std::isinf(st.population[0].crowding));
}

TEST(SerializeArtifacts, GaStateRejectsNanCrowding) {
  EXPECT_THROW((void)parse_ga_state(
                   ga_state_text("ind 0 nan 0x0p+0", "obj 0x1p-1 0x1p+2")),
               std::invalid_argument);
}

TEST(SerializeArtifacts, GaStateRejectsNonFiniteViolation) {
  for (const char* v : {"nan", "inf", "-inf"}) {
    EXPECT_THROW((void)parse_ga_state(ga_state_text(
                     std::string("ind 0 inf ") + v, "obj 0x1p-1 0x1p+2")),
                 std::invalid_argument)
        << v;
  }
}

TEST(SerializeArtifacts, GaStateRejectsNonFiniteObjective) {
  for (const char* obj : {"obj nan 0x1p+2", "obj 0x1p-1 -nan",
                          "obj inf 0x1p+2", "obj 0x1p-1 -inf"}) {
    EXPECT_THROW((void)parse_ga_state(ga_state_text("ind 0 inf 0x0p+0", obj)),
                 std::invalid_argument)
        << obj;
  }
}

// --------------------------------------------- crash-truncation property

namespace {

/// One artifact type for the truncation sweep: its canonical body and a
/// parse-then-redump functor (throws std::invalid_argument on damage).
struct SweepArtifact {
  const char* name;
  std::string body;
  std::function<std::string(const std::string&)> reparse;
};

template <typename T, typename Save, typename Load>
SweepArtifact sweep_artifact(const char* name, const T& value, Save save,
                             Load load) {
  SweepArtifact a;
  a.name = name;
  a.body = dump(value, save);
  a.reparse = [save, load](const std::string& text) {
    std::istringstream is(text);
    const T parsed = load(is);
    std::ostringstream os;
    save(parsed, os);
    return os.str();
  };
  return a;
}

}  // namespace

// A crash can leave any byte-prefix of an artifact on disk (the
// fsync+rename commit in write_artifact_file makes this impossible for the
// FINAL name, but the property must hold anyway: no prefix of any artifact
// may load as silently wrong data). For every artifact type and every
// prefix length: the read either throws std::invalid_argument or yields
// the exact original value.
TEST(SerializeArtifacts, EveryPrefixTruncationDetectedOrExact) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("pmlp_serialize_sweep_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  std::vector<SweepArtifact> artifacts;
  artifacts.push_back(sweep_artifact(
      "dataset", tiny_dataset(), core::save_dataset, core::load_dataset));
  artifacts.push_back(sweep_artifact("quant_dataset", tiny_quant(),
                                     core::save_quant_dataset,
                                     core::load_quant_dataset));
  {
    mlp::FloatMlp fnet(mlp::Topology{{4, 3, 2}}, 9);
    artifacts.push_back(sweep_artifact("float_mlp", fnet,
                                       core::save_float_mlp,
                                       core::load_float_mlp));
    core::BaselinePricing p;
    p.net = mlp::QuantMlp::from_float(fnet);
    p.cost.area_mm2 = 123.5;
    p.train_accuracy = 0.875;
    p.test_accuracy = 0.8333333333333333;
    artifacts.push_back(sweep_artifact("baseline", p,
                                       core::save_baseline_pricing,
                                       core::load_baseline_pricing));
  }
  {
    core::TrainingResult t;
    t.evaluations = 12;
    core::EstimatedPoint p;
    p.model = random_model(5, mlp::Topology{{3, 2, 2}});
    p.train_accuracy = 0.75;
    p.fa_area = 42;
    t.estimated_pareto.push_back(std::move(p));
    artifacts.push_back(sweep_artifact("training", t,
                                       core::save_training_result,
                                       core::load_training_result));
    core::HwEvaluatedPoint hp;
    hp.model = random_model(6, mlp::Topology{{3, 2, 2}});
    hp.test_accuracy = 0.5;
    hp.fa_area = 9;
    hp.cost.cell_count = 10;
    const std::vector<core::HwEvaluatedPoint> pts = {hp};
    artifacts.push_back(sweep_artifact(
        "evaluated", pts,
        [](const auto& v, std::ostream& os) {
          core::save_evaluated_points(v, os);
        },
        [](std::istream& is) { return core::load_evaluated_points(is); }));
  }
  {
    nsga2::GenerationState st;
    st.next_generation = 2;
    st.evaluations = 8;
    std::mt19937_64 rng(3);
    std::ostringstream ros;
    ros << rng;
    st.rng = ros.str();
    nsga2::Individual ind;
    ind.genes = {1, 2};
    ind.objectives = {0.5};
    st.population.push_back(std::move(ind));
    artifacts.push_back(sweep_artifact("ga_state", st, core::save_ga_state,
                                       core::load_ga_state));
  }
  {
    // The campaign manifest is saved and loaded by tree root: reparse
    // through a scratch root, comparing the body above the crc footer.
    core::CampaignManifest m;
    m.population = 8;
    m.generations = 2;
    m.ga_checkpoint = 1;
    m.flows = {{"a_s1", "A", 1}, {"b_s2", "B", 2}};
    const fs::path root = dir / "manifest_root";
    const auto body = [root](const core::CampaignManifest& v) {
      core::save_campaign_manifest(v, root.string());
      std::ifstream is(root / "campaign.txt", std::ios::binary);
      std::stringstream ss;
      ss << is.rdbuf();
      const std::string text = ss.str();
      return text.substr(0, text.rfind('#'));
    };
    SweepArtifact a;
    a.name = "manifest";
    a.body = body(m);
    a.reparse = [root, body](const std::string& text) {
      {
        std::ofstream os(root / "campaign.txt",
                         std::ios::binary | std::ios::trunc);
        os << text;
      }
      return body(core::load_campaign_manifest(root.string()));
    };
    artifacts.push_back(std::move(a));
  }

  for (const auto& art : artifacts) {
    SCOPED_TRACE(art.name);
    const std::string full_path = (dir / art.name).string();
    core::write_artifact_file(full_path,
                              [&](std::ostream& os) { os << art.body; });
    std::string full;
    {
      std::ifstream is(full_path, std::ios::binary);
      std::stringstream ss;
      ss << is.rdbuf();
      full = ss.str();
    }
    ASSERT_GT(full.size(), art.body.size());  // footer appended
    const std::string cut_path = full_path + ".cut";
    int detected = 0, exact = 0;
    for (std::size_t n = 0; n < full.size(); ++n) {
      {
        std::ofstream os(cut_path, std::ios::binary | std::ios::trunc);
        os.write(full.data(), static_cast<std::streamsize>(n));
      }
      try {
        const std::string text = core::read_artifact_file(cut_path);
        EXPECT_EQ(art.reparse(text), art.body) << "prefix " << n;
        ++exact;
      } catch (const std::invalid_argument&) {
        ++detected;  // damage caught — the only acceptable failure mode
      }
    }
    // Almost every prefix must be rejected; the only loadable prefixes are
    // the complete-body-no-footer legacy form(s).
    EXPECT_GT(detected, static_cast<int>(full.size()) - 4) << art.name;
    EXPECT_LE(exact, 3) << art.name;
  }
  fs::remove_all(dir);
}

// ------------------------------------------------------------------ refine

namespace {

struct RefineFixture {
  ds::QuantizedDataset train;
  core::ApproxMlp model;

  static RefineFixture make() {
    auto spec = ds::breast_cancer_spec();
    spec.n_samples = 240;
    auto raw = ds::generate(spec);
    mlp::BackpropConfig bp;
    bp.epochs = 60;
    bp.seed = 51;
    auto fnet = mlp::train_float_mlp(
        mlp::Topology{{raw.n_features, 3, raw.n_classes}}, raw, bp);
    auto baseline = mlp::QuantMlp::from_float(fnet);
    return RefineFixture{
        ds::quantize_inputs(raw, 4),
        core::ApproxMlp::from_quant_baseline(baseline, core::BitConfig{})};
  }
};

}  // namespace

TEST(Refine, ReducesAreaWithoutBreachingFloor) {
  auto f = RefineFixture::make();
  const double base_acc = core::accuracy(f.model, f.train);
  core::RefineConfig cfg;
  cfg.accuracy_floor = base_acc - 0.03;
  const auto report = core::refine_greedy(f.model, f.train, cfg);

  EXPECT_LE(report.fa_after, report.fa_before);
  EXPECT_GT(report.bits_cleared, 0);
  EXPECT_GE(report.accuracy_after, cfg.accuracy_floor - 1e-12);
  EXPECT_EQ(report.fa_after, f.model.fa_area());
}

TEST(Refine, StrictFloorBlocksChangesThatHurt) {
  auto f = RefineFixture::make();
  const double base_acc = core::accuracy(f.model, f.train);
  core::RefineConfig cfg;
  cfg.accuracy_floor = base_acc;  // no loss allowed at all
  const auto report = core::refine_greedy(f.model, f.train, cfg);
  EXPECT_GE(report.accuracy_after, base_acc - 1e-12);
}

TEST(Refine, IdempotentOnceConverged) {
  auto f = RefineFixture::make();
  core::RefineConfig cfg;
  cfg.accuracy_floor = core::accuracy(f.model, f.train) - 0.03;
  cfg.max_passes = 4;
  (void)core::refine_greedy(f.model, f.train, cfg);
  const long area = f.model.fa_area();
  const auto second = core::refine_greedy(f.model, f.train, cfg);
  EXPECT_EQ(second.fa_after, area);
  EXPECT_EQ(second.bits_cleared, 0);
}

TEST(Refine, FullyPrunedModelUntouched) {
  auto f = RefineFixture::make();
  core::ApproxMlp empty(f.model.topology(), f.model.bits());
  core::RefineConfig cfg;
  cfg.accuracy_floor = 0.0;
  const auto report = core::refine_greedy(empty, f.train, cfg);
  EXPECT_EQ(report.fa_before, 0);
  EXPECT_EQ(report.fa_after, 0);
  EXPECT_EQ(report.bits_cleared, 0);
}
