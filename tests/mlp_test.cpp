#include <gtest/gtest.h>

#include <cmath>

#include "pmlp/datasets/synthetic.hpp"
#include "pmlp/mlp/backprop.hpp"
#include "pmlp/mlp/float_mlp.hpp"
#include "pmlp/mlp/quant_mlp.hpp"
#include "pmlp/mlp/topology.hpp"

namespace mlp = pmlp::mlp;
namespace ds = pmlp::datasets;

TEST(Topology, ParameterCount) {
  mlp::Topology t{{21, 3, 3}};
  EXPECT_EQ(t.n_parameters(), 21 * 3 + 3 + 3 * 3 + 3);  // 78, Table I Cardio
  EXPECT_EQ(t.n_inputs(), 21);
  EXPECT_EQ(t.n_outputs(), 3);
  EXPECT_EQ(t.n_layers(), 2);
  EXPECT_EQ(t.to_string(), "(21,3,3)");
}

TEST(Topology, PaperTable1Registry) {
  const auto& rows = mlp::paper_table1();
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].dataset, "BreastCancer");
  EXPECT_DOUBLE_EQ(rows[2].clock_ms, 250.0);  // Pendigits
  // Published parameter counts match the topology formula (the BC row is
  // the known exception: the paper prints 38 for a (10,3,2) topology).
  for (const auto& r : rows) {
    if (r.dataset == "BreastCancer") continue;
    EXPECT_EQ(r.topology.n_parameters(), r.parameters) << r.dataset;
  }
  EXPECT_THROW((void)mlp::paper_row("nope"), std::invalid_argument);
  EXPECT_EQ(mlp::paper_row("Cardio").parameters, 78);
}

TEST(FloatMlp, ForwardShapeAndDeterminism) {
  mlp::FloatMlp net(mlp::Topology{{4, 3, 2}}, 1);
  const std::vector<double> x = {0.1, 0.5, 0.9, 0.0};
  const auto y1 = net.forward(x);
  const auto y2 = net.forward(x);
  ASSERT_EQ(y1.size(), 2u);
  EXPECT_EQ(y1, y2);
  mlp::FloatMlp net_same(mlp::Topology{{4, 3, 2}}, 1);
  EXPECT_EQ(net_same.forward(x), y1);
}

TEST(FloatMlp, HiddenActivationsAreNonNegative) {
  mlp::FloatMlp net(mlp::Topology{{3, 4, 2}}, 9);
  const auto trace = net.forward_trace(std::vector<double>{0.2, 0.8, 0.5});
  ASSERT_EQ(trace.size(), 3u);
  for (double v : trace[1]) EXPECT_GE(v, 0.0);  // ReLU layer
}

TEST(FloatMlp, RejectsDegenerateTopology) {
  EXPECT_THROW(mlp::FloatMlp(mlp::Topology{{5}}, 1), std::invalid_argument);
}

TEST(Backprop, LearnsLinearlySeparableBlobs) {
  auto spec = ds::breast_cancer_spec();
  spec.n_samples = 400;
  const auto d = ds::generate(spec);
  mlp::BackpropConfig cfg;
  cfg.epochs = 60;
  cfg.seed = 5;
  mlp::FloatMlp net(mlp::Topology{{d.n_features, 3, d.n_classes}}, 5);
  const auto report = mlp::train_backprop(net, d, cfg);
  EXPECT_GT(report.final_train_accuracy, 0.9);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_EQ(report.epochs_run, 60);
}

TEST(Backprop, LossDecreases) {
  auto spec = ds::cardio_spec();
  spec.n_samples = 300;
  const auto d = ds::generate(spec);
  mlp::FloatMlp net(mlp::Topology{{d.n_features, 3, d.n_classes}}, 2);
  mlp::BackpropConfig one;
  one.epochs = 1;
  one.seed = 2;
  mlp::FloatMlp net1 = net;
  const auto r1 = mlp::train_backprop(net1, d, one);
  mlp::BackpropConfig many = one;
  many.epochs = 50;
  mlp::FloatMlp net2 = net;
  const auto r2 = mlp::train_backprop(net2, d, many);
  EXPECT_LT(r2.final_loss, r1.final_loss);
}

TEST(Backprop, ReportCoversEveryRestart) {
  // train_float_mlp's report prices the whole stage: epochs and wall time
  // summed over all restarts, throughput over that total. Accuracy and
  // loss are the kept (most accurate) restart's, replayed here one restart
  // at a time with train_backprop.
  auto spec = ds::cardio_spec();
  spec.n_samples = 300;
  const auto d = ds::generate(spec);
  const mlp::Topology topo{{d.n_features, 3, d.n_classes}};
  mlp::BackpropConfig cfg;
  cfg.epochs = 20;
  cfg.seed = 7;
  cfg.restarts = 3;
  mlp::BackpropReport report;
  const auto kept = mlp::train_float_mlp(topo, d, cfg, &report);

  mlp::BackpropReport best;
  best.final_train_accuracy = -1.0;
  for (int r = 0; r < cfg.restarts; ++r) {
    mlp::BackpropConfig one = cfg;
    one.seed = cfg.seed + static_cast<std::uint64_t>(r) * 101;
    mlp::FloatMlp net(topo, one.seed);
    const auto run = mlp::train_backprop(net, d, one);
    EXPECT_EQ(run.epochs_run, cfg.epochs);
    if (run.final_train_accuracy > best.final_train_accuracy) best = run;
  }
  EXPECT_EQ(report.epochs_run, cfg.restarts * cfg.epochs);
  EXPECT_EQ(report.final_train_accuracy, best.final_train_accuracy);
  EXPECT_EQ(report.final_loss, best.final_loss);
  EXPECT_EQ(mlp::accuracy(kept, d), best.final_train_accuracy);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_DOUBLE_EQ(report.samples_per_second,
                   static_cast<double>(report.epochs_run) *
                       static_cast<double>(d.size()) / report.wall_seconds);
}

// ----------------------------------------------------------- quantization

namespace {

mlp::FloatMlp trained_bc_net(const ds::Dataset& d) {
  mlp::BackpropConfig cfg;
  cfg.epochs = 80;
  cfg.seed = 11;
  return mlp::train_float_mlp(mlp::Topology{{d.n_features, 3, d.n_classes}}, d,
                              cfg);
}

}  // namespace

TEST(QuantMlp, AccuracyCloseToFloat) {
  auto spec = ds::breast_cancer_spec();
  spec.n_samples = 500;
  const auto d = ds::generate(spec);
  const auto net = trained_bc_net(d);
  const double facc = mlp::accuracy(net, d);

  const auto q = mlp::QuantMlp::from_float(net, 8, 4, 8);
  const auto qd = ds::quantize_inputs(d, 4);
  const double qacc = mlp::accuracy(q, qd);
  EXPECT_GT(qacc, facc - 0.08);  // 8-bit weights / 4-bit inputs lose little
}

TEST(QuantMlp, WeightsWithinCodeRange) {
  const auto d = ds::generate(ds::breast_cancer_spec());
  const auto net = trained_bc_net(d);
  const auto q = mlp::QuantMlp::from_float(net, 8, 4, 8);
  for (const auto& layer : q.layers()) {
    for (auto w : layer.weights) {
      EXPECT_GE(w, -127);
      EXPECT_LE(w, 127);
    }
  }
  EXPECT_EQ(q.layers().front().input_bits, 4);
  EXPECT_EQ(q.layers().back().input_bits, 8);  // QReLU output width
}

TEST(QuantMlp, QreluClampsToActivationRange) {
  const auto d = ds::generate(ds::breast_cancer_spec());
  const auto net = trained_bc_net(d);
  const auto q = mlp::QuantMlp::from_float(net, 8, 4, 8);
  const auto qd = ds::quantize_inputs(d, 4);
  // Run the first layer manually and check the hidden codes' range.
  for (std::size_t i = 0; i < std::min<std::size_t>(qd.size(), 64); ++i) {
    const auto row = qd.row(i);
    const auto& l0 = q.layers().front();
    for (int o = 0; o < l0.n_out; ++o) {
      std::int64_t acc = l0.biases[static_cast<std::size_t>(o)];
      for (int j = 0; j < l0.n_in; ++j) {
        acc += static_cast<std::int64_t>(l0.weight(o, j)) * row[static_cast<std::size_t>(j)];
      }
      const std::int64_t v =
          acc <= 0 ? 0 : std::min<std::int64_t>(acc >> l0.qrelu_shift, 255);
      EXPECT_GE(v, 0);
      EXPECT_LE(v, 255);
    }
  }
}

TEST(QuantMlp, PredictMatchesForwardArgmax) {
  const auto d = ds::generate(ds::red_wine_spec());
  mlp::BackpropConfig cfg;
  cfg.epochs = 20;
  cfg.seed = 3;
  const auto net = mlp::train_float_mlp(
      mlp::Topology{{d.n_features, 2, d.n_classes}}, d, cfg);
  const auto q = mlp::QuantMlp::from_float(net, 8, 4, 8);
  const auto qd = ds::quantize_inputs(d, 4);
  for (std::size_t i = 0; i < 50; ++i) {
    const auto logits = q.forward(qd.row(i));
    const auto arg = static_cast<int>(std::distance(
        logits.begin(), std::max_element(logits.begin(), logits.end())));
    EXPECT_EQ(q.predict(qd.row(i)), arg);
  }
}

TEST(QuantMlp, ScratchForwardBitIdenticalToAllocating) {
  const auto d = ds::generate(ds::cardio_spec());
  mlp::BackpropConfig cfg;
  cfg.epochs = 15;
  cfg.seed = 9;
  const auto net = mlp::train_float_mlp(
      mlp::Topology{{d.n_features, 3, d.n_classes}}, d, cfg);
  const auto q = mlp::QuantMlp::from_float(net, 8, 4, 8);
  const auto qd = ds::quantize_inputs(d, 4);

  // One scratch reused across every sample (the accuracy() hot-loop shape).
  mlp::QuantScratch scratch;
  for (std::size_t i = 0; i < 60; ++i) {
    const auto reference = q.forward(qd.row(i));
    const auto fast = q.forward(qd.row(i), scratch);
    ASSERT_EQ(reference.size(), fast.size());
    for (std::size_t k = 0; k < reference.size(); ++k) {
      EXPECT_EQ(reference[k], fast[k]) << "sample " << i << " logit " << k;
    }
    EXPECT_EQ(q.predict(qd.row(i)), q.predict(qd.row(i), scratch));
  }
}
