// google-benchmark micro suite for the hot kernels of the framework:
// FA-count area estimation (the GA's inner loop), naive Eq. 4 inference,
// chromosome decode, netlist build and simulate (scalar vs 64-lane
// packed), testbench text (per-vector oracle vs streamed), the sample-blocked
// predict_batch kernels (scalar vs the dispatched SIMD ISA, across batch
// sizes and layer densities), one first-layer sweep on int16 vs int32
// lanes, the GA's whole-set accuracy over sample
// planes, the greedy refine loop's block-vectorized trials, NSGA-II
// ranking (Deb's pairwise loop vs the sort-and-sweep) and checkpoint
// record I/O (dataset write/read, slicing-by-8 vs bytewise CRC) — so
// kernel-level wins are measured in their own tier, apart from flow wall
// time.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "backprop_oracle.hpp"
#include "bench_common.hpp"
#include "eq4_oracle.hpp"
#include "nsga2_oracle.hpp"
#include "record_oracle.hpp"
#include "testbench_oracle.hpp"
#include "pmlp/adder/fa_model.hpp"
#include "pmlp/core/chromosome.hpp"
#include "pmlp/core/eval_engine.hpp"
#include "pmlp/core/eval_kernels.hpp"
#include "pmlp/core/refine.hpp"
#include "pmlp/core/serialize.hpp"
#include "pmlp/core/simd.hpp"
#include "pmlp/datasets/synthetic.hpp"
#include "pmlp/mlp/backprop.hpp"
#include "pmlp/mlp/train_engine.hpp"
#include "pmlp/netlist/builders.hpp"
#include "pmlp/netlist/opt.hpp"
#include "pmlp/netlist/testbench.hpp"
#include "pmlp/nsga2/nsga2.hpp"

namespace {

using namespace pmlp;

core::ApproxMlp make_model(std::uint64_t seed) {
  const mlp::Topology topo{{16, 5, 10}};  // Pendigits-sized
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

/// Pendigits-sized model with controlled connection density: `sparse`
/// prunes ~60% of masks (the shape evolved fronts actually have), dense
/// keeps every connection live.
core::ApproxMlp make_eval_model(std::uint64_t seed, bool sparse) {
  const mlp::Topology topo{{16, 5, 10}};
  core::ChromosomeCodec codec(topo, core::BitConfig{});
  std::mt19937_64 rng(seed);
  std::vector<int> genes(static_cast<std::size_t>(codec.n_genes()));
  for (int g = 0; g < codec.n_genes(); ++g) {
    const auto b = codec.bounds(g);
    int v = b.lo +
        static_cast<int>(rng() % static_cast<unsigned>(b.hi - b.lo + 1));
    if (codec.kind(g) == core::GeneKind::kMask) {
      v = sparse ? (rng() % 10 < 6 ? 0 : v) : b.hi;
    }
    genes[static_cast<std::size_t>(g)] = v;
  }
  return codec.decode(genes);
}

std::vector<std::uint8_t> make_codes(std::size_t n_samples, int n_features,
                                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> codes(n_samples *
                                  static_cast<std::size_t>(n_features));
  for (auto& c : codes) c = static_cast<std::uint8_t>(rng() & 15u);
  return codes;
}

/// ApproxMlp::fa_area: Eq. 2 over every neuron through the walk the GA's
/// compile_layer shares, one reused scratch spec.
void BM_FaAreaEstimate(benchmark::State& state) {
  const auto model = make_model(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.fa_area());
  }
}
BENCHMARK(BM_FaAreaEstimate);

/// One sample through the naive Eq. 4 walk (oracles/eq4_oracle), the
/// reference the compiled block loop is held to.
void BM_Eq4Inference(benchmark::State& state) {
  const auto model = make_model(2);
  std::vector<std::uint8_t> x(16, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracles::predict_naive(model, x));
  }
}
BENCHMARK(BM_Eq4Inference);

void BM_ChromosomeDecode(benchmark::State& state) {
  const mlp::Topology topo{{16, 5, 10}};
  core::ChromosomeCodec codec(topo, core::BitConfig{});
  const auto genes = codec.encode(make_model(3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.decode(genes));
  }
}
BENCHMARK(BM_ChromosomeDecode);

void BM_NetlistBuild(benchmark::State& state) {
  const auto model = make_model(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        netlist::build_bespoke_mlp(model.to_bespoke_desc("m")));
  }
}
BENCHMARK(BM_NetlistBuild);

void BM_NetlistSimulate(benchmark::State& state) {
  const auto model = make_model(5);
  const auto circuit = netlist::build_bespoke_mlp(model.to_bespoke_desc("m"));
  std::vector<std::uint8_t> x(16, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit.predict(x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NetlistSimulate);

/// The packed simulator the sign-off runs: predict_batch over a sign-off
/// point's 2112 vectors (64 recorded + 2048 LFSR), 64 per word. items/s
/// is vectors/s, comparable with BM_NetlistSimulate's.
void BM_NetlistSimulatePacked(benchmark::State& state) {
  const auto model = make_model(5);
  const auto circuit = netlist::build_bespoke_mlp(model.to_bespoke_desc("m"));
  const std::size_t n = 2112;
  const auto codes = make_codes(n, 16, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit.predict_batch(codes, n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_NetlistSimulatePacked);

/// A stream that counts and drops what it is given, so the testbench bench
/// times text generation, not string growth or disk.
class NullBuf : public std::streambuf {
 protected:
  int_type overflow(int_type c) override { return traits_type::not_eof(c); }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

/// A sign-off point's testbench (optimized circuit, 2112 vectors). arg:
/// 0 = the per-vector oracle writer, 1 = emit_testbench, which writes a
/// fixed-size testbench plus its $readmemh stimulus file. items/s is
/// vectors/s, bytes/s the rate of everything written and bytes_out its
/// size per emission.
void BM_TestbenchEmit(benchmark::State& state) {
  const bool streamed = state.range(0) != 0;
  const auto circuit = netlist::optimize(
      netlist::build_bespoke_mlp(make_model(5).to_bespoke_desc("m")));
  const std::size_t n = 2112;
  const auto codes = make_codes(n, 16, 6);
  const auto expected = circuit.predict_batch(codes, n);
  netlist::TestbenchOptions opts;
  opts.max_vectors = static_cast<int>(n);
  std::ostringstream tb_once, hex_once, oracle_once;
  netlist::emit_testbench(circuit, 16, codes, expected, opts, tb_once,
                          hex_once);
  oracles::emit_testbench_naive(circuit, 16, codes, opts, oracle_once);
  NullBuf sink;
  std::ostream os(&sink);
  for (auto _ : state) {
    if (streamed) {
      netlist::emit_testbench(circuit, 16, codes, expected, opts, os, os);
    } else {
      oracles::emit_testbench_naive(circuit, 16, codes, opts, os);
    }
  }
  const std::size_t bytes =
      streamed ? tb_once.str().size() + hex_once.str().size()
               : oracle_once.str().size();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
  state.counters["bytes_out"] = static_cast<double>(bytes);
}
BENCHMARK(BM_TestbenchEmit)->Arg(0)->Arg(1)->ArgName("streamed");

/// The tentpole kernel: sample-blocked batched classification. args:
/// (simd 0/1, batch size, sparse 0/1). simd=0 forces scalar dispatch,
/// simd=1 uses the machine's best detected ISA — the reported label
/// records which one actually ran, and items/s is samples classified/s.
void BM_PredictBatch(benchmark::State& state) {
  const bool use_simd = state.range(0) != 0;
  const auto batch = static_cast<std::size_t>(state.range(1));
  const bool sparse = state.range(2) != 0;
  const auto model = make_eval_model(sparse ? 11 : 12, sparse);
  const core::CompiledNet net(model);
  const auto codes = make_codes(batch, net.n_inputs(), 21);
  std::vector<std::int32_t> preds(batch);
  core::EvalWorkspace ws;
  const core::SimdIsa prev = core::active_simd_isa();
  const core::SimdIsa isa = core::set_simd_isa(
      use_simd ? core::detect_simd_isa() : core::SimdIsa::kScalar);
  for (auto _ : state) {
    net.predict_batch(codes.data(), batch, preds.data(), ws);
    benchmark::DoNotOptimize(preds.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
  state.SetLabel(core::simd_isa_name(isa));
  core::set_simd_isa(prev);
}
BENCHMARK(BM_PredictBatch)
    ->ArgsProduct({{0, 1}, {1, 32, 128}, {0, 1}})
    ->ArgNames({"simd", "batch", "sparse"});

/// The GA fitness call: whole-training-set accuracy of a Pendigits-shaped
/// net over a Pendigits-sized train split (2448 samples). args: (simd 0/1,
/// planes 0/1, sparse 0/1). planes=1 reads SamplePlanes built once outside
/// the timed loop (the GA path); planes=0 scores the row-major dataset,
/// transposing every block first. Against BM_PredictBatch this separates
/// the transpose and the argmax epilogue from the layer sweeps; items/s is
/// samples scored/s and the label records the ISA that actually ran.
void BM_Accuracy(benchmark::State& state) {
  const bool use_simd = state.range(0) != 0;
  const bool use_planes = state.range(1) != 0;
  const bool sparse = state.range(2) != 0;
  constexpr std::size_t kSamples = 2448;
  const auto model = make_eval_model(sparse ? 11 : 12, sparse);
  const core::CompiledNet net(model);
  datasets::QuantizedDataset data;
  data.n_features = net.n_inputs();
  data.n_classes = net.n_outputs();
  data.codes = make_codes(kSamples, net.n_inputs(), 21);
  data.labels.resize(kSamples);
  std::mt19937_64 rng(22);
  for (auto& y : data.labels) {
    y = static_cast<int>(rng() % static_cast<unsigned>(data.n_classes));
  }
  const core::SamplePlanes planes(data);
  core::EvalWorkspace ws;
  const core::SimdIsa prev = core::active_simd_isa();
  const core::SimdIsa isa = core::set_simd_isa(
      use_simd ? core::detect_simd_isa() : core::SimdIsa::kScalar);
  for (auto _ : state) {
    benchmark::DoNotOptimize(use_planes ? net.accuracy(planes, ws)
                                        : net.accuracy(data, ws));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSamples));
  state.SetLabel(core::simd_isa_name(isa));
  core::set_simd_isa(prev);
}
BENCHMARK(BM_Accuracy)
    ->ArgsProduct({{0, 1}, {0, 1}, {0, 1}})
    ->ArgNames({"simd", "planes", "sparse"});

/// The post-GA refinement of one front point: refine_greedy on a trained,
/// doped (all masks set) Pendigits-shaped (16,5,10) net over a
/// Pendigits-sized train split (2448 samples), with the flow's 5% floor.
/// args: simd 0/1 (scalar vs the machine's best detected ISA). Every
/// iteration refines a fresh copy of the same model, so it runs the same
/// trials; items/s is trials/s and the label records the ISA that ran.
void BM_RefineGreedy(benchmark::State& state) {
  const bool use_simd = state.range(0) != 0;
  auto spec = datasets::pendigits_spec();
  spec.n_samples = 2448;
  spec.seed = 41;
  const auto raw = datasets::generate(spec);
  const auto train = datasets::quantize_inputs(raw, 4);
  mlp::BackpropConfig bp;
  bp.epochs = 40;
  bp.seed = 41;
  const auto fnet = mlp::train_float_mlp(
      mlp::Topology{{raw.n_features, 5, raw.n_classes}}, raw, bp);
  const auto model = core::ApproxMlp::from_quant_baseline(
      mlp::QuantMlp::from_float(fnet), core::BitConfig{});
  const core::SamplePlanes planes(train);
  core::RefineConfig cfg;
  cfg.accuracy_floor = oracles::accuracy_naive(model, train) - 0.05;
  const core::SimdIsa prev = core::active_simd_isa();
  const core::SimdIsa isa = core::set_simd_isa(
      use_simd ? core::detect_simd_isa() : core::SimdIsa::kScalar);
  long trials = 0;
  for (auto _ : state) {
    core::ApproxMlp net = model;
    const auto report = core::refine_greedy(net, planes, cfg);
    trials += report.trials;
    benchmark::DoNotOptimize(net.layers().data());
  }
  state.SetItemsProcessed(trials);
  state.SetLabel(core::simd_isa_name(isa));
  core::set_simd_isa(prev);
}
BENCHMARK(BM_RefineGreedy)->Arg(0)->Arg(1)->ArgName("simd");

/// One layer sweep over one 64-sample block, the GA's unit of work, on
/// int16 vs int32 lanes under the machine's best detected ISA. args:
/// (shape, lanes): shape 0 is Pendigits' first layer (16 -> 5) and 1 is
/// Cardio's (21 -> 3), both decoded from random default-BitConfig genes
/// (which every first layer proves int16-exact); shape 2 is Pendigits'
/// output layer (5 -> 10), swept over the first layer's 8-bit activations
/// of the same codes, from the first seeded net whose value-range proof
/// puts that layer on int16. lanes is 16 or 32; both widths sweep the
/// same inputs; items/s is samples/s.
void BM_LayerSweep(benchmark::State& state) {
  const int shape = static_cast<int>(state.range(0));
  const bool int16 = state.range(1) == 16;
  const mlp::Topology topo =
      shape == 1 ? mlp::Topology{{21, 3, 3}} : mlp::Topology{{16, 5, 10}};
  const core::ChromosomeCodec codec(topo, core::BitConfig{});
  std::mt19937_64 rng(shape == 1 ? 31 : 32);
  std::vector<int> genes(static_cast<std::size_t>(codec.n_genes()));
  core::CompiledNet net;
  for (int tries = 0; tries < 1000; ++tries) {
    for (int g = 0; g < codec.n_genes(); ++g) {
      const auto b = codec.bounds(g);
      genes[static_cast<std::size_t>(g)] =
          b.lo +
          static_cast<int>(rng() % static_cast<unsigned>(b.hi - b.lo + 1));
    }
    net = core::CompiledNet(codec.decode(genes));
    if (shape != 2 || net.lanes().back() == core::LaneType::kInt16) break;
  }
  if (shape == 2 && net.lanes().back() != core::LaneType::kInt16) {
    state.SkipWithError("no seeded net proves its output layer int16");
    return;
  }
  constexpr int kN = core::CompiledNet::kBlockSamples;
  const core::SimdIsa isa = core::detect_simd_isa();
  const auto codes = make_codes(kN, net.n_inputs(), 21);
  std::vector<std::int16_t> in16(codes.begin(), codes.end());
  if (shape == 2) {
    // The output layer reads the first layer's activations.
    const core::CompiledLayer& first = net.layers().front();
    std::vector<std::int16_t> act(static_cast<std::size_t>(first.n_out) * kN);
    core::layer_sweep(isa, first, in16.data(), act.data(), act.data(), kN,
                      255);
    in16 = std::move(act);
  }
  const core::CompiledLayer& layer =
      shape == 2 ? net.layers().back() : net.layers().front();
  const std::vector<std::int32_t> in32(in16.begin(), in16.end());
  const auto planes = static_cast<std::size_t>(layer.n_out) * kN;
  std::vector<std::int16_t> out16(planes);
  std::vector<std::int32_t> out32(planes);
  for (auto _ : state) {
    if (int16) {
      core::layer_sweep(isa, layer, in16.data(), out16.data(), out16.data(),
                        kN, 255);
      benchmark::DoNotOptimize(out16.data());
    } else {
      core::layer_sweep(isa, layer, in32.data(), out32.data(), out32.data(),
                        kN, 255);
      benchmark::DoNotOptimize(out32.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kN);
  state.SetLabel(core::simd_isa_name(isa));
}
BENCHMARK(BM_LayerSweep)
    ->ArgsProduct({{0, 1, 2}, {16, 32}})
    ->ArgNames({"shape", "lanes"});

/// The same samples classified one predict() call at a time: each call
/// is a one-sample pass through the block loop, so this prices the
/// per-call overhead that batching amortizes.
void BM_PredictPerSample(benchmark::State& state) {
  const bool sparse = state.range(0) != 0;
  const auto model = make_eval_model(sparse ? 11 : 12, sparse);
  const core::CompiledNet net(model);
  constexpr std::size_t kBatch = 128;
  const auto codes = make_codes(kBatch, net.n_inputs(), 21);
  std::vector<std::int32_t> preds(kBatch);
  core::EvalWorkspace ws;
  const auto n_in = static_cast<std::size_t>(net.n_inputs());
  for (auto _ : state) {
    for (std::size_t s = 0; s < kBatch; ++s) {
      preds[s] = net.predict({codes.data() + s * n_in, n_in}, ws);
    }
    benchmark::DoNotOptimize(preds.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_PredictPerSample)->Arg(0)->Arg(1)->ArgName("sparse");

/// Random normalized dataset for the training-kernel benches (synthetic:
/// only the arithmetic shape matters at this tier).
datasets::Dataset make_train_data(std::size_t n, int n_features,
                                  int n_classes, std::uint64_t seed) {
  datasets::Dataset d;
  d.name = "bench";
  d.n_features = n_features;
  d.n_classes = n_classes;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  d.features.resize(n * static_cast<std::size_t>(n_features));
  for (auto& f : d.features) f = u(rng);
  d.labels.resize(n);
  for (auto& y : d.labels) {
    y = static_cast<int>(rng() % static_cast<unsigned>(n_classes));
  }
  return d;
}

constexpr std::size_t kTrainSamples = 512;

mlp::Topology train_topology(bool wide) {
  // Pendigits-sized vs a wider-than-paper shape, to show how the sweeps
  // scale with layer width.
  return wide ? mlp::Topology{{32, 16, 10}} : mlp::Topology{{16, 5, 10}};
}

/// One full training epoch (shuffle + every minibatch + momentum update +
/// final accuracy pass) through the blocked TrainEngine. args: (simd 0/1,
/// batch size, wide 0/1); the label records the ISA that actually ran, and
/// items/s is training samples swept per second.
void BM_TrainStep(benchmark::State& state) {
  const bool use_simd = state.range(0) != 0;
  const auto batch = static_cast<int>(state.range(1));
  const bool wide = state.range(2) != 0;
  const auto topo = train_topology(wide);
  const auto data = make_train_data(kTrainSamples, topo.layers.front(),
                                    topo.layers.back(), 31);
  mlp::BackpropConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = batch;
  cfg.seed = 7;
  const core::SimdIsa prev = core::active_simd_isa();
  const core::SimdIsa isa = core::set_simd_isa(
      use_simd ? core::detect_simd_isa() : core::SimdIsa::kScalar);
  mlp::TrainEngine engine(data, cfg);
  mlp::FloatMlp net(topo, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.train(net));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTrainSamples));
  state.SetLabel(core::simd_isa_name(isa));
  core::set_simd_isa(prev);
}
BENCHMARK(BM_TrainStep)
    ->ArgsProduct({{0, 1}, {32, 128}, {0, 1}})
    ->ArgNames({"simd", "batch", "wide"});

/// Pre-engine reference: the same epoch through the per-sample naive loop
/// (allocation-per-trace, no blocking, no SIMD).
void BM_TrainStepNaive(benchmark::State& state) {
  const bool wide = state.range(0) != 0;
  const auto topo = train_topology(wide);
  const auto data = make_train_data(kTrainSamples, topo.layers.front(),
                                    topo.layers.back(), 31);
  mlp::BackpropConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 32;
  cfg.seed = 7;
  mlp::FloatMlp net(topo, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracles::train_backprop_naive(net, data, cfg));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTrainSamples));
}
BENCHMARK(BM_TrainStepNaive)->Arg(0)->Arg(1)->ArgName("wide");

/// reduce_columns over W columns 12 bits high; the reduction works in
/// place, so each iteration first restores the heights (no allocation).
void BM_AdderReduction(benchmark::State& state) {
  const std::vector<int> start(static_cast<std::size_t>(state.range(0)), 12);
  std::vector<int> heights(start.size());
  for (auto _ : state) {
    std::copy(start.begin(), start.end(), heights.begin());
    benchmark::DoNotOptimize(adder::reduce_columns(heights));
  }
}
BENCHMARK(BM_AdderReduction)->Arg(8)->Arg(16)->Arg(24);

/// NSGA-II ranking of one merged parent+offspring set: Deb's pairwise loop
/// (the oracle) vs the library's sort-and-sweep. Objectives are tied the
/// way the GA's are (accuracy loss on a 1/64 grid, integer FA area) and
/// ~20% of the set is infeasible with a few distinct violations.
/// args: N, the merged population size.
void BM_NsgaSort(benchmark::State& state, bool sweep) {
  std::mt19937_64 rng(7);
  std::vector<nsga2::Individual> pop(static_cast<std::size_t>(state.range(0)));
  for (auto& ind : pop) {
    ind.objectives = {static_cast<double>(rng() % 64) / 64.0,
                      static_cast<double>(rng() % 400)};
    ind.constraint_violation =
        rng() % 5 == 0 ? static_cast<double>(1 + rng() % 8) / 64.0 : 0.0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sweep ? nsga2::fast_non_dominated_sort(pop)
                                   : oracles::non_dominated_sort_naive(pop));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_NsgaSort, naive, false)
    ->Arg(120)->Arg(240)->Arg(480)->Arg(960);
BENCHMARK_CAPTURE(BM_NsgaSort, sweep, true)
    ->Arg(120)->Arg(240)->Arg(480)->Arg(960);

/// Checkpoint record I/O at the size of Pendigits' train_raw.ds (16
/// features, ~2450 rows, ~0.85 MB of hexfloats) and its train.qds (4-bit
/// codes): writing a dataset artifact, loading it back, and the CRC-32 of
/// its footer, slicing-by-8 vs the bytewise oracle.
datasets::Dataset record_dataset() {
  std::mt19937_64 rng(21);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  datasets::Dataset d;
  d.name = "pendigits-train";
  d.n_features = 16;
  d.n_classes = 10;
  for (int i = 0; i < 2450; ++i) {
    d.labels.push_back(static_cast<int>(rng() % 10));
    for (int f = 0; f < d.n_features; ++f) d.features.push_back(unit(rng));
  }
  return d;
}

datasets::QuantizedDataset record_quant_dataset() {
  const auto raw = record_dataset();
  datasets::QuantizedDataset d;
  d.name = raw.name;
  d.n_features = raw.n_features;
  d.n_classes = raw.n_classes;
  d.input_bits = 4;
  d.labels = raw.labels;
  for (double x : raw.features) {
    d.codes.push_back(static_cast<std::uint8_t>(x * 16.0));
  }
  return d;
}

std::string record_text(bool quant) {
  std::ostringstream os;
  if (quant) {
    core::save_quant_dataset(record_quant_dataset(), os);
  } else {
    core::save_dataset(record_dataset(), os);
  }
  return os.str();
}

void BM_RecordWrite(benchmark::State& state, bool quant) {
  const auto raw = record_dataset();
  const auto q = record_quant_dataset();
  std::int64_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream os;
    if (quant) {
      core::save_quant_dataset(q, os);
    } else {
      core::save_dataset(raw, os);
    }
    bytes = static_cast<std::int64_t>(os.tellp());
    benchmark::DoNotOptimize(bytes);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          bytes);
}
BENCHMARK_CAPTURE(BM_RecordWrite, raw, false)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RecordWrite, quant, true)->Unit(benchmark::kMillisecond);

void BM_RecordRead(benchmark::State& state, bool quant) {
  const std::string text = record_text(quant);
  for (auto _ : state) {
    std::istringstream is(text);
    if (quant) {
      benchmark::DoNotOptimize(core::load_quant_dataset(is));
    } else {
      benchmark::DoNotOptimize(core::load_dataset(is));
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK_CAPTURE(BM_RecordRead, raw, false)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RecordRead, quant, true)->Unit(benchmark::kMillisecond);

void BM_Crc32(benchmark::State& state, bool sliced) {
  const std::string text = record_text(/*quant=*/false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sliced ? core::crc32(text.data(), text.size())
               : oracles::crc32_bytewise(text.data(), text.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK_CAPTURE(BM_Crc32, bytewise, false)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Crc32, sliced, true)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
