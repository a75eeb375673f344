// Contract of the compiled sparse evaluation engine: CompiledNet inference
// and its streamed FA-area must be bit-identical to the naive reference
// oracles (oracles/eq4_oracle, ApproxMlp::fa_area) on any chromosome,
// accuracy read from SamplePlanes must equal the per-sample path under
// every dispatchable ISA, and the genome memo cache must never change a
// training outcome — only its speed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "adder_oracle.hpp"
#include "eq4_oracle.hpp"
#include "pmlp/bitops/bitops.hpp"
#include "pmlp/core/eval_engine.hpp"
#include "pmlp/core/eval_kernels.hpp"
#include "pmlp/core/problem.hpp"
#include "pmlp/core/simd.hpp"
#include "pmlp/core/suite.hpp"
#include "pmlp/core/thread_pool.hpp"
#include "pmlp/datasets/synthetic.hpp"
#include "pmlp/mlp/backprop.hpp"
#include "pmlp/nsga2/nsga2.hpp"

namespace core = pmlp::core;
namespace ds = pmlp::datasets;
namespace mlp = pmlp::mlp;
namespace nsga2 = pmlp::nsga2;
namespace oracles = pmlp::oracles;

namespace {

/// Mask-gene shaping for the chromosome variants the GA actually visits.
enum class MaskStyle { kDense, kSparse, kFullyPruned, kCoarse };

std::vector<int> random_genes(const core::ChromosomeCodec& codec,
                              MaskStyle style, std::mt19937_64& rng) {
  std::vector<int> genes(static_cast<std::size_t>(codec.n_genes()));
  for (int g = 0; g < codec.n_genes(); ++g) {
    const auto b = codec.bounds(g);
    std::uniform_int_distribution<int> pick(b.lo, b.hi);
    int v = pick(rng);
    if (codec.kind(g) == core::GeneKind::kMask) {
      switch (style) {
        case MaskStyle::kDense:
          v = b.hi;
          break;
        case MaskStyle::kSparse:
          // Evolved fronts are mostly pruned: 60% of conns fully removed.
          if (rng() % 10 < 6) v = 0;
          break;
        case MaskStyle::kFullyPruned:
          v = 0;
          break;
        case MaskStyle::kCoarse:
          // Coarse pruning maps every non-zero mask to all-ones before
          // evaluation; feed it the all-or-nothing shape directly.
          v = (rng() & 1u) ? 0 : b.hi;
          break;
      }
    }
    genes[static_cast<std::size_t>(g)] = v;
  }
  return genes;
}

ds::QuantizedDataset random_dataset(int n_features, int n_classes,
                                    std::size_t n_samples, int bits,
                                    std::uint64_t seed) {
  ds::QuantizedDataset d;
  d.n_features = n_features;
  d.n_classes = n_classes;
  d.input_bits = bits;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> code(0, (1 << bits) - 1);
  std::uniform_int_distribution<int> label(0, n_classes - 1);
  for (std::size_t s = 0; s < n_samples; ++s) {
    for (int f = 0; f < n_features; ++f) {
      d.codes.push_back(static_cast<std::uint8_t>(code(rng)));
    }
    d.labels.push_back(label(rng));
  }
  return d;
}

void expect_compiled_matches_naive(const core::ApproxMlp& net,
                                   const ds::QuantizedDataset& data) {
  const core::CompiledNet compiled(net);
  core::EvalWorkspace ws;
  ASSERT_EQ(compiled.fa_area(), net.fa_area());
  for (std::size_t s = 0; s < data.size(); ++s) {
    ASSERT_EQ(oracles::predict_naive(net, data.row(s)),
              compiled.predict(data.row(s), ws))
        << "sample " << s;
  }
  EXPECT_DOUBLE_EQ(oracles::accuracy_naive(net, data),
                   compiled.accuracy(data, ws));
}

}  // namespace

TEST(CompiledNet, MatchesNaiveOnRandomChromosomes) {
  const mlp::Topology topo{{5, 4, 3}};
  const core::BitConfig bits;
  const core::ChromosomeCodec codec(topo, bits);
  const auto data = random_dataset(5, 3, 40, bits.input_bits, 11);

  std::mt19937_64 rng(42);
  const MaskStyle styles[] = {MaskStyle::kDense, MaskStyle::kSparse,
                              MaskStyle::kFullyPruned, MaskStyle::kCoarse};
  for (MaskStyle style : styles) {
    for (int rep = 0; rep < 8; ++rep) {
      const auto genes = random_genes(codec, style, rng);
      expect_compiled_matches_naive(codec.decode(genes), data);
    }
  }
}

TEST(FaArea, BothWalksEqualOracleOnTableOneTopologies) {
  // ApproxMlp::fa_area and CompiledNet (the GA's per-evaluation path) price
  // through one shared neuron walk; the oracle prices every connection as
  // stored, fully pruned ones included, with the vector-based Eq. 2 model.
  const core::BitConfig bits;
  for (const char* name :
       {"BreastCancer", "Cardio", "Pendigits", "RedWine", "WhiteWine"}) {
    const core::ChromosomeCodec codec(core::paper_topology(name), bits);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      std::mt19937_64 rng(seed);
      for (MaskStyle style : {MaskStyle::kDense, MaskStyle::kSparse,
                              MaskStyle::kFullyPruned, MaskStyle::kCoarse}) {
        const core::ApproxMlp net =
            codec.decode(random_genes(codec, style, rng));
        long oracle = 0;
        for (const auto& layer : net.layers()) {
          for (int o = 0; o < layer.n_out; ++o) {
            pmlp::adder::NeuronAdderSpec spec;
            spec.bias = layer.biases[static_cast<std::size_t>(o)];
            for (int i = 0; i < layer.n_in; ++i) {
              const core::ApproxConn& c = layer.conn(o, i);
              spec.summands.push_back(pmlp::adder::SummandSpec{
                  c.mask, layer.input_bits, c.exponent, c.sign});
            }
            oracle += pmlp::oracles::estimate_adder_naive(spec).total_fa();
          }
        }
        EXPECT_EQ(net.fa_area(), oracle) << name << " seed " << seed;
        EXPECT_EQ(core::CompiledNet(net).fa_area(), oracle)
            << name << " seed " << seed;
      }
    }
  }
}

TEST(CompiledNet, MatchesNaiveAfterCoarsePruningTransform) {
  const mlp::Topology topo{{4, 3, 2}};
  const core::BitConfig bits;
  const core::ChromosomeCodec codec(topo, bits);
  const auto data = random_dataset(4, 2, 30, bits.input_bits, 3);

  std::mt19937_64 rng(7);
  for (int rep = 0; rep < 8; ++rep) {
    core::ApproxMlp net =
        codec.decode(random_genes(codec, MaskStyle::kSparse, rng));
    // The HwAwareProblem coarse_pruning transform: all-or-nothing masks.
    for (auto& layer : net.layers()) {
      const auto full = static_cast<std::uint32_t>(
          pmlp::bitops::low_mask(layer.input_bits));
      for (auto& c : layer.conns) {
        if (c.mask != 0) c.mask = full;
      }
    }
    net.update_qrelu_shifts();
    expect_compiled_matches_naive(net, data);
  }
}

TEST(CompiledNet, SingleWorkspaceServesManyNets) {
  const core::BitConfig bits;
  const auto small = random_dataset(3, 2, 10, bits.input_bits, 5);
  const auto large = random_dataset(8, 3, 10, bits.input_bits, 6);
  const core::ChromosomeCodec small_codec(mlp::Topology{{3, 2, 2}}, bits);
  const core::ChromosomeCodec large_codec(mlp::Topology{{8, 6, 3}}, bits);

  core::EvalWorkspace ws;
  std::mt19937_64 rng(9);
  for (int rep = 0; rep < 4; ++rep) {
    const core::CompiledNet a(
        small_codec.decode(random_genes(small_codec, MaskStyle::kSparse, rng)));
    const core::CompiledNet b(
        large_codec.decode(random_genes(large_codec, MaskStyle::kDense, rng)));
    // Alternate between shapes through the same (growing) workspace.
    (void)a.accuracy(small, ws);
    (void)b.accuracy(large, ws);
    const core::ApproxMlp ref = large_codec.decode(
        large_codec.encode(large_codec.decode(random_genes(
            large_codec, MaskStyle::kSparse, rng))));
    const core::CompiledNet c(ref);
    EXPECT_DOUBLE_EQ(c.accuracy(large, ws),
                     oracles::accuracy_naive(ref, large));
  }
}

TEST(EvalCache, HitRefreshesAndEvictsLru) {
  core::EvalCache cache(2);
  const std::vector<int> g1{1, 2, 3}, g2{4, 5, 6}, g3{7, 8, 9};
  nsga2::Problem::Evaluation ev;
  ev.objectives = {0.5, 10.0};

  EXPECT_FALSE(cache.lookup(g1, core::EvalCache::hash(g1), ev));
  cache.insert(g1, core::EvalCache::hash(g1), {{0.1, 1.0}, 0.0});
  cache.insert(g2, core::EvalCache::hash(g2), {{0.2, 2.0}, 0.5});
  EXPECT_EQ(cache.size(), 2u);

  // Touch g1 so g2 becomes LRU, then insert g3: g2 must be evicted.
  EXPECT_TRUE(cache.lookup(g1, core::EvalCache::hash(g1), ev));
  EXPECT_EQ(ev.objectives[1], 1.0);
  cache.insert(g3, core::EvalCache::hash(g3), {{0.3, 3.0}, 0.0});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.lookup(g1, core::EvalCache::hash(g1), ev));
  EXPECT_FALSE(cache.lookup(g2, core::EvalCache::hash(g2), ev));
  EXPECT_TRUE(cache.lookup(g3, core::EvalCache::hash(g3), ev));
  EXPECT_EQ(ev.constraint_violation, 0.0);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 3);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_NEAR(stats.hit_rate(), 3.0 / 5.0, 1e-12);
}

TEST(EvalCache, CapacityZeroDisables) {
  core::EvalCache cache(0);
  const std::vector<int> g{1, 2, 3};
  nsga2::Problem::Evaluation ev;
  cache.insert(g, core::EvalCache::hash(g), {{0.1, 1.0}, 0.0});
  EXPECT_FALSE(cache.lookup(g, core::EvalCache::hash(g), ev));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(EvalCache, SharedKeyNeverReturnsAnotherGenome) {
  // Two genomes under one key (a hash collision): the exact gene compare
  // turns the other genome's entry into a miss, and an insert replaces it.
  core::EvalCache cache(4);
  const std::vector<int> a{1, 2, 3}, b{3, 2, 1};
  const std::uint64_t key = core::EvalCache::hash(a);
  nsga2::Problem::Evaluation ev;
  cache.insert(a, key, {{0.1, 1.0}, 0.0});
  EXPECT_FALSE(cache.lookup(b, key, ev));
  cache.insert(b, key, {{0.2, 2.0}, 0.0});
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_TRUE(cache.lookup(b, key, ev));
  EXPECT_EQ(ev.objectives[1], 2.0);
  EXPECT_FALSE(cache.lookup(a, key, ev));
  EXPECT_EQ(cache.stats().misses, 2);
}

namespace {

/// Small but real GA-AxC setup (quantized baseline + doped seeds), shared
/// across the front-identity tests below.
struct Fixture {
  ds::QuantizedDataset train;
  mlp::Topology topology;
  mlp::QuantMlp baseline;

  static Fixture make() {
    auto spec = ds::breast_cancer_spec();
    spec.n_samples = 100;
    auto raw = ds::generate(spec);
    auto split = ds::stratified_split(raw, 0.7, 1);
    mlp::Topology topo{{raw.n_features, 3, raw.n_classes}};
    mlp::BackpropConfig bp;
    bp.epochs = 15;
    bp.seed = 21;
    auto fnet = mlp::train_float_mlp(topo, split.train, bp);
    return Fixture{ds::quantize_inputs(split.train, 4), topo,
                   mlp::QuantMlp::from_float(fnet, 8, 4, 8)};
  }
};

const Fixture& fixture() {
  static const Fixture f = Fixture::make();
  return f;
}

nsga2::Result run_ga(const core::HwAwareProblem& problem,
                     core::ThreadPool* pool) {
  nsga2::Config cfg;
  cfg.population = 16;
  cfg.generations = 4;
  cfg.seed = 77;
  return nsga2::optimize(problem, cfg, pool);
}

void expect_identical(const nsga2::Result& a, const nsga2::Result& b) {
  ASSERT_EQ(a.population.size(), b.population.size());
  ASSERT_EQ(a.pareto_front.size(), b.pareto_front.size());
  for (std::size_t i = 0; i < a.population.size(); ++i) {
    EXPECT_EQ(a.population[i].genes, b.population[i].genes);
    EXPECT_EQ(a.population[i].objectives, b.population[i].objectives);
  }
  for (std::size_t i = 0; i < a.pareto_front.size(); ++i) {
    EXPECT_EQ(a.pareto_front[i].genes, b.pareto_front[i].genes);
    EXPECT_EQ(a.pareto_front[i].objectives, b.pareto_front[i].objectives);
  }
}

}  // namespace

TEST(EvalEngine, CachedAndUncachedFrontsIdenticalUnderParallelism) {
  const auto& f = fixture();
  const core::ChromosomeCodec codec(f.topology, core::BitConfig{});

  core::ProblemConfig uncached_cfg;
  uncached_cfg.eval_cache_capacity = 0;
  core::HwAwareProblem uncached(codec, f.train, f.baseline, uncached_cfg);
  const auto reference = run_ga(uncached, nullptr);

  core::ProblemConfig cached_cfg;
  cached_cfg.eval_cache_capacity = 1 << 12;
  for (int n_threads : {1, 4}) {
    core::ThreadPool pool(n_threads);
    core::HwAwareProblem cached(codec, f.train, f.baseline, cached_cfg);
    expect_identical(reference, run_ga(cached, &pool));
    const auto stats = cached.cache_stats();
    EXPECT_GT(stats.hits, 0) << "elitist GA should produce duplicates";
    EXPECT_EQ(stats.lookups(), 16 * 5);  // pop * (init + generations)
  }
}

TEST(EvalEngine, TinyCacheStaysBitIdentical) {
  const auto& f = fixture();
  const core::ChromosomeCodec codec(f.topology, core::BitConfig{});

  core::ProblemConfig uncached_cfg;
  uncached_cfg.eval_cache_capacity = 0;
  core::HwAwareProblem uncached(codec, f.train, f.baseline, uncached_cfg);

  // A capacity far below the population forces constant eviction; the run
  // must still be bit-identical because cached values equal recomputation.
  core::ProblemConfig tiny_cfg;
  tiny_cfg.eval_cache_capacity = 3;
  core::HwAwareProblem tiny(codec, f.train, f.baseline, tiny_cfg);
  core::ThreadPool pool(4);
  expect_identical(run_ga(uncached, &pool), run_ga(tiny, &pool));
}

TEST(EvalEngine, ProblemEvaluateMatchesNaiveObjectives) {
  const auto& f = fixture();
  const core::ChromosomeCodec codec(f.topology, core::BitConfig{});
  core::ProblemConfig cfg;  // cache on: both lookups below must agree
  core::HwAwareProblem problem(codec, f.train, f.baseline, cfg);

  std::mt19937_64 rng(123);
  for (int rep = 0; rep < 6; ++rep) {
    const auto genes = random_genes(codec, MaskStyle::kSparse, rng);
    const auto ev = problem.evaluate(genes);
    const core::ApproxMlp net = codec.decode(genes);
    EXPECT_DOUBLE_EQ(ev.objectives[0],
                     1.0 - oracles::accuracy_naive(net, f.train));
    EXPECT_DOUBLE_EQ(ev.objectives[1], static_cast<double>(net.fa_area()));
    // Second call must hit the cache and return the same thing.
    const auto again = problem.evaluate(genes);
    EXPECT_EQ(ev.objectives, again.objectives);
    EXPECT_EQ(ev.constraint_violation, again.constraint_violation);
  }
  EXPECT_EQ(problem.cache_stats().hits, 6);
}

// ---------------------------------------------------------------- batching

namespace {

/// Force a dispatch for one scope, restoring the previous one on exit so
/// test order never leaks an override.
struct ScopedIsa {
  core::SimdIsa prev;
  explicit ScopedIsa(core::SimdIsa isa) : prev(core::active_simd_isa()) {
    core::set_simd_isa(isa);
  }
  ~ScopedIsa() { core::set_simd_isa(prev); }
};

}  // namespace

TEST(SimdDispatch, NamesAndCapabilityClamping) {
  EXPECT_STREQ(core::simd_isa_name(core::SimdIsa::kScalar), "scalar");
  EXPECT_STREQ(core::simd_isa_name(core::SimdIsa::kAvx2), "avx2");
  EXPECT_STREQ(core::simd_isa_name(core::SimdIsa::kNeon), "neon");

  const auto prev = core::active_simd_isa();
  const auto detected = core::detect_simd_isa();
  EXPECT_EQ(core::set_simd_isa(detected), detected);
  EXPECT_EQ(core::active_simd_isa(), detected);
  EXPECT_EQ(core::set_simd_isa(core::SimdIsa::kScalar),
            core::SimdIsa::kScalar);
  // Requesting an ISA this machine lacks degrades to scalar, never UB.
  const auto other = detected == core::SimdIsa::kAvx2 ? core::SimdIsa::kNeon
                                                      : core::SimdIsa::kAvx2;
  EXPECT_EQ(core::set_simd_isa(other), core::SimdIsa::kScalar);
  core::set_simd_isa(prev);
}

TEST(PredictBatch, BitIdenticalToPerSamplePredictAcrossStylesAndSizes) {
  const mlp::Topology topo{{6, 5, 4}};
  const core::BitConfig bits;
  const core::ChromosomeCodec codec(topo, bits);
  // 129 = two full 64-sample blocks + a 1-sample tail, so every kernel
  // (full vector lanes, partial tail, single sample) is exercised.
  const auto data = random_dataset(6, 4, 129, bits.input_bits, 21);

  std::mt19937_64 rng(99);
  const MaskStyle styles[] = {MaskStyle::kDense, MaskStyle::kSparse,
                              MaskStyle::kFullyPruned, MaskStyle::kCoarse};
  const std::size_t sizes[] = {1, 7, 32, 129};
  core::EvalWorkspace ws;
  for (MaskStyle style : styles) {
    for (int rep = 0; rep < 4; ++rep) {
      const core::ApproxMlp net = codec.decode(random_genes(codec, style, rng));
      const core::CompiledNet compiled(net);
      // Every net the paper's BitConfig can decode runs its first layer on
      // int16 lanes and no layer on int64.
      EXPECT_EQ(compiled.lanes().front(), core::LaneType::kInt16);
      EXPECT_NE(compiled.lanes().back(), core::LaneType::kInt64);
      for (std::size_t n : sizes) {
        std::vector<std::int32_t> preds(n);
        compiled.predict_batch(data.codes.data(), n, preds.data(), ws);
        for (std::size_t s = 0; s < n; ++s) {
          ASSERT_EQ(preds[s], oracles::predict_naive(net, data.row(s)))
              << "style " << static_cast<int>(style) << " batch " << n
              << " sample " << s;
        }
      }
      const auto all = compiled.predict_batch(data, ws);
      ASSERT_EQ(all.size(), data.size());
      EXPECT_DOUBLE_EQ(compiled.accuracy(data, ws),
                       oracles::accuracy_naive(net, data));
    }
  }
}

TEST(PredictBatch, ForcedScalarDispatchBitIdenticalToSimd) {
  const mlp::Topology topo{{6, 5, 4}};
  const core::BitConfig bits;
  const core::ChromosomeCodec codec(topo, bits);
  const auto data = random_dataset(6, 4, 129, bits.input_bits, 5);

  std::mt19937_64 rng(17);
  core::EvalWorkspace ws;
  for (int rep = 0; rep < 6; ++rep) {
    const core::ApproxMlp net =
        codec.decode(random_genes(codec, MaskStyle::kSparse, rng));
    const core::CompiledNet compiled(net);
    std::vector<std::int32_t> scalar_preds(data.size());
    std::vector<std::int32_t> simd_preds(data.size());
    {
      ScopedIsa forced(core::SimdIsa::kScalar);
      ASSERT_EQ(core::active_simd_isa(), core::SimdIsa::kScalar);
      compiled.predict_batch(data.codes.data(), data.size(),
                             scalar_preds.data(), ws);
    }
    {
      // On a scalar-only machine both runs dispatch scalar and the test
      // degenerates to a determinism check — still meaningful.
      ScopedIsa forced(core::detect_simd_isa());
      compiled.predict_batch(data.codes.data(), data.size(),
                             simd_preds.data(), ws);
    }
    for (std::size_t s = 0; s < data.size(); ++s) {
      ASSERT_EQ(scalar_preds[s], simd_preds[s]) << "sample " << s;
      ASSERT_EQ(scalar_preds[s], oracles::predict_naive(net, data.row(s)));
    }
  }
}

TEST(PredictBatch, OverflowUnsafeNetRunsInt64BlockLanes) {
  // act_bits wide enough that the QReLU clamp exceeds int32 makes the
  // static bound fail for int16 and int32: every layer must run the block
  // loop on int64 lanes and still equal the naive oracle. No
  // ChromosomeCodec covers a 36-bit layer input (a mask gene is an int),
  // so the dense net is built directly.
  core::BitConfig bits;
  bits.act_bits = 36;
  const mlp::Topology topo{{5, 4, 3}};
  const auto data = random_dataset(5, 3, 70, bits.input_bits, 9);

  std::mt19937_64 rng(31);
  core::EvalWorkspace ws;
  core::ApproxMlp net(topo, bits);
  std::uniform_int_distribution<int> exponent(0, bits.max_exponent());
  std::uniform_int_distribution<std::int64_t> bias(bits.bias_min(),
                                                   bits.bias_max());
  for (auto& layer : net.layers()) {
    for (auto& c : layer.conns) {
      c.mask = static_cast<std::uint32_t>(
          pmlp::bitops::low_mask(std::min(layer.input_bits, 32)));
      c.sign = (rng() & 1u) ? +1 : -1;
      c.exponent = exponent(rng);
    }
    for (auto& b : layer.biases) b = bias(rng);
  }
  net.update_qrelu_shifts();
  const core::CompiledNet compiled(net);
  for (core::LaneType lane : compiled.lanes()) {
    EXPECT_EQ(lane, core::LaneType::kInt64);
  }
  std::vector<std::int32_t> preds(data.size());
  compiled.predict_batch(data.codes.data(), data.size(), preds.data(), ws);
  for (std::size_t s = 0; s < data.size(); ++s) {
    ASSERT_EQ(preds[s], oracles::predict_naive(net, data.row(s)));
  }
  EXPECT_DOUBLE_EQ(compiled.accuracy(data, ws),
                   oracles::accuracy_naive(net, data));
  // The planes path widens the int16 input planes to the same int64 lanes.
  EXPECT_DOUBLE_EQ(compiled.accuracy(core::SamplePlanes(data), ws),
                   oracles::accuracy_naive(net, data));
}

TEST(PredictBatch, LanesWidenAlongTheNetAndMatchNaive) {
  // A hand-built (4, 3, 3, 2) net whose layers prove int16, int32 and
  // int64 in turn: a default-width first layer, then full 8-bit masks
  // shifted by 9 into the second layer and by 26 into the output layer.
  // The proof bounds each hidden activation by its neuron's range; with
  // non-negative hidden biases the widest neuron of each QReLU layer hands
  // on at least 64 here, so one term alone (64 << 9, 64 << 26) passes
  // int16 and then int32. Every block size crosses both widenings (and
  // blocks under 16 samples start on int32), under every dispatchable ISA.
  const core::BitConfig bits;
  const mlp::Topology topo{{4, 3, 3, 2}};
  const auto data = random_dataset(4, 2, 129, bits.input_bits, 12);
  std::mt19937_64 rng(77);
  core::ApproxMlp net(topo, bits);
  const int exponents[] = {3, 9, 26};
  for (std::size_t l = 0; l < net.layers().size(); ++l) {
    auto& layer = net.layers()[l];
    for (auto& c : layer.conns) {
      c.mask = static_cast<std::uint32_t>(
          pmlp::bitops::low_mask(layer.input_bits) & (l == 0 ? rng() : ~0ull));
      c.sign = (rng() & 1u) ? +1 : -1;
      c.exponent = exponents[l];
    }
    for (auto& b : layer.biases) {
      const bool hidden = l + 1 < net.layers().size();
      b = static_cast<std::int64_t>(rng() % 200) - (hidden ? 0 : 100);
    }
  }
  net.update_qrelu_shifts();
  const core::CompiledNet compiled(net);
  ASSERT_EQ(compiled.lanes().size(), 3u);
  EXPECT_EQ(compiled.lanes()[0], core::LaneType::kInt16);
  EXPECT_EQ(compiled.lanes()[1], core::LaneType::kInt32);
  EXPECT_EQ(compiled.lanes()[2], core::LaneType::kInt64);
  core::EvalWorkspace ws;
  for (core::SimdIsa isa : {core::SimdIsa::kScalar, core::detect_simd_isa()}) {
    ScopedIsa forced(isa);
    for (std::size_t n : {1, 15, 16, 17, 63, 64, 129}) {
      std::vector<std::int32_t> preds(n);
      compiled.predict_batch(data.codes.data(), n, preds.data(), ws);
      for (std::size_t s = 0; s < n; ++s) {
        ASSERT_EQ(preds[s], oracles::predict_naive(net, data.row(s)))
            << core::simd_isa_name(isa) << " batch " << n << " sample " << s;
      }
    }
    EXPECT_DOUBLE_EQ(compiled.accuracy(core::SamplePlanes(data), ws),
                     oracles::accuracy_naive(net, data));
  }
}

// ------------------------------------------------------------ sample planes

namespace {

/// The first `n` samples of `d`.
ds::QuantizedDataset head(const ds::QuantizedDataset& d, std::size_t n) {
  ds::QuantizedDataset out = d;
  out.codes.resize(n * static_cast<std::size_t>(d.n_features));
  out.labels.resize(n);
  return out;
}

/// Every ISA set_simd_isa can install on this machine.
std::vector<core::SimdIsa> dispatchable_isas() {
  std::vector<core::SimdIsa> isas{core::SimdIsa::kScalar};
  if (core::detect_simd_isa() != core::SimdIsa::kScalar) {
    isas.push_back(core::detect_simd_isa());
  }
  return isas;
}

/// Planes-path accuracy of `net` compiled must equal the naive per-sample
/// predict count, and its epilogue's classes must equal the naive class on
/// every sample: relabelled with the naive classes the planes score
/// exactly 1, and with every class shifted by one exactly 0.
void expect_planes_match_predict(const core::ApproxMlp& net,
                                 const ds::QuantizedDataset& data,
                                 core::EvalWorkspace& ws) {
  const core::CompiledNet compiled(net);
  std::size_t correct = 0;
  ds::QuantizedDataset agree = data;
  ds::QuantizedDataset disagree = data;
  for (std::size_t s = 0; s < data.size(); ++s) {
    const int pred = oracles::predict_naive(net, data.row(s));
    if (pred == data.labels[s]) ++correct;
    agree.labels[s] = pred;
    disagree.labels[s] = (pred + 1) % compiled.n_outputs();
  }
  const double expected =
      data.size() == 0 ? 0.0
                       : static_cast<double>(correct) /
                             static_cast<double>(data.size());
  EXPECT_EQ(compiled.accuracy(core::SamplePlanes(data), ws), expected);
  EXPECT_EQ(compiled.accuracy(data, ws), expected);
  EXPECT_EQ(compiled.accuracy(core::SamplePlanes(agree), ws),
            data.size() == 0 ? 0.0 : 1.0);
  EXPECT_EQ(compiled.accuracy(core::SamplePlanes(disagree), ws), 0.0);
}

}  // namespace

TEST(SamplePlanes, LayoutIsBlockedPlanesAndRoundTripsRows) {
  const auto data = random_dataset(5, 3, 150, 4, 13);
  const core::SamplePlanes planes(data);
  ASSERT_EQ(planes.size(), data.size());
  ASSERT_EQ(planes.n_features(), data.n_features);
  constexpr std::size_t kBlock = core::CompiledNet::kBlockSamples;
  for (std::size_t s = 0; s < data.size(); ++s) {
    const std::size_t base = s - s % kBlock;
    const std::size_t b = std::min(kBlock, data.size() - base);
    for (int i = 0; i < data.n_features; ++i) {
      ASSERT_EQ(planes.block(base)[static_cast<std::size_t>(i) * b + s - base],
                data.row(s)[static_cast<std::size_t>(i)])
          << "sample " << s << " feature " << i;
    }
    ASSERT_EQ(planes.labels()[s], data.labels[s]);
  }
}

TEST(SamplePlanes, AccuracyMatchesPerSamplePredictAcrossSizesAndIsas) {
  const mlp::Topology topo{{6, 5, 4}};
  const core::BitConfig bits;
  const core::ChromosomeCodec codec(topo, bits);
  const auto data = random_dataset(6, 4, 129, bits.input_bits, 23);
  const std::size_t sizes[] = {0, 1, 7, 8, 63, 64, 65, 129};

  std::mt19937_64 rng(101);
  core::EvalWorkspace ws;
  const MaskStyle styles[] = {MaskStyle::kDense, MaskStyle::kSparse,
                              MaskStyle::kFullyPruned, MaskStyle::kCoarse};
  for (core::SimdIsa isa : dispatchable_isas()) {
    ScopedIsa forced(isa);
    for (MaskStyle style : styles) {
      for (int rep = 0; rep < 3; ++rep) {
        const core::ApproxMlp net =
            codec.decode(random_genes(codec, style, rng));
        ASSERT_NE(core::CompiledNet(net).lanes().back(),
                  core::LaneType::kInt64);
        for (std::size_t n : sizes) {
          SCOPED_TRACE(testing::Message()
                       << core::simd_isa_name(isa) << " style "
                       << static_cast<int>(style) << " n " << n);
          expect_planes_match_predict(net, head(data, n), ws);
        }
      }
    }
  }
}

TEST(SamplePlanes, AccuracyMatchesPerSamplePredictOnFullTableOneTrainSet) {
  const auto raw = ds::generate(ds::pendigits_spec());
  const auto split = ds::stratified_split(raw, 0.7, 1);
  const auto train = ds::quantize_inputs(split.train, 4);
  const mlp::Topology topo{{raw.n_features, 5, raw.n_classes}};
  const core::ChromosomeCodec codec(topo, core::BitConfig{});

  std::mt19937_64 rng(5);
  core::EvalWorkspace ws;
  for (core::SimdIsa isa : dispatchable_isas()) {
    ScopedIsa forced(isa);
    for (MaskStyle style : {MaskStyle::kDense, MaskStyle::kSparse}) {
      SCOPED_TRACE(core::simd_isa_name(isa));
      expect_planes_match_predict(
          codec.decode(random_genes(codec, style, rng)), train, ws);
    }
  }
}

TEST(SamplePlanes, TiedOutputLogitsPickTheLowestClass) {
  // Output neurons 1 and 2 are identical and neuron 0 is theirs with one
  // less bias, so every sample's logits read (v - 1, v, v): the first
  // maximum is class 1 and a last-maximum rule would say 2.
  const mlp::Topology topo{{4, 3, 3}};
  const core::BitConfig bits;
  const core::ChromosomeCodec codec(topo, bits);
  const auto data = random_dataset(4, 3, 77, bits.input_bits, 41);
  std::mt19937_64 rng(8);
  core::ApproxMlp net =
      codec.decode(random_genes(codec, MaskStyle::kDense, rng));
  auto& out = net.layers().back();
  for (int i = 0; i < out.n_in; ++i) {
    out.conn(0, i) = out.conn(1, i);
    out.conn(2, i) = out.conn(1, i);
  }
  out.biases[1] = 0;
  out.biases[2] = 0;
  out.biases[0] = -1;
  net.update_qrelu_shifts();
  const core::CompiledNet compiled(net);

  ds::QuantizedDataset ones = data;
  std::fill(ones.labels.begin(), ones.labels.end(), 1);
  core::EvalWorkspace ws;
  for (std::size_t s = 0; s < data.size(); ++s) {
    ASSERT_EQ(oracles::predict_naive(net, data.row(s)), 1) << "sample " << s;
  }
  for (core::SimdIsa isa : dispatchable_isas()) {
    ScopedIsa forced(isa);
    SCOPED_TRACE(core::simd_isa_name(isa));
    EXPECT_EQ(compiled.accuracy(core::SamplePlanes(ones), ws), 1.0);
    const auto preds = compiled.predict_batch(data, ws);
    EXPECT_TRUE(std::all_of(preds.begin(), preds.end(),
                            [](std::int32_t p) { return p == 1; }));
  }
}

TEST(ArgmaxEpilogue, VariantsAgreeWithArgmaxFirstOnTies) {
  // Logits drawn from {0, 1, 2} tie constantly; 29 samples cover whole
  // 8-lane vectors and a scalar tail. Both variants are called directly.
  constexpr int kOut = 5;
  constexpr int kN = 29;
  std::mt19937_64 rng(3);
  std::vector<std::int32_t> planes(static_cast<std::size_t>(kOut) * kN);
  std::vector<std::int32_t> labels(kN);
  for (int rep = 0; rep < 20; ++rep) {
    for (auto& v : planes) v = static_cast<std::int32_t>(rng() % 3) - 1;
    for (auto& l : labels) l = static_cast<std::int32_t>(rng() % kOut);
    std::vector<std::int32_t> expected(kN);
    std::size_t expected_correct = 0;
    for (int s = 0; s < kN; ++s) {
      std::vector<std::int64_t> logits(kOut);
      for (int k = 0; k < kOut; ++k) {
        logits[static_cast<std::size_t>(k)] =
            planes[static_cast<std::size_t>(k) * kN + s];
      }
      expected[static_cast<std::size_t>(s)] = oracles::argmax_first(logits);
      if (expected[static_cast<std::size_t>(s)] ==
          labels[static_cast<std::size_t>(s)]) {
        ++expected_correct;
      }
    }
    for (core::SimdIsa isa : {core::SimdIsa::kScalar, core::detect_simd_isa()}) {
      std::vector<std::int32_t> preds(kN, -1);
      EXPECT_EQ(core::argmax_block(isa, planes.data(), kOut, kN, labels.data(),
                                   preds.data()),
                expected_correct)
          << core::simd_isa_name(isa);
      EXPECT_EQ(preds, expected) << core::simd_isa_name(isa);
      // Counting alone, with no prediction buffer, gives the same count.
      EXPECT_EQ(core::argmax_block(isa, planes.data(), kOut, kN, labels.data(),
                                   nullptr),
                expected_correct);
    }
  }
}

TEST(SamplePlanes, FeatureWidthMismatchThrows) {
  const core::ChromosomeCodec codec(mlp::Topology{{5, 4, 3}},
                                    core::BitConfig{});
  std::mt19937_64 rng(2);
  const core::CompiledNet compiled(
      codec.decode(random_genes(codec, MaskStyle::kDense, rng)));
  const auto narrow = random_dataset(4, 3, 10, 4, 1);
  core::EvalWorkspace ws;
  EXPECT_THROW((void)compiled.predict_batch(narrow, ws), std::invalid_argument);
  EXPECT_THROW((void)compiled.accuracy(narrow, ws), std::invalid_argument);
  EXPECT_THROW((void)compiled.accuracy(core::SamplePlanes(narrow), ws),
               std::invalid_argument);
  // An empty set of the wrong width is still the wrong width.
  EXPECT_THROW((void)compiled.accuracy(core::SamplePlanes(head(narrow, 0)), ws),
               std::invalid_argument);
}

// ------------------------------------------------------------- lane widths

namespace {

/// `values` (neuron-major planes of `n` lanes) converted to lane type T.
template <typename T>
std::vector<T> as_lanes(const std::vector<std::int64_t>& values) {
  return std::vector<T>(values.begin(), values.end());
}

/// Sweep `layer` over `in` on T lanes under every dispatchable ISA, with
/// separate and with aliased accumulator/activation planes, and compare
/// every lane with the int64 scalar sweep.
template <typename T>
void expect_sweep_matches_int64(const core::CompiledLayer& layer,
                                const std::vector<std::int64_t>& in, int n,
                                std::int64_t act_max) {
  const auto planes = static_cast<std::size_t>(layer.n_out) * n;
  std::vector<std::int64_t> ref_acc(planes), ref_act(planes);
  core::layer_sweep(core::SimdIsa::kScalar, layer, in.data(), ref_acc.data(),
                    ref_act.data(), n, act_max);
  const auto lanes_in = as_lanes<T>(in);
  for (core::SimdIsa isa : dispatchable_isas()) {
    SCOPED_TRACE(testing::Message() << core::simd_isa_name(isa) << " lanes "
                                    << 8 * sizeof(T) << " n " << n);
    std::vector<T> acc(planes, T{-7}), act(planes, T{-7});
    core::layer_sweep(isa, layer, lanes_in.data(), acc.data(), act.data(), n,
                      static_cast<T>(act_max));
    for (std::size_t k = 0; k < planes; ++k) {
      ASSERT_EQ(acc[k], ref_acc[k]) << "lane " << k;
      ASSERT_EQ(act[k], ref_act[k]) << "lane " << k;
    }
    std::vector<T> both(planes, T{-7});
    core::layer_sweep(isa, layer, lanes_in.data(), both.data(), both.data(), n,
                      static_cast<T>(act_max));
    for (std::size_t k = 0; k < planes; ++k) {
      ASSERT_EQ(both[k], ref_act[k]) << "aliased lane " << k;
    }
    if constexpr (std::is_same_v<T, std::int16_t>) {
      // The widening store: int16 accumulators, int32 activations.
      std::vector<std::int32_t> wide(planes, -7);
      core::layer_sweep(isa, layer, lanes_in.data(), acc.data(), wide.data(),
                        n, static_cast<T>(act_max));
      for (std::size_t k = 0; k < planes; ++k) {
        ASSERT_EQ(acc[k], ref_acc[k]) << "widening lane " << k;
        ASSERT_EQ(wide[k], ref_act[k]) << "widening lane " << k;
      }
    }
  }
}

/// argmax_block on T lanes under every dispatchable ISA against
/// argmax_first, with and without a prediction buffer.
template <typename T>
void expect_argmax_matches_first(const std::vector<std::int64_t>& logits,
                                 int n_out, int n,
                                 const std::vector<std::int32_t>& labels) {
  std::vector<std::int32_t> expected(static_cast<std::size_t>(n));
  std::size_t expected_correct = 0;
  std::vector<std::int64_t> sample(static_cast<std::size_t>(n_out));
  for (int s = 0; s < n; ++s) {
    for (int k = 0; k < n_out; ++k) {
      sample[static_cast<std::size_t>(k)] =
          logits[static_cast<std::size_t>(k) * n + s];
    }
    const int best = oracles::argmax_first(sample);
    expected[static_cast<std::size_t>(s)] = best;
    if (best == labels[static_cast<std::size_t>(s)]) ++expected_correct;
  }
  const auto lanes = as_lanes<T>(logits);
  for (core::SimdIsa isa : dispatchable_isas()) {
    SCOPED_TRACE(testing::Message() << core::simd_isa_name(isa) << " lanes "
                                    << 8 * sizeof(T) << " n " << n);
    std::vector<std::int32_t> preds(static_cast<std::size_t>(n), -1);
    EXPECT_EQ(core::argmax_block(isa, lanes.data(), n_out, n, labels.data(),
                                 preds.data()),
              expected_correct);
    EXPECT_EQ(preds, expected);
    EXPECT_EQ(core::argmax_block(isa, lanes.data(), n_out, n, labels.data(),
                                 nullptr),
              expected_correct);
  }
}

constexpr int kLaneBlockSizes[] = {1, 15, 16, 17, 63, 64};

}  // namespace

TEST(LaneKernels, SweepMatchesScalarOracleAtEveryExactWidth) {
  // Every layer of random default-BitConfig nets, at every lane width its
  // proof allows, against the int64 scalar sweep: layer 1 (4-bit codes)
  // proves int16, the output layer (8-bit activations, no QReLU) int32.
  const core::BitConfig bits;
  const std::int64_t act_max = (std::int64_t{1} << bits.act_bits) - 1;
  const core::ChromosomeCodec codec(mlp::Topology{{16, 5, 10}}, bits);
  std::mt19937_64 rng(61);
  for (MaskStyle style : {MaskStyle::kDense, MaskStyle::kSparse}) {
    const core::ApproxMlp net = codec.decode(random_genes(codec, style, rng));
    const core::CompiledNet compiled(net);
    for (std::size_t l = 0; l < compiled.layers().size(); ++l) {
      const core::CompiledLayer& layer = compiled.layers()[l];
      const core::LaneType lane =
          core::layer_lanes({&layer, 1}, act_max).front();
      const std::int64_t in_max = l == 0 ? 15 : act_max;
      for (int n : kLaneBlockSizes) {
        std::vector<std::int64_t> in(static_cast<std::size_t>(layer.n_in) *
                                     n);
        for (auto& v : in) {
          v = static_cast<std::int64_t>(rng() % (in_max + 1));
        }
        if (lane == core::LaneType::kInt16) {
          expect_sweep_matches_int64<std::int16_t>(layer, in, n, act_max);
        }
        ASSERT_NE(lane, core::LaneType::kInt64);
        expect_sweep_matches_int64<std::int32_t>(layer, in, n, act_max);
      }
    }
    EXPECT_EQ(core::layer_lanes(compiled.layers(), act_max).front(),
              core::LaneType::kInt16);
  }
}

TEST(LaneKernels, ArgmaxMatchesScalarOracleAtEveryWidth) {
  // Logits drawn from {-1, 0, 1} tie constantly; a second draw uses each
  // width's extremes, where a wrapped compare would show.
  constexpr int kOut = 5;
  std::mt19937_64 rng(3);
  for (int n : kLaneBlockSizes) {
    std::vector<std::int64_t> logits(static_cast<std::size_t>(kOut) * n);
    std::vector<std::int32_t> labels(static_cast<std::size_t>(n));
    for (auto& l : labels) l = static_cast<std::int32_t>(rng() % kOut);
    for (int rep = 0; rep < 4; ++rep) {
      for (auto& v : logits) v = static_cast<std::int64_t>(rng() % 3) - 1;
      expect_argmax_matches_first<std::int16_t>(logits, kOut, n, labels);
      expect_argmax_matches_first<std::int32_t>(logits, kOut, n, labels);
      expect_argmax_matches_first<std::int64_t>(logits, kOut, n, labels);
    }
    const std::int64_t extremes[] = {-32768, -32767, 0, 32766, 32767};
    for (auto& v : logits) v = extremes[rng() % 5];
    expect_argmax_matches_first<std::int16_t>(logits, kOut, n, labels);
    expect_argmax_matches_first<std::int32_t>(logits, kOut, n, labels);
  }
}

TEST(LayerLanes, BoundOf32767TakesInt16And32768TakesInt32) {
  // One neuron, one connection whose term reaches (255 << 7) = 32640, so
  // the bias sets an edge of the proven range exactly: [b, b + 32640] for
  // a positive term, [b - 32640, b] for a negative one.
  core::CompiledLayer layer;
  layer.n_in = 1;
  layer.n_out = 1;
  layer.qrelu = false;
  layer.conn_begin = {0, 1};
  const auto set = [&](std::int64_t bias, int neg) {
    layer.conns = {core::CompiledConn{0, 255, 7, neg}};
    layer.biases = {bias};
  };
  const auto lane_with = [&](std::int64_t bias, int neg = 0,
                             std::int64_t act_max = 255) {
    set(bias, neg);
    return core::layer_lanes({&layer, 1}, act_max).front();
  };
  const auto reachable_with = [&](std::int64_t bias_bound, int neg) {
    set(0, neg);
    return core::reachable_lanes({&layer, 1}, 255, bias_bound).front();
  };
  EXPECT_EQ(lane_with(127), core::LaneType::kInt16);      // hi 32767
  EXPECT_EQ(lane_with(-128, 1), core::LaneType::kInt16);  // lo -32768
  EXPECT_EQ(lane_with(128), core::LaneType::kInt32);      // hi 32768
  EXPECT_EQ(lane_with(-129, 1), core::LaneType::kInt32);  // lo -32769
  // bias_bound widens each bias range to [-bias_bound, bias_bound];
  // act_max must fit the lanes too.
  EXPECT_EQ(reachable_with(127, 0), core::LaneType::kInt16);
  EXPECT_EQ(reachable_with(128, 0), core::LaneType::kInt32);
  EXPECT_EQ(reachable_with(128, 1), core::LaneType::kInt16);
  EXPECT_EQ(reachable_with(129, 1), core::LaneType::kInt32);
  EXPECT_EQ(lane_with(0, 0, 32768), core::LaneType::kInt32);
  // The int32/int64 boundary, by the same construction.
  const std::int64_t int32_room = std::int64_t{2147483647} - 32640;
  EXPECT_EQ(lane_with(int32_room), core::LaneType::kInt32);
  EXPECT_EQ(lane_with(int32_room + 1), core::LaneType::kInt64);
  EXPECT_EQ(lane_with(-int32_room - 1, 1), core::LaneType::kInt32);
  EXPECT_EQ(lane_with(-int32_room - 2, 1), core::LaneType::kInt64);
  EXPECT_EQ(lane_with(0, 0, std::int64_t{1} << 31), core::LaneType::kInt64);
  // A shift into the sign bit fails even when mask << shift fits the value.
  layer.conns = {core::CompiledConn{0, 1, 15, 0}};
  EXPECT_EQ(core::layer_lanes({&layer, 1}, 255).front(),
            core::LaneType::kInt32);

  // At the int16 edges the sweep reaches 32,767 and -32,768 exactly on
  // every lane.
  for (const int neg : {0, 1}) {
    ASSERT_EQ(lane_with(neg ? -128 : 127, neg), core::LaneType::kInt16);
    for (int n : kLaneBlockSizes) {
      const std::vector<std::int16_t> in(static_cast<std::size_t>(n), 255);
      for (core::SimdIsa isa : dispatchable_isas()) {
        std::vector<std::int16_t> acc(static_cast<std::size_t>(n));
        core::layer_sweep(isa, layer, in.data(), acc.data(), acc.data(), n,
                          std::int16_t{255});
        for (std::int16_t a : acc) ASSERT_EQ(a, neg ? -32768 : 32767);
      }
    }
  }
}

TEST(LayerLanes, ActivationRangeNarrowsOutputLayer) {
  // A 16 -> 5 -> 10 net (Pendigits' shape) whose output layer the
  // mask-only bound |b| + sum(mask << k) puts on int32 (five full 8-bit
  // masks shifted by 6 alone reach 81,600), while its hidden activations
  // are proven small: hidden neuron 0 sums sixteen positive terms (hi 960,
  // QReLU shift 2, activation <= 240), neurons 1-4 four each (hi 60,
  // activation <= 15). The value-range proof puts the output layer on
  // int16, and the sweep lands on its proven range edges exactly.
  const core::BitConfig bits;
  const std::int64_t act_max = (std::int64_t{1} << bits.act_bits) - 1;
  core::ApproxMlp net(mlp::Topology{{16, 5, 10}}, bits);
  auto& hidden = net.layers()[0];
  for (int o = 0; o < hidden.n_out; ++o) {
    for (int i = 0; i < hidden.n_in; ++i) {
      const bool on = o == 0 || i < 4;
      hidden.conn(o, i) = core::ApproxConn{on ? 15u : 0u, +1, o == 0 ? 2 : 0};
    }
    hidden.biases[static_cast<std::size_t>(o)] = 0;
  }
  std::mt19937_64 rng(28);
  auto& output = net.layers()[1];
  for (auto& c : output.conns) {
    c = core::ApproxConn{255u, (rng() & 1u) ? +1 : -1, 6};
  }
  for (auto& b : output.biases) {
    b = static_cast<std::int64_t>(rng() % 2001) - 1000;
  }
  net.update_qrelu_shifts();
  ASSERT_EQ(hidden.qrelu_shift, 2);

  const core::CompiledNet compiled(net);
  const core::CompiledLayer& layer = compiled.layers()[1];
  std::int64_t mask_bound = 0;
  for (int o = 0; o < layer.n_out; ++o) {
    std::int64_t bound = std::abs(layer.biases[static_cast<std::size_t>(o)]);
    for (auto c = layer.conn_begin[static_cast<std::size_t>(o)];
         c < layer.conn_begin[static_cast<std::size_t>(o) + 1]; ++c) {
      const core::CompiledConn& cc = layer.conns[static_cast<std::size_t>(c)];
      bound += static_cast<std::int64_t>(cc.mask) << cc.shift;
    }
    mask_bound = std::max(mask_bound, bound);
  }
  EXPECT_GT(mask_bound, 32767);
  ASSERT_EQ(compiled.lanes().size(), 2u);
  EXPECT_EQ(compiled.lanes()[0], core::LaneType::kInt16);
  EXPECT_EQ(compiled.lanes()[1], core::LaneType::kInt16);

  const auto ranges = core::accumulator_ranges(compiled.layers(), act_max);
  std::vector<std::int64_t> xmax(5);
  for (std::size_t i = 0; i < xmax.size(); ++i) {
    xmax[i] = std::min(act_max, std::max<std::int64_t>(ranges[0][i].hi, 0) >>
                                    hidden.qrelu_shift);
  }
  EXPECT_EQ(xmax[0], 240);
  EXPECT_EQ(xmax[4], 15);
  // Sample s drives output neuron (s / 2) % 10 to its hi (s even: every
  // positive term's input at its maximum, every negative one's at 0) or to
  // its lo (s odd: the reverse). Full masks pass each input unchanged.
  for (int n : {20, 64}) {
    std::vector<std::int64_t> in(static_cast<std::size_t>(layer.n_in) * n);
    std::vector<std::int64_t> edge(static_cast<std::size_t>(n));
    for (int s = 0; s < n; ++s) {
      const int o = (s / 2) % layer.n_out;
      const bool high = s % 2 == 0;
      const auto begin = layer.conn_begin[static_cast<std::size_t>(o)];
      for (int i = 0; i < layer.n_in; ++i) {
        const core::CompiledConn& cc =
            layer.conns[static_cast<std::size_t>(begin + i)];
        ASSERT_EQ(cc.in, i);
        in[static_cast<std::size_t>(i) * n + s] =
            (cc.neg == 0) == high ? xmax[static_cast<std::size_t>(i)] : 0;
      }
      const core::AccRange& r = ranges[1][static_cast<std::size_t>(o)];
      edge[static_cast<std::size_t>(s)] = high ? r.hi : r.lo;
    }
    expect_sweep_matches_int64<std::int16_t>(layer, in, n, act_max);
    const auto in16 = as_lanes<std::int16_t>(in);
    for (core::SimdIsa isa : dispatchable_isas()) {
      std::vector<std::int16_t> acc(static_cast<std::size_t>(layer.n_out) * n);
      core::layer_sweep(isa, layer, in16.data(), acc.data(), acc.data(), n,
                        static_cast<std::int16_t>(act_max));
      for (int s = 0; s < n; ++s) {
        const int o = (s / 2) % layer.n_out;
        ASSERT_EQ(acc[static_cast<std::size_t>(o) * n + s],
                  edge[static_cast<std::size_t>(s)])
            << core::simd_isa_name(isa) << " n " << n << " sample " << s;
      }
    }
  }
  // The whole net on int16 lanes still classifies like the naive walk.
  const auto data = random_dataset(16, 10, 129, bits.input_bits, 29);
  core::EvalWorkspace ws;
  for (core::SimdIsa isa : dispatchable_isas()) {
    ScopedIsa forced(isa);
    std::vector<std::int32_t> preds(data.size());
    compiled.predict_batch(data.codes.data(), data.size(), preds.data(), ws);
    for (std::size_t s = 0; s < data.size(); ++s) {
      ASSERT_EQ(preds[s], oracles::predict_naive(net, data.row(s)))
          << core::simd_isa_name(isa) << " sample " << s;
    }
  }
}

TEST(LayerLanes, ProvenRangesHoldEveryNaiveAccumulator) {
  // Soundness of the value-range proof on seeded random (5, 4, 4, 3) nets:
  // negative biases, dead hidden neurons (every term negative) and
  // exponents 0-6. An int64 walk of each layer in connection order checks
  // every partial sum against its neuron's proven range, and each layer's
  // final sums against the naive oracle run on the net truncated after
  // that layer (its QReLU dropped, so the oracle returns accumulators).
  const core::BitConfig bits;
  const std::int64_t act_max = (std::int64_t{1} << bits.act_bits) - 1;
  const mlp::Topology topo{{5, 4, 4, 3}};
  const auto data = random_dataset(5, 3, 48, bits.input_bits, 31);
  std::mt19937_64 rng(2028);
  std::uniform_int_distribution<int> exponent(0, bits.max_exponent());
  std::uniform_int_distribution<std::int64_t> bias(bits.bias_min(),
                                                   bits.bias_max());
  long checked = 0;
  for (int rep = 0; rep < 40; ++rep) {
    core::ApproxMlp net(topo, bits);
    for (std::size_t l = 0; l < net.layers().size(); ++l) {
      auto& layer = net.layers()[l];
      const auto full = pmlp::bitops::low_mask(layer.input_bits);
      const int dead = static_cast<int>(rng() % 4);  // a neuron to kill
      for (int o = 0; o < layer.n_out; ++o) {
        for (int i = 0; i < layer.n_in; ++i) {
          auto& c = layer.conn(o, i);
          c.mask = static_cast<std::uint32_t>(full & rng());
          c.sign = (o == dead || (rng() & 1u)) ? -1 : +1;
          c.exponent = exponent(rng);
        }
        auto& b = layer.biases[static_cast<std::size_t>(o)];
        b = o == dead ? -static_cast<std::int64_t>(rng() % 64) : bias(rng);
      }
    }
    net.update_qrelu_shifts();
    const core::CompiledNet compiled(net);
    const auto ranges = core::accumulator_ranges(compiled.layers(), act_max);
    std::vector<core::ApproxMlp> truncated;
    for (std::size_t l = 0; l < net.layers().size(); ++l) {
      std::vector<int> widths(topo.layers.begin(),
                              topo.layers.begin() + static_cast<long>(l) + 2);
      core::ApproxMlp t(mlp::Topology{widths}, bits);
      for (std::size_t k = 0; k <= l; ++k) t.layers()[k] = net.layers()[k];
      t.layers()[l].qrelu = false;
      truncated.push_back(std::move(t));
    }
    for (std::size_t s = 0; s < data.size(); ++s) {
      std::vector<std::int64_t> x(data.row(s).begin(), data.row(s).end());
      for (std::size_t l = 0; l < compiled.layers().size(); ++l) {
        const core::CompiledLayer& layer = compiled.layers()[l];
        const auto naive = oracles::forward_naive(truncated[l], data.row(s));
        std::vector<std::int64_t> next(static_cast<std::size_t>(layer.n_out));
        for (int o = 0; o < layer.n_out; ++o) {
          const core::AccRange& r = ranges[l][static_cast<std::size_t>(o)];
          std::int64_t a = layer.biases[static_cast<std::size_t>(o)];
          ASSERT_TRUE(r.lo <= a && a <= r.hi) << "bias, layer " << l;
          for (auto c = layer.conn_begin[static_cast<std::size_t>(o)];
               c < layer.conn_begin[static_cast<std::size_t>(o) + 1]; ++c) {
            const core::CompiledConn& cc =
                layer.conns[static_cast<std::size_t>(c)];
            const std::int64_t term =
                (x[static_cast<std::size_t>(cc.in)] & cc.mask) << cc.shift;
            a += cc.neg ? -term : term;
            ASSERT_TRUE(r.lo <= a && a <= r.hi)
                << "rep " << rep << " sample " << s << " layer " << l
                << " neuron " << o << ": " << a << " outside [" << r.lo
                << ", " << r.hi << "]";
            ++checked;
          }
          ASSERT_EQ(a, naive[static_cast<std::size_t>(o)]);
          next[static_cast<std::size_t>(o)] =
              !layer.qrelu ? a
              : a <= 0     ? 0
                           : std::min(a >> layer.qrelu_shift, act_max);
        }
        x = std::move(next);
      }
    }
  }
  EXPECT_GT(checked, 10000);
}

TEST(FaArea, WorkspaceMemoMatchesOracleOnNearCopyStream) {
  // The GA's pricing path: one worker workspace compiles a seeded stream of
  // near-copies (1-3 genes changed) of a drifting Pendigits parent, pricing
  // each neuron through its FaMemo. Every fa_area must equal
  // ApproxMlp::fa_area. Unchanged neurons hit; changed ones miss, and with
  // more distinct neurons than slots some of them land on a slot another
  // key holds and evict it.
  const core::BitConfig bits;
  const core::ChromosomeCodec codec(core::paper_topology("Pendigits"), bits);
  std::mt19937_64 rng(2029);
  std::vector<int> parent = random_genes(codec, MaskStyle::kSparse, rng);
  core::EvalWorkspace ws;
  constexpr int kChildren = 1500;
  for (int k = 0; k < kChildren; ++k) {
    std::vector<int> child = parent;
    const int changes = 1 + static_cast<int>(rng() % 3);
    for (int c = 0; c < changes; ++c) {
      const int g = static_cast<int>(rng() % static_cast<unsigned>(
                                               codec.n_genes()));
      const auto b = codec.bounds(g);
      child[static_cast<std::size_t>(g)] =
          b.lo + static_cast<int>(rng() % static_cast<unsigned>(
                                             b.hi - b.lo + 1));
    }
    const core::ApproxMlp net = codec.decode(child);
    ASSERT_EQ(core::CompiledNet(net, ws).fa_area(), net.fa_area())
        << "child " << k;
    if (k % 40 == 39) parent = child;
  }
  const core::FaMemo::Stats& stats = ws.fa_memo_stats();
  EXPECT_EQ(stats.hits + stats.misses, kChildren * (5 + 10));
  EXPECT_GT(stats.hits, stats.misses);
  EXPECT_GT(stats.misses, 0);
  EXPECT_GT(stats.evictions, 0);
}
