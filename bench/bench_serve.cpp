// Serving-path benchmark: closed-loop load against a FrontServer (request
// batching + per-worker EvalWorkspace reuse over the shared ThreadPool) vs
// the naive architecture it replaces — one spawned thread and one fresh
// workspace per request. Both paths answer from identical precompiled
// CompiledNets, so the delta is pure serving overhead: thread spawn/join,
// workspace allocation, and scheduler churn vs amortized batch dispatch.
//
// Prints parseable rows for tools/run_bench.sh:
//
//   ThreadsUsed <n>                          pool size the server resolved
//   ServeBench naive  <qps> <p50_us> <p99_us>
//   ServeBench served <qps> <p50_us> <p99_us>
//   ServeSpeedup <served_qps / naive_qps>
//   ServeBatchFill <avg requests per dispatched batch>
//   ServeSimd <isa> <block>                  kernel dispatch + sweep block
//
// Scale knobs: PMLP_THREADS (pool size, 0 = all hardware threads),
// PMLP_SERVE_CLIENTS (closed-loop clients, default 4), PMLP_SERVE_REQS
// (requests per client per section, default 2000), PMLP_SERVE_MODELS
// (front size, default 8).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "pmlp/core/chromosome.hpp"
#include "pmlp/core/eval_engine.hpp"
#include "pmlp/core/serialize.hpp"
#include "pmlp/core/serve.hpp"
#include "pmlp/core/simd.hpp"

namespace core = pmlp::core;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

core::ApproxMlp make_model(const pmlp::mlp::Topology& topo,
                           std::uint64_t seed) {
  const core::BitConfig bits;
  const core::ChromosomeCodec codec(topo, bits);
  std::mt19937_64 rng(seed);
  std::vector<int> genes(static_cast<std::size_t>(codec.n_genes()));
  for (int g = 0; g < codec.n_genes(); ++g) {
    const auto b = codec.bounds(g);
    std::uniform_int_distribution<int> pick(b.lo, b.hi);
    int v = pick(rng);
    if (codec.kind(g) == core::GeneKind::kMask && rng() % 10 < 4) v = 0;
    genes[static_cast<std::size_t>(g)] = v;
  }
  return codec.decode(genes);
}

struct Load {
  std::vector<std::string> selectors;           ///< request i -> model file
  std::vector<std::vector<std::uint8_t>> codes; ///< request i -> features
};

struct Measured {
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  long answered = 0;
};

Measured percentiles(std::vector<double>& lat_us, double wall_s) {
  Measured m;
  m.answered = static_cast<long>(lat_us.size());
  m.qps = static_cast<double>(lat_us.size()) / wall_s;
  std::sort(lat_us.begin(), lat_us.end());
  const auto at = [&](double q) {
    const std::size_t i = static_cast<std::size_t>(
        q * static_cast<double>(lat_us.size() - 1));
    return lat_us[i];
  };
  m.p50_us = at(0.50);
  m.p99_us = at(0.99);
  return m;
}

/// G closed-loop clients over `fn(request index) -> predicted class`;
/// returns per-request latencies and overall QPS.
template <typename Fn>
Measured drive(int n_clients, int reqs_per_client, const Fn& fn) {
  std::vector<std::vector<double>> lat(
      static_cast<std::size_t>(n_clients));
  const auto t0 = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < n_clients; ++c) {
    clients.emplace_back([&, c] {
      auto& mine = lat[static_cast<std::size_t>(c)];
      mine.reserve(static_cast<std::size_t>(reqs_per_client));
      for (int i = 0; i < reqs_per_client; ++i) {
        const int req = c * reqs_per_client + i;
        const auto s = Clock::now();
        (void)fn(req);
        mine.push_back(std::chrono::duration<double, std::micro>(
                           Clock::now() - s)
                           .count());
      }
    });
  }
  for (auto& t : clients) t.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  std::vector<double> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  return percentiles(all, wall_s);
}

}  // namespace

int main() {
  const int n_clients = pmlp::bench::env_int("PMLP_SERVE_CLIENTS", 4);
  const int n_reqs = pmlp::bench::env_int("PMLP_SERVE_REQS", 2000);
  const int n_models = pmlp::bench::env_int("PMLP_SERVE_MODELS", 8);
  const int n_threads = pmlp::bench::env_int("PMLP_THREADS", 0);

  // Paper-shaped front: BreastCancer topology, one model per Pareto point.
  const pmlp::mlp::Topology topo{{10, 3, 2}};
  const fs::path dir =
      fs::temp_directory_path() /
      ("pmlp_bench_serve_" + std::to_string(::getpid()));
  {
    std::vector<core::FrontEntry> front;
    for (int i = 0; i < n_models; ++i) {
      front.push_back({"", 0.9 - 0.01 * i, 1.0 + i, 0.5 + 0.1 * i, true,
                       make_model(topo, 1000 + static_cast<std::uint64_t>(i))});
    }
    core::save_front_dir(front, dir.string());
  }

  // Shared request tape: both sections answer the exact same requests.
  const int total = n_clients * n_reqs;
  Load load;
  load.selectors.reserve(static_cast<std::size_t>(total));
  load.codes.reserve(static_cast<std::size_t>(total));
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<int> code(0, 15);
  std::uniform_int_distribution<int> which(0, n_models - 1);
  for (int i = 0; i < total; ++i) {
    char name[40];
    std::snprintf(name, sizeof name, "front_%03d.model", which(rng));
    load.selectors.emplace_back(name);
    std::vector<std::uint8_t> c(static_cast<std::size_t>(topo.n_inputs()));
    for (auto& v : c) v = static_cast<std::uint8_t>(code(rng));
    load.codes.push_back(std::move(c));
  }

  core::FrontServer server(dir.string(),
                           {.n_threads = n_threads, .max_batch = 64});
  std::printf("ThreadsUsed %d\n", server.pool_size());

  // Naive architecture: one std::thread + one fresh EvalWorkspace per
  // request, over the same precompiled nets (the compile is NOT charged to
  // the naive path — only the per-request serving overhead is).
  const auto entries = core::load_front_dir(dir.string());
  std::vector<core::CompiledNet> nets;
  nets.reserve(entries.size());
  for (const auto& e : entries) nets.emplace_back(e.model);
  const auto find_net = [&](const std::string& file) -> const core::CompiledNet& {
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].file == file) return nets[i];
    }
    return nets.front();
  };
  auto naive = drive(n_clients, n_reqs, [&](int req) {
    int predicted = -1;
    std::thread worker([&] {
      core::EvalWorkspace ws;  // fresh per request, like the thread
      predicted = find_net(load.selectors[static_cast<std::size_t>(req)])
                      .predict(load.codes[static_cast<std::size_t>(req)], ws);
    });
    worker.join();
    return predicted;
  });

  // Batched server path: same tape through FrontServer::classify.
  auto served = drive(n_clients, n_reqs, [&](int req) {
    const auto reply =
        server.classify(load.selectors[static_cast<std::size_t>(req)],
                        load.codes[static_cast<std::size_t>(req)]);
    return reply.predicted;
  });

  // Cross-check: the served answers must match the oracle on a sample.
  {
    core::EvalWorkspace ws;
    for (int req = 0; req < std::min(total, 256); ++req) {
      const auto reply =
          server.classify(load.selectors[static_cast<std::size_t>(req)],
                          load.codes[static_cast<std::size_t>(req)]);
      const int want =
          find_net(load.selectors[static_cast<std::size_t>(req)])
              .predict(load.codes[static_cast<std::size_t>(req)], ws);
      if (!reply.ok || reply.predicted != want) {
        std::fprintf(stderr, "error: served answer diverged from oracle\n");
        fs::remove_all(dir);
        return 1;
      }
    }
  }

  std::printf("ServeBench naive %.1f %.2f %.2f\n", naive.qps, naive.p50_us,
              naive.p99_us);
  std::printf("ServeBench served %.1f %.2f %.2f\n", served.qps,
              served.p50_us, served.p99_us);
  std::printf("ServeSpeedup %.3f\n", served.qps / std::max(naive.qps, 1e-9));
  std::printf("ServeBatchFill %.3f\n", server.stats().batch_fill());
  std::printf("ServeSimd %s %d\n",
              core::simd_isa_name(core::active_simd_isa()),
              core::CompiledNet::kBlockSamples);
  fs::remove_all(dir);
  return 0;
}
