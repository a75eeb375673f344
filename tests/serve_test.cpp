// Contract of the `pmlp serve` subsystem: every answer the server gives must
// be bit-identical to offline CompiledNet evaluation of the same model,
// selector queries must resolve against the exact (max_digits10) index
// metadata, concurrent clients must never perturb each other's answers, and
// a reload() racing live traffic must answer every request from exactly one
// front generation (old or new, never a mixture). The front loaders
// themselves must reject any directory whose artifacts don't vouch for each
// other (stale models, missing files, duplicates).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "pmlp/core/chromosome.hpp"
#include "pmlp/core/eval_engine.hpp"
#include "pmlp/core/serialize.hpp"
#include "pmlp/core/serve.hpp"
#include "pmlp/core/simd.hpp"
#include "flow_test_util.hpp"

namespace core = pmlp::core;
namespace mlp = pmlp::mlp;
namespace fs = std::filesystem;
using pmlp::test::TempDir;

namespace {

/// Deterministic non-trivial model: random in-bounds genes, ~40% of masks
/// fully pruned (the shape evolved fronts actually have), decoded through
/// the codec so QReLU shifts are current.
core::ApproxMlp make_model(const mlp::Topology& topo, std::uint64_t seed) {
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

struct IndexRow {
  double accuracy;
  double area;
  double power;
};

/// Write a front directory through core::save_front_dir, the CLI's
/// --save-front writer: one model file per row plus an exact-precision
/// index.tsv.
void write_front_dir(const fs::path& dir, const mlp::Topology& topo,
                     const std::vector<IndexRow>& rows,
                     std::uint64_t seed_base) {
  std::vector<core::FrontEntry> entries;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    entries.push_back({"", rows[i].accuracy, rows[i].area, rows[i].power, true,
                       make_model(topo, seed_base + i)});
  }
  core::save_front_dir(entries, dir.string());
}

std::vector<std::uint8_t> random_codes(int n, std::mt19937_64& rng) {
  std::uniform_int_distribution<int> code(0, 15);
  std::vector<std::uint8_t> codes;
  codes.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    codes.push_back(static_cast<std::uint8_t>(code(rng)));
  }
  return codes;
}

const mlp::Topology kTopo{{6, 5, 3}};

}  // namespace

// ----------------------------------------------------------- front loaders

TEST(LoadFrontDir, RoundTripsExactMetadata) {
  TempDir tmp("pmlp_serve", "roundtrip");
  // Values with no short decimal representation: only max_digits10 output
  // survives a round trip bit-exactly.
  const std::vector<IndexRow> rows = {{0.62857142857142856, 1.0 / 3.0, 0.7},
                                      {2.0 / 3.0, 0.1, 0.2}};
  write_front_dir(tmp.path, kTopo, rows, 1);
  const auto entries = core::load_front_dir(tmp.path.string());
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].file, "front_000.model");
  EXPECT_EQ(entries[0].test_accuracy, 0.62857142857142856);
  EXPECT_EQ(entries[0].area_cm2, 1.0 / 3.0);
  EXPECT_EQ(entries[0].power_mw, 0.7);
  EXPECT_TRUE(entries[0].functional_match);
  EXPECT_EQ(entries[1].test_accuracy, 2.0 / 3.0);
  // The parsed models are the artifacts on disk, bit for bit.
  EXPECT_EQ(core::to_text(entries[0].model),
            core::to_text(make_model(kTopo, 1)));
}

TEST(LoadFrontDir, RejectsStaleUnindexedModel) {
  TempDir tmp("pmlp_serve", "stale");
  write_front_dir(tmp.path, kTopo, {{0.9, 1.0, 1.0}}, 1);
  // A leftover from an earlier, larger front: present on disk, absent from
  // the index. Globbing consumers would serve it; the loader must reject.
  core::save_model_file(make_model(kTopo, 99),
                        (tmp.path / "front_042.model").string());
  EXPECT_THROW((void)core::load_front_dir(tmp.path.string()),
               std::invalid_argument);
}

TEST(LoadFrontDir, RejectsMissingIndexedFile) {
  TempDir tmp("pmlp_serve", "missing");
  write_front_dir(tmp.path, kTopo, {{0.9, 1.0, 1.0}, {0.8, 0.5, 0.5}}, 1);
  fs::remove(tmp.path / "front_001.model");
  EXPECT_THROW((void)core::load_front_dir(tmp.path.string()),
               std::invalid_argument);
}

TEST(LoadFrontDir, RejectsDuplicateIndexEntry) {
  TempDir tmp("pmlp_serve", "dup");
  write_front_dir(tmp.path, kTopo, {{0.9, 1.0, 1.0}}, 1);
  std::ofstream index(tmp.path / "index.tsv", std::ios::app);
  index << "front_000.model\t0.5\t1\t1\t1\n";
  index.close();
  EXPECT_THROW((void)core::load_front_dir(tmp.path.string()),
               std::invalid_argument);
}

TEST(LoadFrontDir, RejectsCorruptModelAndBadHeader) {
  TempDir tmp("pmlp_serve", "corrupt");
  write_front_dir(tmp.path, kTopo, {{0.9, 1.0, 1.0}}, 1);
  std::ofstream(tmp.path / "front_000.model") << "garbage\n";
  EXPECT_THROW((void)core::load_front_dir(tmp.path.string()),
               std::invalid_argument);
  std::ofstream(tmp.path / "index.tsv") << "not\ta\tfront\tindex\n";
  EXPECT_THROW((void)core::load_front_dir(tmp.path.string()),
               std::invalid_argument);
}

TEST(LoadFrontTree, ServesCampaignCheckpointFlows) {
  TempDir tmp("pmlp_serve", "tree");
  // Two completed flows and one that has not reached the hardware stage:
  // the tree loader serves the finished ones and skips the laggard.
  for (const char* flow : {"ds_s1", "ds_s2"}) {
    fs::create_directories(tmp.path / flow);
    std::vector<core::HwEvaluatedPoint> pts(2);
    pts[0].model = make_model(kTopo, 11);
    pts[0].test_accuracy = 0.9;
    pts[0].cost.area_mm2 = 100.0;
    pts[1].model = make_model(kTopo, 12);
    pts[1].test_accuracy = 0.8;
    pts[1].cost.area_mm2 = 50.0;
    std::ofstream os(tmp.path / flow / "evaluated.txt");
    core::save_evaluated_points(pts, os);
  }
  fs::create_directories(tmp.path / "ds_s3");  // no evaluated.txt yet
  const auto entries = core::load_front_any(tmp.path.string());
  ASSERT_EQ(entries.size(), 4u);  // both points are Pareto (acc/area trade)
  EXPECT_EQ(entries[0].file, "ds_s1/front_000.model");
  EXPECT_EQ(entries[2].file, "ds_s2/front_000.model");
  // Virtual names resolve as explicit selectors through a server.
  core::FrontServer server(tmp.path.string(), {.n_threads = 1});
  std::mt19937_64 rng(7);
  const auto reply =
      server.classify("ds_s2/front_001.model", random_codes(6, rng));
  ASSERT_TRUE(reply.ok) << reply.error;
  EXPECT_EQ(reply.file, "ds_s2/front_001.model");
}

// ------------------------------------------------------------ serve oracle

TEST(FrontServer, AnswersBitIdenticalToCompiledNetForEveryModel) {
  TempDir tmp("pmlp_serve", "oracle");
  const std::vector<IndexRow> rows = {
      {0.9, 3.0, 1.0}, {0.85, 2.0, 0.8}, {0.7, 1.0, 0.4}};
  write_front_dir(tmp.path, kTopo, rows, 100);
  const auto entries = core::load_front_dir(tmp.path.string());
  core::FrontServer server(tmp.path.string(), {.n_threads = 2});
  std::mt19937_64 rng(42);
  core::EvalWorkspace ws;
  for (const auto& e : entries) {
    const core::CompiledNet oracle(e.model);
    for (int s = 0; s < 64; ++s) {
      const auto codes = random_codes(kTopo.layers.front(), rng);
      const auto reply = server.classify(e.file, codes);
      ASSERT_TRUE(reply.ok) << reply.error;
      EXPECT_EQ(reply.file, e.file);
      EXPECT_EQ(reply.predicted, oracle.predict(codes, ws));
    }
  }
}

TEST(FrontServer, ForcedScalarAndSimdDispatchAnswerIdentically) {
  // The same mixed-model request tape answered under forced-scalar dispatch
  // and under the machine's best ISA must be bit-identical request by
  // request, and both must match the offline per-sample oracle. (On a
  // scalar-only machine both sections dispatch scalar — the tape/oracle
  // comparison still holds.)
  TempDir tmp("pmlp_serve", "simd");
  const std::vector<IndexRow> rows = {
      {0.9, 3.0, 1.0}, {0.85, 2.0, 0.8}, {0.7, 1.0, 0.4}};
  write_front_dir(tmp.path, kTopo, rows, 500);
  const auto entries = core::load_front_dir(tmp.path.string());

  constexpr int kTape = 160;  // > max_batch: several multi-model batches
  std::mt19937_64 rng(77);
  std::vector<std::string> selectors;
  std::vector<std::vector<std::uint8_t>> codes;
  for (int i = 0; i < kTape; ++i) {
    selectors.push_back(
        entries[static_cast<std::size_t>(i) % entries.size()].file);
    codes.push_back(random_codes(kTopo.layers.front(), rng));
  }

  const auto run_tape = [&](core::SimdIsa isa) {
    const auto prev = core::active_simd_isa();
    core::set_simd_isa(isa);
    core::FrontServer server(tmp.path.string(),
                             {.n_threads = 2, .max_batch = 32});
    std::vector<std::future<core::ServeReply>> futures;
    for (int i = 0; i < kTape; ++i) {
      futures.push_back(server.submit(selectors[static_cast<std::size_t>(i)],
                                      codes[static_cast<std::size_t>(i)]));
    }
    std::vector<int> answers;
    for (auto& f : futures) {
      const auto reply = f.get();
      EXPECT_TRUE(reply.ok) << reply.error;
      answers.push_back(reply.predicted);
    }
    core::set_simd_isa(prev);
    return answers;
  };

  const auto scalar = run_tape(core::SimdIsa::kScalar);
  const auto simd = run_tape(core::detect_simd_isa());
  ASSERT_EQ(scalar.size(), simd.size());
  core::EvalWorkspace ws;
  for (int i = 0; i < kTape; ++i) {
    const auto& e = entries[static_cast<std::size_t>(i) % entries.size()];
    const core::CompiledNet oracle(e.model);
    const int want =
        oracle.predict(codes[static_cast<std::size_t>(i)], ws);
    ASSERT_EQ(scalar[static_cast<std::size_t>(i)], want) << "request " << i;
    ASSERT_EQ(simd[static_cast<std::size_t>(i)], want) << "request " << i;
  }
}

TEST(FrontServer, SelectorQueriesResolveOnExactMetadata) {
  TempDir tmp("pmlp_serve", "selector");
  const std::vector<IndexRow> rows = {
      {0.9, 10.0, 1.0}, {0.95, 20.0, 2.0}, {0.8, 5.0, 0.5}};
  write_front_dir(tmp.path, kTopo, rows, 200);
  core::FrontServer server(tmp.path.string(), {.n_threads = 1});
  std::mt19937_64 rng(1);
  const auto codes = random_codes(kTopo.layers.front(), rng);
  // Max accuracy under an area cap.
  EXPECT_EQ(server.classify("best-accuracy-under-area=15", codes).file,
            "front_000.model");
  EXPECT_EQ(server.classify("best-accuracy-under-area=25", codes).file,
            "front_001.model");
  EXPECT_EQ(server.classify("best-accuracy-under-area=5", codes).file,
            "front_002.model");
  const auto none = server.classify("best-accuracy-under-area=1", codes);
  EXPECT_FALSE(none.ok);
  // Min area over an accuracy floor.
  EXPECT_EQ(server.classify("best-area-over-accuracy=0.85", codes).file,
            "front_000.model");
  EXPECT_EQ(server.classify("best-area-over-accuracy=0.95", codes).file,
            "front_001.model");
  EXPECT_EQ(server.classify("best-area-over-accuracy=0.5", codes).file,
            "front_002.model");
  EXPECT_FALSE(server.classify("best-area-over-accuracy=0.99", codes).ok);
  // Explicit names and garbage.
  EXPECT_EQ(server.classify("front_001.model", codes).file,
            "front_001.model");
  EXPECT_FALSE(server.classify("front_077.model", codes).ok);
  EXPECT_FALSE(server.classify("best-accuracy-under-area=abc", codes).ok);
}

TEST(FrontServer, RejectsMalformedRequestsWithoutDying) {
  TempDir tmp("pmlp_serve", "badreq");
  write_front_dir(tmp.path, kTopo, {{0.9, 1.0, 1.0}}, 300);
  core::FrontServer server(tmp.path.string(), {.n_threads = 1});
  std::mt19937_64 rng(1);
  // Wrong code count.
  auto r = server.classify("front_000.model", random_codes(3, rng));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("expected 6"), std::string::npos) << r.error;
  // Out-of-range code for 4-bit inputs.
  std::vector<std::uint8_t> wide(6, 200);
  r = server.classify("front_000.model", wide);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("exceeds input range"), std::string::npos)
      << r.error;
  // The server still answers a good request afterwards.
  EXPECT_TRUE(server.classify("front_000.model", random_codes(6, rng)).ok);
}

TEST(FrontServer, ConcurrentClientsGetDeterministicAnswers) {
  TempDir tmp("pmlp_serve", "concurrent");
  const std::vector<IndexRow> rows = {
      {0.9, 3.0, 1.0}, {0.85, 2.0, 0.8}, {0.7, 1.0, 0.4}};
  write_front_dir(tmp.path, kTopo, rows, 400);
  const auto entries = core::load_front_dir(tmp.path.string());
  core::FrontServer server(tmp.path.string(), {.n_threads = 4, .max_batch = 8});
  constexpr int kClients = 8;
  constexpr int kRequests = 100;
  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(c) + 1);
      core::EvalWorkspace ws;
      for (int i = 0; i < kRequests; ++i) {
        const auto& e = entries[static_cast<std::size_t>(i) % entries.size()];
        const auto codes = random_codes(kTopo.layers.front(), rng);
        const auto reply = server.classify(e.file, codes);
        const core::CompiledNet oracle(e.model);
        if (!reply.ok || reply.file != e.file ||
            reply.predicted != oracle.predict(codes, ws)) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const auto stats = server.stats();
  EXPECT_EQ(stats.requests, kClients * kRequests);
  EXPECT_GE(stats.batches, 1);
}

// ----------------------------------------------------------------- reload

TEST(FrontServer, ReloadMidTrafficNeverMixesFronts) {
  TempDir tmp("pmlp_serve", "reload");
  const fs::path dir = tmp.path / "front";
  // Generation A: two models; generation B: ONE model with different
  // weights under the same name (a rerun with a smaller front).
  write_front_dir(dir, kTopo, {{0.9, 3.0, 1.0}, {0.8, 1.0, 0.4}}, 500);
  const auto gen_a = core::load_front_dir(dir.string());
  core::FrontServer server(dir.string(), {.n_threads = 2, .max_batch = 16});

  // Pre-compute both generations' oracle answers for a fixed probe vector
  // with the always-resolvable selector.
  std::mt19937_64 rng(9);
  const auto probe = random_codes(kTopo.layers.front(), rng);
  const std::string selector = "best-accuracy-under-area=100";
  core::EvalWorkspace ws;
  const core::CompiledNet oracle_a(gen_a[0].model);  // acc 0.9 wins in A
  const int answer_a = oracle_a.predict(probe, ws);

  std::atomic<bool> done{false};
  std::atomic<int> invalid{0};
  std::atomic<long> seen_b{0};
  int answer_b = -1;  // filled in below before the swap can happen
  std::promise<void> b_ready;
  auto b_ready_fut = b_ready.get_future();
  std::thread hammer([&] {
    b_ready_fut.wait();
    while (!done.load()) {
      const auto reply = server.classify(selector, probe);
      if (!reply.ok) {
        ++invalid;
        continue;
      }
      // Every answer must be exactly one generation's (file, class) pair.
      const bool is_a =
          reply.file == "front_000.model" && reply.predicted == answer_a;
      const bool is_b =
          reply.file == "front_000.model" && reply.predicted == answer_b;
      if (is_b && !is_a) ++seen_b;
      if (!is_a && !is_b) ++invalid;
    }
  });

  // Publish generation B atomically the way the CLI does (tmp + rename).
  const fs::path tmp_dir = tmp.path / "front.tmp";
  write_front_dir(tmp_dir, kTopo, {{0.7, 0.5, 0.2}}, 777);
  {
    const auto gen_b = core::load_front_dir(tmp_dir.string());
    core::EvalWorkspace ws_b;
    const core::CompiledNet oracle_b(gen_b[0].model);
    answer_b = oracle_b.predict(probe, ws_b);
  }
  // Make the probe actually distinguish generations when the class agrees:
  // at minimum the models differ, so re-check pairs via model text.
  b_ready.set_value();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const fs::path old_dir = tmp.path / "front.old";
  fs::rename(dir, old_dir);
  fs::rename(tmp_dir, dir);
  fs::remove_all(old_dir);
  ASSERT_EQ(server.reload(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  done.store(true);
  hammer.join();
  EXPECT_EQ(invalid.load(), 0);
  // After the reload completes, answers come from generation B only.
  const auto after = server.classify(selector, probe);
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.predicted, answer_b);
  EXPECT_EQ(server.stats().reloads, 1);
  // A failed reload keeps the old front serving.
  std::ofstream(dir / "front_042.model") << "stale\n";
  EXPECT_THROW((void)server.reload(), std::invalid_argument);
  EXPECT_TRUE(server.classify(selector, probe).ok);
  EXPECT_EQ(server.stats().reloads, 1);
}

// ----------------------------------------------------------------- socket

namespace {

/// Minimal line-protocol client: send `lines`, read until `n_replies`
/// newline-terminated replies arrived (3 s deadline).
std::vector<std::string> socket_session(int port,
                                        const std::vector<std::string>& lines,
                                        std::size_t n_replies) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  std::string out;
  for (const auto& l : lines) out += l + "\n";
  EXPECT_EQ(::send(fd, out.data(), out.size(), 0),
            static_cast<ssize_t>(out.size()));
  std::string buf;
  char chunk[4096];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (static_cast<std::size_t>(
             std::count(buf.begin(), buf.end(), '\n')) < n_replies &&
         std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  std::vector<std::string> replies;
  std::istringstream is(buf);
  std::string line;
  while (std::getline(is, line)) replies.push_back(line);
  return replies;
}

}  // namespace

TEST(FrontServer, SocketProtocolEndToEnd) {
  TempDir tmp("pmlp_serve", "socket");
  write_front_dir(tmp.path, kTopo, {{0.9, 1.0, 1.0}}, 600);
  const auto entries = core::load_front_dir(tmp.path.string());
  core::FrontServer server(tmp.path.string(), {.n_threads = 2});
  server.listen();
  ASSERT_GT(server.port(), 0);
  std::thread serving([&] { server.serve_forever(); });

  std::mt19937_64 rng(3);
  const auto codes = random_codes(kTopo.layers.front(), rng);
  std::string classify_line = "front_000.model";
  for (auto c : codes) classify_line += " " + std::to_string(c);
  core::EvalWorkspace ws;
  const core::CompiledNet oracle(entries[0].model);
  const int expected = oracle.predict(codes, ws);

  const auto replies = socket_session(
      server.port(),
      {"models", classify_line, "bogus request", "reload", "stop"}, 5);
  ASSERT_EQ(replies.size(), 5u);
  EXPECT_EQ(replies[0], "ok models 1 front_000.model");
  EXPECT_EQ(replies[1],
            "ok front_000.model " + std::to_string(expected));
  EXPECT_EQ(replies[2].rfind("err ", 0), 0u) << replies[2];
  EXPECT_EQ(replies[3], "ok reload 1");
  EXPECT_EQ(replies[4], "ok stop");
  serving.join();  // `stop` wound the accept loop down
  EXPECT_TRUE(server.stopping());
  EXPECT_EQ(server.stats().connections, 1);
}

TEST(FrontServer, OverlongLineRefusedAndConnectionClosed) {
  TempDir tmp("pmlp_serve", "longline");
  write_front_dir(tmp.path, kTopo, {{0.9, 1.0, 1.0}}, 800);
  core::FrontServer server(tmp.path.string(), {.n_threads = 1});
  server.listen();
  std::thread serving([&] { server.serve_forever(); });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  // A server that buffers on never answers: fail on the timeout, not hang.
  const timeval timeout{3, 0};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof timeout),
            0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  // 128 KiB without a newline. The server may close mid-send, so a short
  // or failed send is expected; the reply is what counts.
  const std::string flood(128 * 1024, '7');
  std::size_t sent = 0;
  while (sent < flood.size()) {
    const ssize_t w = ::send(fd, flood.data() + sent, flood.size() - sent,
                             MSG_NOSIGNAL);
    if (w <= 0) break;
    sent += static_cast<std::size_t>(w);
  }
  std::string reply;
  char chunk[256];
  for (ssize_t n; (n = ::recv(fd, chunk, sizeof chunk, 0)) > 0;) {
    reply.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(reply, "err line too long\n");

  // The server itself keeps serving.
  const auto replies = socket_session(server.port(), {"models", "stop"}, 2);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0], "ok models 1 front_000.model");
  serving.join();
}

TEST(FrontServer, RequestStopUnblocksServeForever) {
  TempDir tmp("pmlp_serve", "stopflag");
  write_front_dir(tmp.path, kTopo, {{0.9, 1.0, 1.0}}, 700);
  core::FrontServer server(tmp.path.string(), {.n_threads = 1});
  server.listen();
  std::thread serving([&] { server.serve_forever(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.request_stop();  // what the CLI's SIGINT handler does
  serving.join();
}
