// `pmlp serve`: a long-lived inference server over saved Pareto fronts.
//
// A FrontServer loads a --save-front directory (or a campaign checkpoint
// tree — see load_front_any in serialize.hpp) and compiles every model into
// a CompiledNet once at load time. Classify requests are answered by the
// batched evaluation engine: requests queue up, a dispatcher drains the
// queue into batches (up to ServeConfig::max_batch at a time), groups each
// batch by resolved model, gathers every group's feature codes into one
// contiguous arena, and fans the resulting sample blocks out over the
// shared ThreadPool as CompiledNet::predict_batch calls (SIMD layer sweeps
// — see eval_kernels.hpp), where every worker reuses its own EvalWorkspace
// — so the per-request execution path performs zero allocations after
// warmup, exactly like the GA hot path, and answers stay bit-identical to
// the per-request predict() oracle the serve tests assert against.
//
// The loaded front is an immutable snapshot behind a shared_ptr: reload()
// reads the directory again and atomically swaps the pointer, and every
// batch resolves and evaluates against the single snapshot it grabbed at
// dispatch time. A client hammering the server across a reload therefore
// sees answers from the old front or the new front, never a mixture, and
// a reload that fails to parse leaves the old front serving.
//
// The socket layer is a line protocol over a localhost TCP socket, one
// request or command per line:
//
//   <selector> <code> <code> ...   classify a quantized feature vector
//                                  -> "ok <file> <class>" | "err <reason>"
//   models                         -> "ok models <k> <file>..."
//   reload                         -> "ok reload <k>" | "err <reason>"
//   stop                           -> "ok stop", then a graceful shutdown
//
// A line may be at most FrontServer::kMaxLineBytes long; past that the
// server replies "err line too long" and closes the connection.
//
// Selectors resolve against the index metadata (exact, max_digits10 values):
//
//   front_000.model                     explicit file name
//   best-accuracy-under-area=<cm2>      max accuracy with area_cm2 <= X
//                                       (ties: smaller area, then index order)
//   best-area-over-accuracy=<acc>       min area with test_accuracy >= X
//                                       (ties: higher accuracy, then order)
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "pmlp/core/eval_engine.hpp"
#include "pmlp/core/serialize.hpp"
#include "pmlp/core/thread_pool.hpp"

namespace pmlp::core {

struct ServeConfig {
  int n_threads = 0;   ///< worker pool size (0 = all hardware threads)
  int max_batch = 64;  ///< max requests drained into one dispatch
  int port = 0;        ///< TCP port for listen(); 0 = OS-assigned
};

/// One classify answer. `file` is the resolved index entry, so a client can
/// tell which model (and which front generation) produced the class.
struct ServeReply {
  bool ok = false;
  std::string file;
  int predicted = -1;
  std::string error;  ///< set when !ok
};

/// Monotonic counters since construction (thread-safe snapshot).
struct ServeStats {
  long requests = 0;      ///< classify requests answered
  long batches = 0;       ///< dispatches (batches of 1..max_batch)
  long max_batch = 0;     ///< largest batch dispatched
  long reloads = 0;       ///< successful front swaps
  long connections = 0;   ///< sockets accepted
  [[nodiscard]] double batch_fill() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(requests) /
                              static_cast<double>(batches);
  }
};

/// Index metadata of one served model (no weights — for listings).
struct ServedModelInfo {
  std::string file;
  double test_accuracy = 0.0;
  double area_cm2 = 0.0;
  double power_mw = 0.0;
};

class FrontServer {
 public:
  /// Longest request line a connection may send (newline excluded).
  static constexpr std::size_t kMaxLineBytes = 64 * 1024;

  /// Loads `front_dir` (throws like load_front_any on a bad artifact set)
  /// and starts the worker pool + batching dispatcher. The server answers
  /// submit()/classify() immediately; sockets only after listen().
  explicit FrontServer(std::string front_dir, ServeConfig cfg = {});
  ~FrontServer();

  FrontServer(const FrontServer&) = delete;
  FrontServer& operator=(const FrontServer&) = delete;

  /// Enqueue one classify request; the future resolves after the batch it
  /// lands in executes. Never throws on a bad request — errors come back
  /// in the reply so one malformed line cannot kill a connection.
  [[nodiscard]] std::future<ServeReply> submit(std::string selector,
                                               std::vector<std::uint8_t> codes);
  /// Synchronous convenience wrapper over submit().
  [[nodiscard]] ServeReply classify(const std::string& selector,
                                    std::vector<std::uint8_t> codes);

  /// Re-read the front directory and atomically swap it in; returns the new
  /// model count. Throws (and keeps the old front serving) on failure.
  std::size_t reload();

  /// Metadata of the currently served front, index order.
  [[nodiscard]] std::vector<ServedModelInfo> models() const;
  [[nodiscard]] const std::string& front_dir() const { return front_dir_; }
  [[nodiscard]] int pool_size() const { return pool_.size(); }
  [[nodiscard]] ServeStats stats() const;

  // ------------------------------------------------------------- socket API
  /// Bind + listen on 127.0.0.1:cfg.port. Throws std::runtime_error on
  /// bind failure. After this, port() reports the actual port.
  void listen();
  [[nodiscard]] int port() const { return port_; }
  /// Accept/serve until a stop command or request_stop(); joins every
  /// connection thread before returning. Requires listen() first.
  void serve_forever();
  /// Ask serve_forever() to wind down (safe from a signal handler: one
  /// relaxed atomic store; the accept/read loops poll it).
  void request_stop() { stopping_.store(true); }
  [[nodiscard]] bool stopping() const { return stopping_.load(); }

 private:
  struct Served {
    FrontEntry entry;
    CompiledNet net;
  };
  /// Immutable snapshot of one loaded front generation.
  struct Front {
    std::vector<Served> models;
    [[nodiscard]] const Served* resolve(const std::string& selector,
                                        std::string* error) const;
  };
  struct Pending {
    std::string selector;
    std::vector<std::uint8_t> codes;
    std::promise<ServeReply> promise;
  };
  /// One predict_batch dispatch unit: `count` grouped requests
  /// (batch_order_[first .. first+count)) of one model, whose gathered
  /// feature codes start at arena_[arena].
  struct BlockTask {
    const Served* model = nullptr;
    std::size_t arena = 0;
    std::size_t first = 0;
    int count = 0;
  };

  [[nodiscard]] static std::shared_ptr<const Front> load(
      const std::string& dir);
  [[nodiscard]] std::shared_ptr<const Front> snapshot() const;
  void dispatch_loop();
  void run_batch(std::vector<Pending>& batch);
  void handle_connection(int fd);
  [[nodiscard]] std::string handle_line(const std::string& line);

  std::string front_dir_;
  ServeConfig cfg_;
  ThreadPool pool_;
  std::vector<EvalWorkspace> workspaces_;  ///< one per pool worker

  // run_batch scratch (dispatcher thread only); capacity persists across
  // batches, so the steady-state eval path stays allocation-free.
  std::vector<std::uint8_t> arena_;        ///< gathered codes, model-grouped
  std::vector<std::int32_t> batch_preds_;  ///< one class per grouped request
  std::vector<std::size_t> batch_order_;   ///< grouped position -> batch index
  std::vector<BlockTask> block_tasks_;

  mutable std::mutex front_mutex_;
  std::shared_ptr<const Front> front_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  std::thread dispatcher_;
  bool dispatcher_stop_ = false;  ///< guarded by queue_mutex_

  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  int port_ = 0;
  std::mutex conn_mutex_;
  std::vector<std::thread> connections_;

  mutable std::mutex stats_mutex_;
  ServeStats stats_;
};

}  // namespace pmlp::core
