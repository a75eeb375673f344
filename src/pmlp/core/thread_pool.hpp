// A small fixed-size worker pool for the hot fitness-evaluation path.
// Workers are started once and reused across generations, replacing the
// seed's spawn-join-per-batch threading. Tasks start in FIFO submission
// order; parallel_for partitions an index range statically so that result
// placement (and therefore the whole NSGA-II run) is independent of thread
// scheduling.
//
// Layers do not own pools. A flow builds one with make_pool() and lends it
// to every stage as a `ThreadPool*`; null means "run serially on the
// caller", and the free parallel_for() below accepts either.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace pmlp::core {

/// Resolve a user-facing thread-count knob: 0 means "auto" (all hardware
/// threads), anything else is clamped to >= 1.
[[nodiscard]] int resolve_n_threads(int requested);

class ThreadPool {
 public:
  /// Starts `n_threads` workers; 0 means hardware_concurrency(). A pool of
  /// size 1 still runs tasks on its single worker (submission order == start
  /// order), which the tests rely on.
  explicit ThreadPool(int n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueue a task; exceptions propagate through the returned future.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    enqueue([task] { (*task)(); });
    return fut;
  }

 private:
  void enqueue(std::function<void()> job);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> jobs_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// The one way a thread setting becomes a pool: resolve_n_threads(n_threads)
/// workers, or null when that resolves to 1 (serial, no threads started).
[[nodiscard]] std::unique_ptr<ThreadPool> make_pool(int n_threads);

/// Workers a borrowed pool offers: its size, or 1 when it is null.
[[nodiscard]] inline int pool_size(const ThreadPool* pool) {
  return pool == nullptr ? 1 : pool->size();
}

/// Run fn(chunk, begin, end) over [0, n) split into pool_size(pool)
/// contiguous chunks and block until done; a null pool runs on the caller.
/// Chunk k always covers the same static subrange of [0, n) for a given
/// pool size and threshold, so a caller can hand each chunk its own scratch
/// state without touching the determinism contract. The first exception
/// thrown by any chunk is rethrown here. The calling thread only waits —
/// chunks run on the workers. `min_per_chunk` is a small-n serial fallback:
/// the range is never split below that many items per chunk, and when that
/// leaves a single chunk the call runs inline, skipping pool dispatch when
/// the per-item work cannot amortize it.
void parallel_for(
    ThreadPool* pool, std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn,
    std::size_t min_per_chunk = 1);

}  // namespace pmlp::core
