#include "pmlp/core/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace pmlp::core {

int resolve_n_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int n_threads) {
  const int n = resolve_n_threads(n_threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.push(std::move(job));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // stopping_ and drained
      job = std::move(jobs_.front());
      jobs_.pop();
    }
    job();
  }
}

std::unique_ptr<ThreadPool> make_pool(int n_threads) {
  const int n = resolve_n_threads(n_threads);
  return n == 1 ? nullptr : std::make_unique<ThreadPool>(n);
}

void parallel_for(
    ThreadPool* pool, std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn,
    std::size_t min_per_chunk) {
  if (n == 0) return;
  const std::size_t cap =
      std::max<std::size_t>(1, n / std::max<std::size_t>(1, min_per_chunk));
  const auto chunks =
      std::min<std::size_t>(static_cast<std::size_t>(pool_size(pool)), cap);
  if (chunks <= 1) {
    // Serial, degenerate pool or tiny range: run inline, exceptions flow
    // naturally.
    fn(0, 0, n);
    return;
  }
  std::vector<std::future<void>> pending;
  pending.reserve(chunks);
  for (std::size_t k = 0; k < chunks; ++k) {
    const std::size_t begin = n * k / chunks;
    const std::size_t end = n * (k + 1) / chunks;
    pending.push_back(
        pool->submit([&fn, k, begin, end] { fn(k, begin, end); }));
  }
  std::exception_ptr first_error;
  for (auto& fut : pending) {
    try {
      fut.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace pmlp::core
