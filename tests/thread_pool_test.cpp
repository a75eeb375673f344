#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "pmlp/core/thread_pool.hpp"

namespace core = pmlp::core;

TEST(ResolveNThreads, ZeroMeansHardwareConcurrency) {
  EXPECT_GE(core::resolve_n_threads(0), 1);
  EXPECT_GE(core::resolve_n_threads(-2), 1);
}

TEST(ResolveNThreads, PositivePassesThrough) {
  EXPECT_EQ(core::resolve_n_threads(1), 1);
  EXPECT_EQ(core::resolve_n_threads(7), 7);
}

TEST(ThreadPool, AutoSizeSpawnsAtLeastOneWorker) {
  core::ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1);
}

TEST(ThreadPool, SubmitReturnsValueThroughFuture) {
  core::ThreadPool pool(2);
  auto fut = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SingleWorkerRunsTasksInSubmissionOrder) {
  core::ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> pending;
  for (int i = 0; i < 32; ++i) {
    pending.push_back(pool.submit([&order, i] { order.push_back(i); }));
  }
  for (auto& f : pending) f.get();
  std::vector<int> expected(32);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  core::ThreadPool pool(2);
  auto fut = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
  // The pool must stay usable after a task threw.
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  core::ThreadPool pool(4);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  core::parallel_for(&pool, n,
                     [&](std::size_t, std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i) {
                         hits[i].fetch_add(1);
                       }
                     });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoOp) {
  core::ThreadPool pool(4);
  bool called = false;
  for (core::ThreadPool* p : {&pool, static_cast<core::ThreadPool*>(nullptr)}) {
    core::parallel_for(p, 0, [&](std::size_t, std::size_t, std::size_t) {
      called = true;
    });
  }
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForSingleWorkerStillCovers) {
  core::ThreadPool pool(1);
  std::vector<int> hits(64, 0);
  core::parallel_for(&pool, hits.size(),
                     [&](std::size_t, std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i) ++hits[i];
                     });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForMoreWorkersThanItems) {
  core::ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  core::parallel_for(&pool, hits.size(),
                     [&](std::size_t, std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i) {
                         hits[i].fetch_add(1);
                       }
                     });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForRethrowsFirstChunkException) {
  core::ThreadPool pool(4);
  EXPECT_THROW(core::parallel_for(
                   &pool, 100,
                   [](std::size_t, std::size_t begin, std::size_t) {
                     if (begin == 0) throw std::runtime_error("chunk 0");
                   }),
               std::runtime_error);
  // Pool survives and keeps working.
  std::atomic<int> count{0};
  core::parallel_for(&pool, 10,
                     [&](std::size_t, std::size_t begin, std::size_t end) {
                       count += static_cast<int>(end - begin);
                     });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ParallelForNullPoolRunsWholeRangeOnCaller) {
  const auto caller = std::this_thread::get_id();
  int calls = 0;
  core::parallel_for(nullptr, 50,
                     [&](std::size_t chunk, std::size_t begin,
                         std::size_t end) {
                       ++calls;
                       EXPECT_EQ(std::this_thread::get_id(), caller);
                       EXPECT_EQ(chunk, 0u);
                       EXPECT_EQ(begin, 0u);
                       EXPECT_EQ(end, 50u);
                     });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelForChunksAreStatic) {
  // Chunk k covers the same subrange on every call, and the threshold caps
  // the chunk count: 10 items at >= 4 per chunk is 2 chunks on 4 workers.
  core::ThreadPool pool(4);
  std::vector<std::pair<std::size_t, std::size_t>> ranges(4);
  core::parallel_for(
      &pool, 10,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        ranges[chunk] = {begin, end};
      },
      4);
  EXPECT_EQ(ranges[0], (std::pair<std::size_t, std::size_t>{0, 5}));
  EXPECT_EQ(ranges[1], (std::pair<std::size_t, std::size_t>{5, 10}));
  EXPECT_EQ(ranges[2], (std::pair<std::size_t, std::size_t>{0, 0}));
}

TEST(MakePool, SerialSettingBuildsNoPool) {
  EXPECT_EQ(core::make_pool(1), nullptr);
  EXPECT_EQ(core::pool_size(nullptr), 1);
  const auto pool = core::make_pool(3);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->size(), 3);
  EXPECT_EQ(core::pool_size(pool.get()), 3);
  const auto automatic = core::make_pool(0);
  EXPECT_EQ(core::pool_size(automatic.get()), core::resolve_n_threads(0));
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> done{0};
  {
    core::ThreadPool pool(1);
    for (int i = 0; i < 16; ++i) {
      (void)pool.submit([&done] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++done;
      });
    }
  }  // destructor joins after the queue drains
  EXPECT_EQ(done.load(), 16);
}
