#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace lake {
namespace {

TEST(ThreadPoolTest, AsyncReturnsValue) {
  ThreadPool pool(2);
  std::future<int> f = pool.Async([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, AsyncVoidCompletes) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::future<void> f = pool.Async([&ran] { ran.fetch_add(1); });
  f.get();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTest, AsyncMoveOnlyResult) {
  ThreadPool pool(1);
  auto f = pool.Async([] { return std::make_unique<int>(7); });
  EXPECT_EQ(*f.get(), 7);
}

TEST(ThreadPoolTest, ManyAsyncTasksAllComplete) {
  ThreadPool pool(4);
  std::vector<std::future<size_t>> futures;
  futures.reserve(500);
  for (size_t i = 0; i < 500; ++i) {
    futures.push_back(pool.Async([i] { return i * i; }));
  }
  for (size_t i = 0; i < 500; ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

TEST(ThreadPoolTest, SubmitDuringShutdownStillRuns) {
  // A task submitted while the pool is tearing down must run (inline)
  // rather than being dropped, so futures are always satisfied.
  std::atomic<int> completed{0};
  std::atomic<bool> go{false};
  std::thread submitter;
  {
    ThreadPool pool(1);
    submitter = std::thread([&pool, &completed, &go] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < 100; ++i) {
        pool.Async([&completed] { completed.fetch_add(1); }).get();
      }
    });
    go.store(true);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    // Shutdown races with the submitter here; it finishes before the pool
    // is destroyed.
    pool.Shutdown();
    submitter.join();
  }
  EXPECT_EQ(completed.load(), 100);
}

TEST(ThreadPoolStressTest, ConcurrentSubmittersAndRepeatedShutdown) {
  // Several producer threads hammer short tasks into short-lived pools;
  // every future must be satisfied with the right answer. Run under TSan
  // in CI to certify the shutdown path.
  for (int round = 0; round < 20; ++round) {
    std::atomic<uint64_t> sum{0};
    constexpr int kProducers = 4;
    constexpr int kTasksPerProducer = 50;
    std::vector<std::thread> producers;
    {
      ThreadPool pool(3);
      std::atomic<bool> go{false};
      for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&pool, &sum, &go, p] {
          while (!go.load()) std::this_thread::yield();
          std::vector<std::future<int>> futures;
          for (int i = 0; i < kTasksPerProducer; ++i) {
            futures.push_back(pool.Async([p, i] { return p * 1000 + i; }));
          }
          for (auto& f : futures) {
            sum.fetch_add(static_cast<uint64_t>(f.get()));
          }
        });
      }
      go.store(true);
      // Shutdown runs while producers may still be submitting; they finish
      // before the pool is destroyed.
      pool.Shutdown();
      for (auto& t : producers) t.join();
    }
    uint64_t expect = 0;
    for (int p = 0; p < kProducers; ++p) {
      for (int i = 0; i < kTasksPerProducer; ++i) {
        expect += static_cast<uint64_t>(p * 1000 + i);
      }
    }
    EXPECT_EQ(sum.load(), expect);
  }
}

TEST(ThreadPoolTest, ParallelForStillWorks) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace lake
