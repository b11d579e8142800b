#include "util/thread_pool.h"

#include <algorithm>

namespace lake {

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  task_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!stop_) {
      tasks_.push(std::move(task));
      ++inflight_;
      // Notify while holding the lock: the destructor must acquire mu_
      // before tearing the pool down, so the condition variable cannot be
      // destroyed while this signal is still in flight.
      task_cv_.notify_one();
      return;
    }
  }
  // Pool is shutting down: run inline so the task (and any future attached
  // to it) still completes instead of being silently dropped.
  task();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return inflight_ == 0; });
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  const size_t threads = workers_.size();
  if (n <= 1 || threads <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const size_t chunks = std::min(n, threads * 4);
  const size_t per = (n + chunks - 1) / chunks;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t begin = c * per;
    const size_t end = std::min(n, begin + per);
    if (begin >= end) break;
    Submit([begin, end, &fn] {
      for (size_t i = begin; i < end; ++i) fn(i);
    });
  }
  Wait();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--inflight_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace lake
