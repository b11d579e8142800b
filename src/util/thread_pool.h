#ifndef LAKE_UTIL_THREAD_POOL_H_
#define LAKE_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace lake {

/// Fixed-size worker pool used for parallel index construction, batch query
/// evaluation, and the serving executor. Tasks are void() callables; callers
/// either coordinate results through their own synchronization (Submit) or
/// take the std::future completion handle (Async).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains queued tasks and joins the workers (idempotent; the destructor
  /// calls it). Tasks submitted afterwards run inline on the caller.
  void Shutdown();

  /// Enqueues a task. Safe to call from any thread, including workers.
  /// If the pool is already shutting down the task runs inline on the
  /// calling thread instead of being enqueued: before this guard a task
  /// submitted concurrently with destruction could be pushed after the
  /// workers had drained and exited, so it never ran and Wait() hung.
  void Submit(std::function<void()> task);

  /// Submit variant returning a completion handle: runs `fn` on the pool
  /// and delivers its result (or void) through the future. During shutdown
  /// the task runs inline, so the future is always satisfied.
  template <typename F, typename R = std::invoke_result_t<std::decay_t<F>&>>
  std::future<R> Async(F&& fn) {
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    Submit([task]() { (*task)(); });
    return future;
  }

  /// Blocks until all submitted tasks (including tasks submitted by tasks)
  /// have completed.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  /// Runs fn(i) for i in [0, n), partitioned across the pool, and waits.
  /// Falls back to inline execution for tiny inputs.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_cv_;
  std::condition_variable done_cv_;
  size_t inflight_ = 0;
  bool stop_ = false;
};

}  // namespace lake

#endif  // LAKE_UTIL_THREAD_POOL_H_
