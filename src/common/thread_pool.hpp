// Fixed-size worker pool used by the cloud backend's parallel-processing
// pipeline (the paper's Spark cluster stand-in) and by the evaluation harness,
// plus the task group that lets several owners share one pool.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/annotations.hpp"

namespace crowdmap::common {

/// The thread count a `parallel.threads` setting asks for: 0 means
/// std::thread::hardware_concurrency(), and the result is at least 1.
[[nodiscard]] std::size_t resolve_thread_count(std::size_t threads) noexcept;

/// Work-queue thread pool. Tasks are std::function<void()>; submit() returns
/// a future for the task's result. Destruction drains the queue then joins.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a callable; returns a future for its result.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    auto future = task->get_future();
    {
      MutexLock lock(mutex_);
      if (stopping_) throw std::runtime_error("submit on stopped ThreadPool");
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

  [[nodiscard]] std::size_t worker_count() const noexcept { return threads_.size(); }

 private:
  void worker_loop() CM_EXCLUDES(mutex_);

  Mutex mutex_;
  ConditionVariable cv_;
  std::deque<std::function<void()>> queue_ CM_GUARDED_BY(mutex_);
  std::vector<std::thread> threads_;  // written only before/after the workers run
  bool stopping_ CM_GUARDED_BY(mutex_) = false;
};

/// One owner's share of a ThreadPool (a cluster node's extraction work).
/// Tasks run on the pool's workers in submission order, but wait(),
/// pending() and the queue observer see only this group's tasks, so owners
/// sharing one pool never wait on, or get measured by, each other's work.
/// Destruction drops the group's queued tasks and waits for its running
/// ones; the pool, which must outlive the group, keeps running.
class TaskGroup {
 public:
  /// Fires with the group's queue depth after every enqueue and dequeue.
  /// Invoked OUTSIDE the group lock so a slow observer cannot serialize the
  /// workers; consecutive depths may therefore arrive out of order (feeding
  /// an obs::Gauge, which only keeps the latest value, is the intended use).
  using QueueObserver = std::function<void(std::size_t depth)>;

  explicit TaskGroup(ThreadPool& pool);
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void set_queue_observer(QueueObserver observer);

  /// Enqueues fn. An exception escaping fn is logged and dropped; it neither
  /// stops the group nor the worker that ran it.
  void submit(std::function<void()> fn);

  /// Blocks until every queued and running task of this group has finished,
  /// including tasks those tasks submit to the group. Must not be called
  /// from one of the group's own tasks.
  void wait();

  /// Tasks queued in this group and not started yet.
  [[nodiscard]] std::size_t pending() const;

  /// The shared pool, for parallel_for fan-out by the group's owner.
  [[nodiscard]] ThreadPool& pool() const noexcept { return pool_; }

 private:
  struct State;
  /// Runs the group's oldest queued task, if destruction has not dropped it.
  static void run_next(State& state);

  ThreadPool& pool_;
  /// Shared with the pool tasks that run the group's work: one may still sit
  /// in the pool's queue after the group is gone, and then finds nothing to
  /// run.
  std::shared_ptr<State> state_;
};

/// Runs fn(i) for every i in [0, n), fanning chunks of `grain` indices out
/// over `pool`'s workers while the calling thread participates as well — a
/// null pool (or a trivially small loop) degrades to the plain serial loop.
///
/// Scheduling is dynamic (a shared atomic chunk cursor), so WHICH thread runs
/// a given index is nondeterministic; callers that need deterministic results
/// must make fn(i) write only to per-index state (slot i) and merge in index
/// order afterwards. The first exception thrown by fn is captured, the
/// remaining chunks are cancelled, and the exception is rethrown here.
///
/// Nesting is safe: because the caller drains the chunk cursor itself, every
/// parallel_for completes even when all pool workers are blocked inside other
/// parallel_for calls — queued helper tasks that arrive after the loop is
/// done find the cursor exhausted and return without touching fn.
template <typename F>
void parallel_for(ThreadPool* pool, std::size_t n, F&& fn,
                  std::size_t grain = 1) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t chunks = (n + grain - 1) / grain;
  if (pool == nullptr || pool->worker_count() == 0 || chunks < 2) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Shared by value with the helper tasks so a helper that only gets
  // scheduled after this call returned still finds live state.
  struct Shared {
    std::atomic<std::size_t> next{0};
    Mutex mutex;
    ConditionVariable idle;
    std::size_t active CM_GUARDED_BY(mutex) = 0;  // helpers inside the loop
    std::exception_ptr error CM_GUARDED_BY(mutex);
  };
  auto shared = std::make_shared<Shared>();
  auto drain = [shared, n, grain, &fn] {
    for (;;) {
      const std::size_t start = shared->next.fetch_add(grain);
      if (start >= n) return;
      const std::size_t stop = std::min(n, start + grain);
      try {
        for (std::size_t i = start; i < stop; ++i) fn(i);
      } catch (...) {
        MutexLock lock(shared->mutex);
        if (!shared->error) shared->error = std::current_exception();
        shared->next.store(n);  // cancel the remaining chunks
      }
    }
  };
  const std::size_t helpers = std::min(pool->worker_count(), chunks - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    (void)pool->submit([shared, drain] {
      {
        MutexLock lock(shared->mutex);
        ++shared->active;
      }
      drain();
      {
        MutexLock lock(shared->mutex);
        --shared->active;
      }
      shared->idle.notify_all();
    });
  }
  drain();  // the calling thread always participates
  {
    // Helpers that have not bumped `active` yet can no longer reach fn (the
    // cursor is exhausted), so waiting for active == 0 is sufficient — and it
    // cannot deadlock on a saturated pool the way joining futures would.
    MutexLock lock(shared->mutex);
    while (shared->active != 0) shared->idle.wait(shared->mutex);
    if (shared->error) std::rethrow_exception(shared->error);
  }
}

}  // namespace crowdmap::common
