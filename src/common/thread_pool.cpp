#include "common/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "common/log.hpp"

namespace crowdmap::common {

std::size_t resolve_thread_count(std::size_t threads) noexcept {
  if (threads == 0) threads = std::thread::hardware_concurrency();
  return std::max<std::size_t>(threads, 1);
}

ThreadPool::ThreadPool(std::size_t workers) {
  workers = std::max<std::size_t>(workers, 1);
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) cv_.wait(mutex_);
      if (queue_.empty()) return;  // stopping, and the queue is drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

struct TaskGroup::State {
  Mutex mutex;
  ConditionVariable idle;
  std::deque<std::function<void()>> queue CM_GUARDED_BY(mutex);
  std::size_t running CM_GUARDED_BY(mutex) = 0;
  bool closed CM_GUARDED_BY(mutex) = false;
  QueueObserver queue_observer CM_GUARDED_BY(mutex);
};

TaskGroup::TaskGroup(ThreadPool& pool)
    : pool_(pool), state_(std::make_shared<State>()) {}

TaskGroup::~TaskGroup() {
  std::deque<std::function<void()>> dropped;
  QueueObserver observer;
  {
    MutexLock lock(state_->mutex);
    state_->closed = true;
    dropped.swap(state_->queue);
    while (state_->running != 0) state_->idle.wait(state_->mutex);
    observer = std::move(state_->queue_observer);
  }
  // The dropped tasks never dequeue, so report the empty queue once: a gauge
  // that outlives the group (a crashed node's registry) must not stay stale.
  if (observer && !dropped.empty()) observer(0);
}

void TaskGroup::set_queue_observer(QueueObserver observer) {
  MutexLock lock(state_->mutex);
  state_->queue_observer = std::move(observer);
}

void TaskGroup::submit(std::function<void()> fn) {
  std::size_t depth = 0;
  QueueObserver observer;
  {
    MutexLock lock(state_->mutex);
    if (state_->closed) return;
    state_->queue.push_back(std::move(fn));
    depth = state_->queue.size();
    observer = state_->queue_observer;
  }
  // One pool task per queued task; it runs whichever task is oldest then.
  (void)pool_.submit([state = state_] { run_next(*state); });
  if (observer) observer(depth);
}

void TaskGroup::run_next(State& state) {
  std::function<void()> task;
  std::size_t depth = 0;
  QueueObserver queue_observer;
  {
    MutexLock lock(state.mutex);
    if (state.queue.empty()) return;  // dropped by the group's destructor
    task = std::move(state.queue.front());
    state.queue.pop_front();
    ++state.running;
    depth = state.queue.size();
    queue_observer = state.queue_observer;
  }
  // The observer runs outside the lock: a slow exporter must not serialize
  // the workers, and it may call back into the group (e.g. pending()).
  if (queue_observer) queue_observer(depth);
  try {
    task();
  } catch (const std::exception& e) {
    CROWDMAP_LOG(kError, "thread_pool") << "task group task threw: " << e.what();
  } catch (...) {
    CROWDMAP_LOG(kError, "thread_pool") << "task group task threw";
  }
  {
    MutexLock lock(state.mutex);
    --state.running;
    if (state.running == 0 && state.queue.empty()) state.idle.notify_all();
  }
}

void TaskGroup::wait() {
  MutexLock lock(state_->mutex);
  while (!state_->queue.empty() || state_->running != 0) {
    state_->idle.wait(state_->mutex);
  }
}

std::size_t TaskGroup::pending() const {
  MutexLock lock(state_->mutex);
  return state_->queue.size();
}

}  // namespace crowdmap::common
