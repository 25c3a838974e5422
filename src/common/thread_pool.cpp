#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace cosm {

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0) {
    n_threads = std::thread::hardware_concurrency();
    if (n_threads == 0) n_threads = 1;
  }
  workers_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for_index(
    std::size_t count, const std::function<void(std::size_t)>& fn,
    std::size_t max_workers) {
  if (count == 0) return;
  // Completion is tracked with an index latch rather than helper futures:
  // a queued helper that never gets a pool slot (every worker busy with an
  // *outer* parallel_for_index) must not be waited on, or nested calls
  // would deadlock.  The caller drains indices itself, then waits only for
  // indices that some running thread has actually claimed.
  struct State {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{0};
    std::mutex mutex;
    std::condition_variable done;
    std::exception_ptr first_error;
  };
  auto state = std::make_shared<State>();
  // Safe to capture fn by reference: an index below `count` can only be
  // claimed while the caller is still blocked in this function (the claim
  // keeps `completed` below `count`); helpers that run after it returns
  // see next >= count and exit without touching fn.
  const auto drain = [state, &fn, count] {
    for (;;) {
      const std::size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->mutex);
        if (!state->first_error) state->first_error = std::current_exception();
      }
      if (state->completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          count) {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->done.notify_all();
      }
    }
  };
  std::size_t helpers = workers_.size();
  if (max_workers != 0) helpers = std::min(helpers, max_workers - 1);
  helpers = std::min(helpers, count - 1);
  for (std::size_t t = 0; t < helpers; ++t) {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.emplace_back(drain);
    if (obs::enabled()) {
      obs::add(obs::Counter::kPoolSubmits);
      obs::record_max(obs::Counter::kPoolMaxQueueDepth, queue_.size());
    }
  }
  if (helpers > 0) cv_.notify_all();
  drain();  // the calling thread participates
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->done.wait(lock, [&] {
      return state->completed.load(std::memory_order_acquire) == count;
    });
    if (state->first_error) std::rethrow_exception(state->first_error);
  }
}

std::size_t detail::resolve_threads(unsigned num_threads) {
  // Resolve "all hardware" before deciding on the fan-out: on a
  // single-core host num_threads == 0 used to reach the pool anyway and
  // pay queueing + latch overhead for zero extra parallelism (a measured
  // ~3% pipeline regression).  hardware_concurrency() is a free function,
  // so the resolution never instantiates the global pool.
  if (num_threads != 0) return num_threads;
  const std::size_t hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : hardware;
}

}  // namespace cosm
