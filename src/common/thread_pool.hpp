// A small fixed-size thread pool used to parallelize embarrassingly
// parallel work: arrival-rate sweep points in the experiment harnesses,
// independent simulator replications in tests, and — through the
// cosm::parallel_for helper — the prediction pipeline's per-device /
// per-SLA-point fan-out (core::PredictOptions::num_threads).
//
// The pool is deliberately minimal — submit() returns a std::future, and
// parallel_for_index() blocks until every index has been processed.
// Exceptions thrown by tasks propagate through the futures (and, for
// parallel_for_index, are rethrown on the calling thread).
//
// Thread-safety: every public member may be called concurrently from any
// thread.  parallel_for_index is safe to *nest* (a task may itself call
// parallel_for_index on the same pool): the calling thread always drains
// the whole index range itself if no worker becomes free, and only waits
// for indices that a running thread has actually claimed — so a saturated
// pool degrades to serial execution instead of deadlocking.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/obs.hpp"

namespace cosm {

class ThreadPool {
 public:
  // n_threads == 0 means "hardware concurrency, at least 1".
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // The process-wide shared pool (hardware concurrency), created lazily on
  // first use.  Prefer this over per-call pools in library code: model
  // predictions may run thousands of parallel_for_index calls, and thread
  // creation would dominate.
  static ThreadPool& global();

  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
      if (obs::enabled()) {
        obs::add(obs::Counter::kPoolSubmits);
        obs::record_max(obs::Counter::kPoolMaxQueueDepth, queue_.size());
      }
    }
    cv_.notify_one();
    return result;
  }

  // Runs fn(i) for every i in [0, count), distributing indices across the
  // pool.  Blocks until completion; rethrows the first task exception
  // recorded (when several tasks throw, which one wins is unspecified —
  // callers that need determinism must not rely on *which* exception
  // escapes, only that one does).
  //
  // `max_workers` caps how many threads may process indices, *including*
  // the calling thread; 0 means "no cap beyond the pool size".  The
  // calling thread always participates, so the call completes even when
  // every pool worker is busy (this is what makes nesting safe).
  void parallel_for_index(std::size_t count,
                          const std::function<void(std::size_t)>& fn,
                          std::size_t max_workers = 0);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

namespace detail {
// The fan-out width parallel_for uses for `num_threads`: 0 resolves to
// std::thread::hardware_concurrency() (at least 1), anything else is
// itself.  Never instantiates the global pool.
std::size_t resolve_threads(unsigned num_threads);
}  // namespace detail

// Convenience fan-out used by the prediction pipeline.  Runs fn(i) for
// every i in [0, count):
//   num_threads == 1  — plain serial loop on the calling thread (no pool
//                       is touched, and none is ever created);
//   num_threads == 0  — "all hardware": resolved via
//                       std::thread::hardware_concurrency() first; when
//                       that resolves to 1 (single-core hosts) the loop
//                       runs inline like num_threads == 1 — the pool
//                       cannot add parallelism there, only queueing and
//                       completion-latch overhead;
//   num_threads == k  — ThreadPool::global() capped at k concurrent
//                       threads (including the caller).
// `fn` is taken by reference and called in place: the inline path never
// allocates, and the pool path hands the pool a std::ref to it.
// Each index must write only to its own output slot; reductions belong in
// the caller *after* the call, in index order, so that results are
// bit-identical to the serial path regardless of thread count.
template <typename Fn>
void parallel_for(std::size_t count, unsigned num_threads, Fn&& fn) {
  if (count == 0) return;
  if (count == 1 || detail::resolve_threads(num_threads) == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  ThreadPool::global().parallel_for_index(count, std::ref(fn), num_threads);
}

}  // namespace cosm
