// cosm::parallel_for: the fan-out for embarrassingly parallel simulation
// work — arrival-rate sweep points in the experiment harnesses,
// independent simulator replications (sim::run_replications) and the
// shards of one sharded replication.  The analytic model path runs on
// its caller's thread and never fans out.
//
// Every call starts its own threads and joins them before it returns:
// no pool, no queue, nothing outlives the call.  Starting a thread costs
// a few microseconds against work items of milliseconds or more.
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace cosm {

// Runs fn(i) for every i in [0, count) on k = min(threads, count)
// threads: the calling thread plus k − 1 std::jthreads started for this
// call (threads == 0 means std::thread::hardware_concurrency()).  Index
// i always runs on worker i mod k, the caller being worker 0, so with
// threads >= count every index has a thread of its own — which callers
// whose indices wait on each other (the sharded engine's window barrier)
// rely on.  A worker stops at its first exception; once every worker has
// joined, the first exception recorded is rethrown.  With k == 1 the
// loop runs inline, calling `fn` in place without allocating.
//
// Each index must write only to its own output slot; reductions belong in
// the caller *after* the call, in index order, so that results are
// bit-identical to the serial path regardless of thread count.
template <typename Fn>
void parallel_for(std::size_t count, unsigned threads, Fn&& fn) {
  const std::size_t wanted =
      threads != 0 ? threads
                   : std::max(1u, std::thread::hardware_concurrency());
  const std::size_t k = std::min(wanted, count);
  if (k <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto work = [&](std::size_t worker) {
    try {
      for (std::size_t i = worker; i < count; i += k) fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> workers;
    workers.reserve(k - 1);
    for (std::size_t w = 1; w < k; ++w) workers.emplace_back(work, w);
    work(0);
  }  // every jthread joins here
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace cosm
