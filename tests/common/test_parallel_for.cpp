#include "common/parallel_for.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <latch>
#include <new>
#include <stdexcept>
#include <thread>
#include <vector>

// Allocation counter: every operator new in this binary bumps it, so the
// inline parallel_for path can be shown to allocate nothing (same pattern
// as tests/obs/test_obs.cpp).
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// GCC pairs inlined make_shared allocations (through our operator new)
// with these free() calls and reports a mismatch; the pairing is exactly
// what we intend — new/new[] allocate with malloc.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cosm {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnceOnWorkerIModK) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    // Counts below, at and above the thread count.
    for (const std::size_t count : {std::size_t{1}, std::size_t{3},
                                    std::size_t{8}, std::size_t{1000}}) {
      std::vector<std::atomic<int>> touched(count);
      std::vector<std::thread::id> runner(count);
      parallel_for(count, threads, [&](std::size_t i) {
        touched[i].fetch_add(1, std::memory_order_relaxed);
        runner[i] = std::this_thread::get_id();
      });
      const std::size_t k = std::min<std::size_t>(threads, count);
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(touched[i].load(), 1)
            << "threads " << threads << " count " << count << " index " << i;
        EXPECT_EQ(runner[i], runner[i % k])
            << "threads " << threads << " count " << count << " index " << i;
      }
      EXPECT_EQ(runner[0], std::this_thread::get_id())
          << "the caller is worker 0";
    }
  }
}

TEST(ParallelFor, SingleThreadStillCompletesWork) {
  std::atomic<int> sum{0};
  parallel_for(100, 1, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ParallelFor, ZeroThreadsMeansHardwareConcurrency) {
  constexpr std::size_t kN = 257;
  std::vector<std::atomic<int>> touched(kN);
  parallel_for(kN, 0, [&](std::size_t i) {
    touched[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(touched[i].load(), 1);
}

TEST(ParallelFor, ZeroCountIsNoop) {
  for (const unsigned threads : {0u, 1u, 2u, 8u}) {
    bool called = false;
    parallel_for(0, threads, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called) << "threads " << threads;
  }
}

TEST(ParallelFor, RethrowsFirstErrorAfterEveryWorkerJoins) {
  // Index 37 runs on worker 37 mod 4 = 1, which stops there; every other
  // index runs, and all of them have finished by the time the error
  // reaches the caller.
  constexpr std::size_t kN = 100;
  constexpr unsigned kThreads = 4;
  std::atomic<std::size_t> finished{0};
  EXPECT_THROW(parallel_for(kN, kThreads,
                            [&](std::size_t i) {
                              if (i == 37) {
                                throw std::runtime_error("index 37");
                              }
                              std::this_thread::sleep_for(
                                  std::chrono::microseconds(100));
                              finished.fetch_add(1);
                            }),
               std::runtime_error);
  std::size_t expected = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    if (!(i % kThreads == 37 % kThreads && i >= 37)) ++expected;
  }
  EXPECT_EQ(finished.load(), expected);
}

TEST(ParallelFor, ThreadsAtLeastCountGivesEveryIndexItsOwnThread) {
  // Every index waits until all of them have arrived, which can only
  // happen when each has a thread of its own.  The wait is bounded: two
  // indices sharing a thread make the first give up and set the flag, so
  // the test fails instead of hanging.
  constexpr std::size_t kN = 6;
  std::latch all_arrived(static_cast<std::ptrdiff_t>(kN));
  std::atomic<bool> timed_out{false};
  std::vector<std::thread::id> runner(kN);
  parallel_for(kN, static_cast<unsigned>(kN), [&](std::size_t i) {
    runner[i] = std::this_thread::get_id();
    all_arrived.count_down();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!all_arrived.try_wait()) {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out = true;
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  EXPECT_FALSE(timed_out.load());
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t j = i + 1; j < kN; ++j) {
      EXPECT_NE(runner[i], runner[j]) << "indices " << i << " and " << j;
    }
  }
}

TEST(ParallelFor, InlinePathAllocatesNothing) {
  // One thread, or one index at any thread count, calls fn in place on
  // the caller's thread: no thread, no type-erased copy of the lambda.
  const std::vector<double> in = {1.0, 2.0, 3.0, 4.0, 5.0};
  std::vector<double> out(in.size());
  const double scale = 2.0;
  const double shift = 0.5;
  const std::uint64_t before = g_allocations.load();
  parallel_for(in.size(), 1, [&](std::size_t i) {
    out[i] = scale * in[i] + shift;
  });
  parallel_for(1, 8, [&](std::size_t i) { out[i] += 1.0; });
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(out, (std::vector<double>{3.5, 4.5, 6.5, 8.5, 10.5}));
}

}  // namespace
}  // namespace cosm
