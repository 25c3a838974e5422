#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <numeric>
#include <stdexcept>
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

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(3);
  auto f1 = pool.submit([] { return 21 * 2; });
  auto f2 = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> touched(kN);
  pool.parallel_for_index(kN, [&](std::size_t i) {
    touched[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(touched[i].load(), 1);
}

TEST(ThreadPool, ParallelForZeroCountIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for_index(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForRethrowsFirstError) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for_index(
                   100,
                   [](std::size_t i) {
                     if (i == 37) throw std::runtime_error("index 37");
                   }),
               std::runtime_error);
}

TEST(ThreadPool, SingleThreadPoolStillCompletesWork) {
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.parallel_for_index(100, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, ManyTasksCompleteBeforeDestruction) {
  std::atomic<int> done{0};
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(4);
    for (int i = 0; i < 500; ++i) {
      futures.push_back(pool.submit([&done] { done.fetch_add(1); }));
    }
    for (auto& f : futures) f.get();
  }
  EXPECT_EQ(done.load(), 500);
}

TEST(ParallelFor, InlinePathAllocatesNothing) {
  // The prediction pipeline's lambdas capture more by reference than a
  // std::function holds inline; the 1-thread path must call them in place.
  const std::vector<double> in = {1.0, 2.0, 3.0, 4.0, 5.0};
  std::vector<double> out(in.size());
  const double scale = 2.0;
  const double shift = 0.5;
  const std::uint64_t before = g_allocations.load();
  parallel_for(in.size(), 1, [&](std::size_t i) {
    out[i] = scale * in[i] + shift;
  });
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(out, (std::vector<double>{2.5, 4.5, 6.5, 8.5, 10.5}));
}

}  // namespace
}  // namespace cosm
