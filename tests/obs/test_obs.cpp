// Observability subsystem tests: counter atomicity, span nesting across
// worker threads, zero-cost-when-disabled (no allocations, no result
// drift), and the trace export shape.
#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <complex>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "common/parallel_for.hpp"
#include "numerics/distribution.hpp"
#include "numerics/lt_inversion.hpp"

// Allocation counter: every operator new in this binary bumps it, so a
// test can assert a window performed zero heap allocations.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

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

// The nothrow forms too (std::stable_sort's temporary buffer uses them):
// left to the runtime, they would hand the free() below memory from the
// runtime's operator new, an alloc-dealloc mismatch under ASan.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace cosm::obs {
namespace {

// Each gtest case runs in its own process (gtest_discover_tests), but
// keep the global state tidy anyway so cases also pass under a plain
// ./test_obs run.
struct ObsGuard {
  explicit ObsGuard(bool on) {
    reset();
    set_enabled(on);
  }
  ~ObsGuard() {
    set_enabled(false);
    reset();
  }
};

TEST(ObsCounters, DisabledAddsAreDropped) {
  ObsGuard guard(false);
  add(Counter::kSimEvents, 123);
  add(Counter::kSimShardBarrierNanos, 99);
  EXPECT_EQ(counter_value(Counter::kSimEvents), 0u);
  EXPECT_EQ(counter_value(Counter::kSimShardBarrierNanos), 0u);
}

TEST(ObsCounters, ConcurrentAddsAreExact) {
  ObsGuard guard(true);
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        add(Counter::kInversionCalls);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter_value(Counter::kInversionCalls), kThreads * kPerThread);
}

TEST(ObsCounters, NamesCoverTheRegistry) {
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const std::string_view name = counter_name(static_cast<Counter>(i));
    EXPECT_FALSE(name.empty()) << "counter " << i << " has no name";
  }
  // Spot checks that the schema's names stay stable.
  EXPECT_EQ(counter_name(Counter::kInversionClamped), "inversion.clamped");
  EXPECT_EQ(counter_name(Counter::kHistQuantileClamped),
            "hist.quantile_clamped");
}

TEST(ObsSpans, NestingDepthIsPerThread) {
  ObsGuard guard(true);
  {
    Span outer("test.outer");
    // parallel_for workers start at depth 0 even while the main thread is
    // inside `outer`; the main thread's own lambda runs nested at depth 1.
    cosm::parallel_for(16, 4, [&](std::size_t) {
      Span inner("test.inner");
    });
  }
  const std::vector<SpanRecord> spans = snapshot_spans();
  std::uint64_t outer_count = 0;
  std::uint64_t inner_count = 0;
  std::uint32_t main_thread = 0;
  for (const SpanRecord& span : spans) {
    if (std::string_view(span.name) == "test.outer") {
      ++outer_count;
      main_thread = span.thread;
      EXPECT_EQ(span.depth, 0u);
    }
  }
  for (const SpanRecord& span : spans) {
    if (std::string_view(span.name) == "test.inner") {
      ++inner_count;
      if (span.thread == main_thread) {
        EXPECT_EQ(span.depth, 1u);  // nested inside test.outer
      } else {
        EXPECT_EQ(span.depth, 0u);  // worker thread, nothing enclosing
      }
      EXPECT_GE(span.dur_us, 0.0);
    }
  }
  EXPECT_EQ(outer_count, 1u);
  EXPECT_EQ(inner_count, 16u);
}

TEST(ObsSpans, TraceStatsCountRecorded) {
  ObsGuard guard(true);
  { Span a("test.a"); }
  { Span b("test.b"); }
  const TraceStats stats = trace_stats();
  EXPECT_EQ(stats.recorded, 2u);
  EXPECT_EQ(stats.retained, 2u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_GT(stats.capacity, 0u);
}

TEST(ObsDisabled, InstrumentationPointsAllocateNothing) {
  ObsGuard guard(false);
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    Span span("test.disabled");
    add(Counter::kSimEvents);
    add(Counter::kSimShardBarrierNanos, 7);
  }
  EXPECT_EQ(g_allocations.load(), before)
      << "disabled instrumentation must not touch the heap";
}

TEST(ObsDisabled, EnablingDoesNotChangeNumericResults) {
  // The instrumented inversion path must produce bit-identical doubles
  // whether or not anyone is watching.
  const numerics::Gamma gamma(3.0, 300.0);
  const numerics::BatchLaplaceFn lt =
      [&](std::span<const std::complex<double>> s,
          std::span<std::complex<double>> out) { gamma.laplace_many(s, out); };
  const std::array<double, 3> ts = {0.001, 0.01, 0.05};
  std::array<numerics::CdfDensityPoint, 3> off;
  {
    ObsGuard guard(false);
    numerics::invert_cdf(lt, ts, 20, off);
  }
  std::array<numerics::CdfDensityPoint, 3> on;
  {
    ObsGuard guard(true);
    numerics::invert_cdf(lt, ts, 20, on);
  }
  for (std::size_t i = 0; i < ts.size(); ++i) {
    // Exact doubles, not a tolerance.
    EXPECT_EQ(off[i].cdf.value, on[i].cdf.value);
    EXPECT_EQ(off[i].density, on[i].density);
  }
}

TEST(ObsExport, JsonCarriesSchemaCountersAndSpans) {
  ObsGuard guard(true);
  add(Counter::kInversionConverged, 3);
  { Span span("test.export"); }
  std::ostringstream out;
  export_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"schema\": \"cosm-obs-trace\""), std::string::npos);
  EXPECT_NE(json.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"inversion.converged\", \"value\": 3"),
            std::string::npos);
  EXPECT_NE(json.find("\"test.export\""), std::string::npos);
  EXPECT_NE(json.find("\"span_total\": 1"), std::string::npos);
  // Every registered counter appears, zero or not.
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const std::string_view name = counter_name(static_cast<Counter>(i));
    EXPECT_NE(json.find(std::string(name)), std::string::npos)
        << "counter " << name << " missing from export";
  }
}

TEST(ObsReset, ClearsCountersAndTrace) {
  ObsGuard guard(true);
  add(Counter::kSimEvents, 5);
  { Span span("test.reset"); }
  reset();
  EXPECT_EQ(counter_value(Counter::kSimEvents), 0u);
  EXPECT_EQ(trace_stats().recorded, 0u);
  EXPECT_TRUE(snapshot_spans().empty());
}

}  // namespace
}  // namespace cosm::obs
