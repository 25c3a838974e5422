// Allocation guard for the simulator's request path: once the request
// pool, the engine calendar and the fan-out slabs have grown to their
// high-water marks, a request allocates nothing — on the single-device
// path and on the replica-list paths (retry with failover, hedging,
// fan-out) alike.  Each case runs an open-loop source in streaming mode
// (no retained per-request samples), lets the pools warm up, and counts
// heap allocations over a later window of several thousand requests.
// The only allocations left there are the pools' rare doublings at a new
// high-water mark (a handful per window), so the bound is one allocation
// per hundred requests: any per-request allocation is at least one per
// request.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>

#include "sim/cluster.hpp"
#include "sim/source.hpp"

// Allocation counter: every operator new in this binary bumps it, so a
// test can count the heap allocations of a window.
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

// The nothrow forms too: left to the runtime, they would hand the free()
// below memory from the runtime's operator new, an alloc-dealloc mismatch
// under ASan.
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

namespace cosm::sim {
namespace {

struct RequestPath {
  const char* name;
  void (*configure)(ClusterConfig&);
};

void PrintTo(const RequestPath& path, std::ostream* os) { *os << path.name; }

const RequestPath kPaths[] = {
    {"single_device", [](ClusterConfig&) {}},
    // A timeout short enough that some attempts retry on the next replica.
    {"retry_failover",
     [](ClusterConfig& c) {
       c.request_timeout = 0.03;
       c.max_retries = 1;
       c.failover = true;
     }},
    {"hedge", [](ClusterConfig& c) { c.hedge_delay = 0.02; }},
    {"fanout",
     [](ClusterConfig& c) {
       c.fanout_n = 3;
       c.fanout_k = 2;
     }},
};

struct WindowCounts {
  std::uint64_t requests = 0;
  std::uint64_t allocations = 0;
  OutcomeCounts outcomes;  // over the whole run
};

// Runs 40 req/s over 4 devices for 240 simulated seconds; the window is
// the last 180 s, after the pools have seen 60 s of traffic.
WindowCounts measure(const RequestPath& path) {
  ClusterConfig config;
  config.device_count = 4;
  config.seed = 7;
  path.configure(config);
  Cluster cluster(config);
  cluster.metrics().enable_streaming();

  workload::CatalogConfig cat_config;
  cat_config.object_count = 2000;
  cat_config.size_distribution = workload::default_size_distribution();
  cat_config.seed = 8;
  const workload::ObjectCatalog catalog(cat_config);
  const workload::Placement placement({.partition_count = 64,
                                       .replica_count = 3,
                                       .device_count = 4,
                                       .seed = 9});
  workload::PhasePlan plan;
  plan.warmup_duration = 0.0;
  plan.transition_duration = 0.0;
  plan.benchmark_start_rate = 40.0;
  plan.benchmark_end_rate = 40.0;
  plan.benchmark_step_duration = 240.0;
  OpenLoopSource source(cluster, catalog, placement, plan, cosm::Rng(10));
  source.start();

  cluster.engine().run_until(60.0);
  const std::uint64_t arrivals_before = source.arrivals();
  const std::uint64_t allocations_before = g_allocations.load();
  cluster.engine().run_until(source.horizon());
  WindowCounts counts;
  counts.allocations = g_allocations.load() - allocations_before;
  counts.requests = source.arrivals() - arrivals_before;
  cluster.engine().run_all();
  counts.outcomes = cluster.metrics().outcomes();
  return counts;
}

class RequestAllocations : public ::testing::TestWithParam<RequestPath> {};

TEST_P(RequestAllocations, WarmRequestPathAllocatesNothing) {
  const RequestPath& path = GetParam();
  const WindowCounts counts = measure(path);
  ASSERT_GT(counts.requests, 6000u);
  // The configured path really ran: retries, hedges and fan-outs fired.
  const std::string name = path.name;
  if (name == "retry_failover") {
    EXPECT_GT(counts.outcomes.failover_attempts, 0u);
  }
  if (name == "hedge") {
    EXPECT_GT(counts.outcomes.hedge_attempts, 0u);
  }
  if (name == "fanout") {
    EXPECT_GT(counts.outcomes.cancelled_attempts, 0u);
  }
  EXPECT_LE(counts.allocations * 100, counts.requests)
      << counts.allocations << " allocations over " << counts.requests
      << " requests";
}

INSTANTIATE_TEST_SUITE_P(Paths, RequestAllocations, ::testing::ValuesIn(kPaths),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace cosm::sim
