#include "obs/obs.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <ostream>

namespace cosm::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
std::array<std::atomic<std::uint64_t>, kCounterCount> g_counters{};
}  // namespace detail

namespace {

constexpr std::array<std::string_view, kCounterCount> kCounterNames = {
    "inversion.converged",
    "inversion.truncated",
    "inversion.clamped",
    "inversion.nonfinite",
    "inversion.calls",
    "inversion.terms",
    "quantile.cold_start",
    "quantile.cache_hit",
    "quantile.newton_steps",
    "quantile.bisect_steps",
    "cache.cdf.hit",
    "cache.cdf.miss",
    "cache.device.hit",
    "cache.device.miss",
    "tape.compiles",
    "tape.ops",
    "tape.eval_batches",
    "tape.eval_points",
    "hist.underflow_add",
    "hist.overflow_add",
    "hist.quantile_clamped",
    "sim.events",
    "sim.requests",
    "sim.timeouts",
    "sim.failures",
    "sim.retry_attempts",
    "sim.failover_attempts",
    "sim.replications",
    "sim.hedge.issued",
    "sim.hedge.wins",
    "sim.fanout.groups",
    "sim.cancel.attempts",
    "sim.cancel.skipped_work",
    "sim.cancel.late_responses",
    "sim.tier.reads",
    "sim.tier.hits",
    "sim.tier.promotions",
    "sim.tier.writebacks",
    "sim.tier.drain_writebacks",
    "sim.shard.windows",
    "sim.shard.empty_windows",
    "sim.shard.cross_messages",
    "sim.shard.barrier_nanos",
    "pool.submits",
    "pool.max_queue_depth",
    "service.requests",
    "service.errors",
    "service.predictions",
    "calib.drift.windows",
    "calib.drift.alarms",
    "calib.drift.detected",
    "calib.insufficient_windows",
    "calib.window_skew",
    "calib.refit.models",
    "calib.refit.cache_evictions",
    "calib.refit.degenerate_rescale",
};

// Span ring.  Capacity is a power of two so the claim index maps to a
// slot with a mask; the total claim counter doubles as the drop
// accounting (total - retained = overwritten).  Slots are plain records:
// a writer that laps the ring more than capacity spans ahead of a
// concurrent export can tear a slot, which costs one garbled record in a
// diagnostic trace, never a crash — export is documented to run after
// the instrumented work quiesces.
constexpr std::size_t kRingCapacity = std::size_t{1} << 16;

struct Ring {
  std::array<SpanRecord, kRingCapacity> slots{};
  std::atomic<std::uint64_t> total{0};
};

// Allocated on first enable (keeping the disabled footprint at two cache
// lines of atomics), then intentionally leaked: spans may still be
// closing on pool threads at process exit, after static destructors.
std::atomic<Ring*> g_ring{nullptr};
std::mutex g_init_mutex;

using Clock = std::chrono::steady_clock;
std::atomic<std::int64_t> g_epoch_ns{0};

Ring* ring_or_null() { return g_ring.load(std::memory_order_acquire); }

double now_us() {
  const std::int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count();
  return static_cast<double>(ns - g_epoch_ns.load(std::memory_order_relaxed)) *
         1e-3;
}

// Dense per-thread ids, assigned in first-recording order.
std::atomic<std::uint32_t> g_next_thread_id{0};
thread_local std::uint32_t t_thread_id = UINT32_MAX;
thread_local std::uint32_t t_depth = 0;

std::uint32_t thread_id() {
  if (t_thread_id == UINT32_MAX) {
    t_thread_id = g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  }
  return t_thread_id;
}

void record_span(const char* name, std::uint32_t depth, double start_us,
                 double dur_us) {
  Ring* ring = ring_or_null();
  if (ring == nullptr) return;  // disabled before the ring ever existed
  const std::uint64_t index =
      ring->total.fetch_add(1, std::memory_order_relaxed);
  SpanRecord& slot = ring->slots[index & (kRingCapacity - 1)];
  slot.name = name;
  slot.thread = thread_id();
  slot.depth = depth;
  slot.start_us = start_us;
  slot.dur_us = dur_us;
}

}  // namespace

void set_enabled(bool on) {
  if (on && ring_or_null() == nullptr) {
    std::lock_guard<std::mutex> lock(g_init_mutex);
    if (ring_or_null() == nullptr) {
      g_epoch_ns.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now().time_since_epoch())
                           .count(),
                       std::memory_order_relaxed);
      g_ring.store(new Ring(), std::memory_order_release);
    }
  }
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void record_max(Counter counter, std::uint64_t value) {
  if (!enabled()) return;
  auto& slot = detail::g_counters[static_cast<std::size_t>(counter)];
  std::uint64_t current = slot.load(std::memory_order_relaxed);
  while (current < value &&
         !slot.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

std::uint64_t counter_value(Counter counter) {
  return detail::g_counters[static_cast<std::size_t>(counter)].load(
      std::memory_order_relaxed);
}

std::string_view counter_name(Counter counter) {
  return kCounterNames[static_cast<std::size_t>(counter)];
}

Span::Span(const char* name) : name_(nullptr) {
  if (!enabled()) return;
  name_ = name;
  depth_ = t_depth++;
  start_us_ = now_us();
}

Span::~Span() {
  if (name_ == nullptr) return;
  --t_depth;
  record_span(name_, depth_, start_us_, now_us() - start_us_);
}

TraceStats trace_stats() {
  TraceStats stats;
  stats.capacity = kRingCapacity;
  if (Ring* ring = ring_or_null()) {
    stats.recorded = ring->total.load(std::memory_order_relaxed);
    stats.retained = std::min<std::uint64_t>(stats.recorded, kRingCapacity);
    stats.dropped = stats.recorded - stats.retained;
  }
  return stats;
}

std::vector<SpanRecord> snapshot_spans() {
  std::vector<SpanRecord> spans;
  Ring* ring = ring_or_null();
  if (ring == nullptr) return spans;
  const std::uint64_t total = ring->total.load(std::memory_order_relaxed);
  const std::uint64_t retained = std::min<std::uint64_t>(total, kRingCapacity);
  spans.reserve(static_cast<std::size_t>(retained));
  for (std::uint64_t i = 0; i < retained; ++i) {
    const SpanRecord& slot = ring->slots[static_cast<std::size_t>(i)];
    if (slot.name != nullptr) spans.push_back(slot);
  }
  // Ring order is claim order only until the first wrap; present the
  // trace oldest-first regardless.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     return a.start_us < b.start_us;
                   });
  return spans;
}

std::vector<std::pair<std::string_view, std::uint64_t>> snapshot_counters() {
  std::vector<std::pair<std::string_view, std::uint64_t>> counters;
  counters.reserve(kCounterCount);
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    counters.emplace_back(kCounterNames[i],
                          detail::g_counters[i].load(
                              std::memory_order_relaxed));
  }
  return counters;
}

void reset() {
  for (auto& counter : detail::g_counters) {
    counter.store(0, std::memory_order_relaxed);
  }
  if (Ring* ring = ring_or_null()) {
    for (auto& slot : ring->slots) slot = SpanRecord{};
    ring->total.store(0, std::memory_order_relaxed);
  }
}

namespace {

// Minimal JSON number formatting: microsecond fields are finite by
// construction, so fixed precision is enough.
void json_number(std::ostream& out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", value);
  out << buffer;
}

}  // namespace

void export_json(std::ostream& out) {
  const TraceStats stats = trace_stats();
  out << "{\n"
      << "  \"schema\": \"cosm-obs-trace\",\n"
      << "  \"version\": 1,\n"
      << "  \"enabled\": " << (enabled() ? "true" : "false") << ",\n"
      << "  \"counters\": [\n";
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    out << "    {\"name\": \"" << kCounterNames[i] << "\", \"value\": "
        << detail::g_counters[i].load(std::memory_order_relaxed) << "}"
        << (i + 1 < kCounterCount ? ",\n" : "\n");
  }
  out << "  ],\n"
      << "  \"span_total\": " << stats.recorded << ",\n"
      << "  \"span_dropped\": " << stats.dropped << ",\n"
      << "  \"spans\": [\n";
  const std::vector<SpanRecord> spans = snapshot_spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    out << "    {\"name\": \"" << span.name << "\", \"thread\": "
        << span.thread << ", \"depth\": " << span.depth
        << ", \"start_us\": ";
    json_number(out, span.start_us);
    out << ", \"dur_us\": ";
    json_number(out, span.dur_us);
    out << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "  ]\n"
      << "}\n";
}

void export_csv(std::ostream& out) {
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    out << "counter," << kCounterNames[i] << ","
        << detail::g_counters[i].load(std::memory_order_relaxed) << "\n";
  }
  for (const SpanRecord& span : snapshot_spans()) {
    out << "span," << span.name << "," << span.thread << "," << span.depth
        << ",";
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.3f,%.3f", span.start_us,
                  span.dur_us);
    out << buffer << "\n";
  }
}

}  // namespace cosm::obs
