// Observability: scoped spans, typed counters, and a structured event
// trace for the prediction pipeline and the simulator.
//
// The paper's value proposition is trusting an analytic percentile
// instead of measuring — which is only defensible when each submodel's
// cost and error are attributable (Thomasian's survey of hybrid
// analytic/simulation studies makes the same point).  This subsystem is
// the substrate for that attribution:
//
//  * Counter — a fixed registry of typed counters (cache hits, inversion
//    quality verdicts, quantile searches, retry attempts, pool
//    queue depth, ...).  Each is a relaxed atomic; add() is safe from any
//    thread and never blocks.
//  * Span — RAII scoped timing over the monotonic clock.  Completed spans
//    land in a fixed-capacity ring buffer with their thread, nesting
//    depth, start offset, and duration; overflow overwrites the oldest
//    records and is itself counted, never silently lost.
//  * export_json — the structured trace: every counter (zero or not, so
//    the schema is stable) plus the retained span records.
//    docs/obs_trace.schema.json pins the JSON shape; the obs-smoke CI job
//    validates exported traces against it.
//
// Zero cost when disabled — the contract the perf gates rely on:
// observability is OFF by default, and every instrumentation point (add,
// Span, record_max) first performs one relaxed atomic load of the enable
// flag.  When disabled nothing else happens: no clock reads, no
// allocation, no stores — so instrumented code paths produce bit-identical
// outputs and benchmark times within noise of uninstrumented builds
// (tests/obs/test_obs.cpp pins allocation-freeness and bit-identity;
// BENCH_pipeline.json / BENCH_sim.json pin the timings).  Enabling is
// explicit (set_enabled(true), or the --trace-json flag of the perf
// harnesses and examples).
//
// Instrumentation never changes results: counters and spans observe;
// the clamp/quality/cache *decisions* they report are made by the
// instrumented code itself and are identical whether or not anyone is
// watching.
//
// Thread-safety: all functions are safe to call concurrently.  Span
// nesting depth is tracked per thread (thread_local), so spans opened on
// pool workers inside cosm::parallel_for nest correctly within whatever
// that worker was running.  Span names must be string literals (or
// otherwise outlive the process) — the ring stores the pointer.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

namespace cosm::obs {

// The counter registry.  Adding a counter means adding an enumerator here
// and a name in kCounterNames (obs.cpp) — the trace schema carries the
// names, so exported traces stay self-describing.
enum class Counter : std::uint32_t {
  // Laplace-inversion quality (see numerics::InversionQuality): every CDF
  // inversion gets exactly one verdict counter bump.
  kInversionConverged,
  kInversionTruncated,
  kInversionClamped,
  kInversionNonFinite,
  kInversionCalls,   // CDF inversions performed (sum of the four above)
  kInversionTerms,   // contour evaluations spent (terms per inversion)

  // Quantile searches (numerics::solve_quantile, SystemModel).
  kQuantileColdStart,    // quantile requests, searched or cached
  kQuantileCacheHit,     // requests answered from PredictionCache
  kQuantileNewtonSteps,  // search steps taken by Newton
  kQuantileBisectSteps,  // search steps the safeguard took instead

  // core::PredictionCache traffic (per lookup, at the call sites).
  kCdfCacheHit,
  kCdfCacheMiss,
  kDeviceCacheHit,
  kDeviceCacheMiss,

  // numerics::TransformTape.
  kTapeCompiles,
  kTapeOps,          // ops emitted across all compiles
  kTapeEvalBatches,  // evaluate() calls
  kTapeEvalPoints,   // contour points pushed through evaluate()

  // stats::LogHistogram clamp buckets (and through it the simulator's
  // streaming latency histogram).
  kHistUnderflowAdd,
  kHistOverflowAdd,
  kHistQuantileClamped,  // quantile query answered with a bound

  // Simulator.
  kSimEvents,
  kSimRequests,
  kSimTimeouts,
  kSimFailures,
  kSimRetryAttempts,
  kSimFailoverAttempts,
  kSimReplications,

  // Redundancy-aware requests (robustness extension): hedged attempts,
  // (n,k) fan-out groups, and the cancel-on-first-complete path.
  kSimHedgeIssued,      // hedge attempts dispatched past the deadline
  kSimHedgeWins,        // groups whose winning response was a hedge
  kSimFanoutGroups,     // (n,k) fan-out groups created
  kSimCancelAttempts,   // live attempts cancelled when their group won
  kSimCancelSkippedWork,    // queued/in-flight work dropped as cancelled
  kSimCancelLateResponses,  // responses that arrived after their group won

  // SSD cache tier (tiering extension; see sim/tier.hpp).
  kSimTierReads,            // data reads offered to the tier
  kSimTierHits,             // served from the SSD
  kSimTierPromotions,       // clean installs after a tier-miss read
  kSimTierWritebacks,       // dirty demotion writes at eviction
  kSimTierDrainWritebacks,  // dirty flushes at outage recovery

  // Sharded simulation (sim/shard.hpp): the conservative window protocol.
  // Windows are counted once per shard per window; barrier nanoseconds are
  // wall-clock time a shard worker spent blocked at a window barrier (only
  // measured when observability is enabled — no clock reads otherwise).
  kSimShardWindows,        // shard × window executions
  kSimShardEmptyWindows,   // windows a shard crossed without local events
  kSimShardCrossMessages,  // cross-shard arrivals delivered via mailboxes
  kSimShardBarrierNanos,   // wall ns spent blocked at window barriers

  // ThreadPool.
  kPoolSubmits,
  kPoolMaxQueueDepth,  // gauge: high-water mark, via record_max

  // service::WhatIfService (the long-lived what-if prediction service).
  kServiceRequests,     // requests parsed off the wire
  kServiceErrors,       // requests answered with an error object
  kServicePredictions,  // individual percentile/capacity answers produced

  // Online calibration loop (calibration/drift.hpp, recalibrate.hpp):
  // windowed drift detection and auto-recalibration.
  kCalibDriftWindows,         // windows offered to the drift detector
  kCalibDriftAlarms,          // windows where some signal crossed its test
  kCalibDriftDetected,        // confirmed drift verdicts (post-hysteresis)
  kCalibInsufficientWindows,  // windows skipped: too few samples to trust
  kCalibWindowSkew,           // windowed r_d < r boundary skews clamped
  kCalibRefitModels,          // calibration re-fits published
  kCalibRefitCacheEvictions,  // stale cache entries evicted by fingerprint
  kCalibRescaleDegenerate,    // rescale fallbacks routed to Degenerate

  kCount,
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

namespace detail {
// The enable flag and counter slots live in the header-visible extern so
// add()/enabled() inline down to one relaxed load (+ one relaxed add when
// enabled) at every instrumentation point.
extern std::atomic<bool> g_enabled;
extern std::array<std::atomic<std::uint64_t>, kCounterCount> g_counters;
}  // namespace detail

inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

// Turns collection on or off.  Enabling allocates the span ring on first
// use; disabling stops collection but keeps whatever was recorded (so a
// harness can stop tracing before exporting).
void set_enabled(bool on);

// Increments `counter` by `delta`.  No-op when disabled.
inline void add(Counter counter, std::uint64_t delta = 1) {
  if (!enabled()) return;
  detail::g_counters[static_cast<std::size_t>(counter)].fetch_add(
      delta, std::memory_order_relaxed);
}

// Raises `counter` to at least `value` (gauge high-water mark, e.g. pool
// queue depth).  No-op when disabled.
void record_max(Counter counter, std::uint64_t value);

std::uint64_t counter_value(Counter counter);
std::string_view counter_name(Counter counter);

// One completed span.  `start_us` is microseconds since the process-wide
// trace epoch (the first set_enabled(true)); `depth` is the number of
// enclosing spans on the recording thread; `thread` is a dense id
// assigned per recording thread in first-use order.
struct SpanRecord {
  const char* name = nullptr;
  std::uint32_t thread = 0;
  std::uint32_t depth = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
};

// RAII scoped timing.  Construction with observability disabled records
// nothing and reads no clock; the enable decision is latched at
// construction so a span that straddles set_enabled(false) still closes
// consistently.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;  // nullptr = disarmed (disabled at construction)
  std::uint32_t depth_ = 0;
  double start_us_ = 0.0;
};

struct TraceStats {
  std::uint64_t recorded = 0;   // spans ever recorded
  std::uint64_t retained = 0;   // spans currently in the ring
  std::uint64_t dropped = 0;    // recorded - retained (overwritten)
  std::size_t capacity = 0;
};
TraceStats trace_stats();

// Retained spans, oldest first (by start time).  A snapshot: concurrent
// recording during the call may tear the ring's newest slots; export
// after the instrumented work has finished.
std::vector<SpanRecord> snapshot_spans();

// Every counter with its name, in registry order (zeros included).
std::vector<std::pair<std::string_view, std::uint64_t>> snapshot_counters();

// Zeroes all counters and clears the trace.  The enable flag is left
// untouched.
void reset();

// Structured trace export — the shape docs/obs_trace.schema.json pins:
// {"schema": "cosm-obs-trace", "version": 1, "enabled": ...,
//  "counters": [{"name", "value"}...], "spans": [{...}...],
//  "span_total": N, "span_dropped": N}.
void export_json(std::ostream& out);

}  // namespace cosm::obs
