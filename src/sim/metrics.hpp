// Simulation measurement taps.
//
// SimMetrics records everything the experiments and the calibration
// pipeline need:
//  * per-request response latencies (measured at the frontend, as in the
//    paper) with their device, completion time, and accept()-wait;
//  * per-device operation accounting: arrival counts, data-read (chunk)
//    counts, cache hits/misses per kind — the "system online metrics" of
//    Sec. IV-B;
//  * per-device disk service-time samples per kind — the raw material of
//    the Sec. IV-A benchmarking, available here for cross-checks;
//  * per-operation latency samples (0 on cache hit) so the latency-
//    threshold miss-ratio estimator can be exercised exactly as published.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/cache.hpp"
#include "stats/histogram.hpp"
#include "stats/summary.hpp"

namespace cosm::sim {

struct RequestSample {
  bool is_write = false;
  bool timed_out = false;
  bool failed = false;            // every attempt was killed by a fault
  // At least one timeout/fault-triggered retry happened.  Distinct from
  // attempts > 1: hedged and fan-out requests dispatch several attempts
  // up front without any of them being a retry.
  bool retried = false;
  double frontend_arrival = 0.0;
  double response_latency = 0.0;  // first-byte-at-frontend - arrival
  double backend_latency = 0.0;   // backend parse-queue entry -> respond
  double accept_wait = 0.0;       // connection in pool -> accept()-ed
  std::uint32_t device = 0;       // device of the final attempt
  std::uint32_t chunks = 0;
  std::uint32_t attempts = 1;     // 1 = served on the first try
  std::uint32_t failovers = 0;    // attempts that switched replica
  std::uint32_t hedges = 0;       // hedge attempts issued for this request
};

struct DeviceCounters {
  std::uint64_t requests = 0;
  // Dispatched attempts, retries included — the retry-inflated arrival
  // stream this device actually saw (the lambda the degraded what-if
  // model needs).
  std::uint64_t attempts = 0;
  std::uint64_t data_reads = 0;  // chunk reads, cache hits included
  std::array<std::uint64_t, kAccessKindCount> accesses{};  // by AccessKind
  std::array<std::uint64_t, kAccessKindCount> misses{};
  std::array<double, kAccessKindCount> disk_service_sum{};
  std::array<std::uint64_t, kAccessKindCount> disk_ops{};
  // SSD cache tier (tiering extension; all zero when the tier is off).
  // O(1) counters, so streaming mode keeps them for arbitrarily long runs.
  std::uint64_t tier_reads = 0;       // data reads offered to the tier
  std::uint64_t tier_hits = 0;        // served from the SSD
  std::uint64_t tier_promotions = 0;  // clean installs after a miss
  std::uint64_t tier_writebacks = 0;  // dirty demotion writes (evictions)
  std::uint64_t tier_drain_writebacks = 0;  // outage-recovery flushes
  std::uint64_t tier_ops = 0;         // SSD operations (reads + writes)
  double tier_service_sum = 0.0;      // raw SSD service seconds

  // Measured tier hit ratio (NaN-free: 0 when the tier saw no reads).
  double tier_hit_ratio() const {
    return tier_reads == 0
               ? 0.0
               : static_cast<double>(tier_hits) /
                     static_cast<double>(tier_reads);
  }
};

// Request outcomes per class (robustness extension): how the client
// population experienced the run.
struct OutcomeCounts {
  std::uint64_t ok = 0;           // responded on the first attempt
  std::uint64_t ok_retried = 0;   // responded after at least one retry
  std::uint64_t timed_out = 0;    // gave up after the last attempt timed out
  std::uint64_t failed = 0;       // last attempt fault-killed, retries spent
  std::uint64_t retry_attempts = 0;     // extra attempts dispatched
  std::uint64_t failover_attempts = 0;  // attempts aimed at a new replica
  // Redundancy extension.
  std::uint64_t hedge_attempts = 0;     // hedge attempts dispatched
  std::uint64_t hedge_wins = 0;         // requests won by a hedge attempt
  std::uint64_t fanout_groups = 0;      // (n,k) fan-out groups created
  std::uint64_t cancelled_attempts = 0;  // losers cancelled by a completion
};

// Constant-memory latency accounting for long runs (streaming mode): a
// log-bucketed histogram for quantiles plus Welford moments, instead of
// one retained RequestSample per request.
struct StreamingConfig {
  double hist_min = 1e-4;   // 0.1 ms — well under any simulated latency
  double hist_max = 100.0;  // seconds; above goes to the clamp bucket
  int buckets_per_decade = 200;  // <=0.6% relative quantile error
};

class SimMetrics {
 public:
  explicit SimMetrics(std::uint32_t device_count);

  // Set true to retain per-operation latency samples (memory-heavy; used
  // by calibration tests, off by default).
  bool keep_operation_samples = false;
  // Set false to drop per-request samples and keep only counters.
  bool keep_request_samples = true;
  // Requests arriving before this simulated time are counted but not
  // sampled — the paper's warmup/transition exclusion.
  double sample_start_time = 0.0;

  // Switches latency recording to constant memory: successful post-warmup
  // latencies go into a log histogram + running moments and per-request
  // samples are dropped.  Call before the run produces any sample.
  void enable_streaming(const StreamingConfig& config = {});
  bool streaming() const { return latency_hist_.has_value(); }

  // Pre-sizes the retained-sample vector from the expected benchmark
  // arrival count (no-op in streaming mode); kills reallocation stalls in
  // long sampled runs.
  void reserve_request_samples(std::size_t count);

  // Response-latency distribution of successful post-warmup requests,
  // available in BOTH modes: exact (nth_element over retained samples) in
  // sampled mode, within one bucket width in streaming mode.
  double latency_quantile(double p) const;
  std::uint64_t latency_count() const { return latency_count_; }
  const stats::StreamingStats& latency_moments() const {
    return latency_moments_;
  }

  void on_request_complete(const RequestSample& sample);
  // One attempt dispatched toward `device` (the retry-inflated arrival
  // accounting; called for first tries, retries, hedges, and fan-out
  // siblings alike — every attempt is load the device actually saw).
  void on_attempt(std::uint32_t device, bool is_retry, bool is_failover);
  // Redundancy lifecycle taps (each also files its obs counter).
  void on_hedge_issued();
  void on_hedge_win();
  void on_fanout_group();
  void on_attempt_cancelled();
  void on_cache_access(std::uint32_t device, AccessKind kind, bool hit);
  // SSD cache tier taps (tiering extension; each also files its
  // sim.tier.* obs counter).
  void on_tier_read(std::uint32_t device, bool hit);
  void on_tier_op(std::uint32_t device, double service_time);
  void on_tier_promotion(std::uint32_t device);
  void on_tier_writeback(std::uint32_t device, bool drain);
  void on_disk_op(std::uint32_t device, AccessKind kind,
                  double service_time);
  void on_data_read(std::uint32_t device);
  void on_operation_latency(std::uint32_t device, AccessKind kind,
                            double latency);

  // Folds another shard's metrics into this one (the cross-shard metric
  // reduction of sim/shard.hpp).  `other`'s devices land in the id range
  // [device_offset, device_offset + other.device_count()); retained
  // request samples are appended in `other`'s order with their device ids
  // remapped, so repeated merges in shard order yield a deterministic
  // (per-shard-concatenated, not globally arrival-sorted) sample vector.
  // Streaming state merges exactly: Welford moments via
  // StreamingStats::merge (Chan's algorithm), histograms bucket-wise via
  // LogHistogram::merge — both sides must be in the same latency mode and
  // share the histogram layout.  Outcome and per-device counters sum.
  void merge_from(const SimMetrics& other, std::uint32_t device_offset);

  const std::vector<RequestSample>& requests() const { return requests_; }
  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t failures() const { return failed_; }
  OutcomeCounts outcomes() const;
  const DeviceCounters& device(std::uint32_t id) const;
  std::uint32_t device_count() const {
    return static_cast<std::uint32_t>(devices_.size());
  }
  std::uint64_t completed_requests() const { return completed_; }

  // Measured miss ratio of one access kind on one device.
  double miss_ratio(std::uint32_t device, AccessKind kind) const;
  // Mean raw disk service time of one kind on one device.
  double mean_disk_service(std::uint32_t device, AccessKind kind) const;

  const std::vector<double>& operation_samples(std::uint32_t device,
                                               AccessKind kind) const;

 private:
  std::vector<DeviceCounters> devices_;
  std::vector<RequestSample> requests_;
  std::optional<stats::LogHistogram> latency_hist_;
  stats::StreamingStats latency_moments_;
  std::uint64_t latency_count_ = 0;
  // Scratch for sampled-mode latency_quantile (selection, not a sort of a
  // fresh copy); mutable because quantile queries are logically const.
  mutable std::vector<double> quantile_scratch_;
  // op_samples_[device][kind]
  std::vector<std::array<std::vector<double>, kAccessKindCount>> op_samples_;
  std::uint64_t completed_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t retried_ok_ = 0;
  std::uint64_t retry_attempts_ = 0;
  std::uint64_t failover_attempts_ = 0;
  std::uint64_t hedge_attempts_ = 0;
  std::uint64_t hedge_wins_ = 0;
  std::uint64_t fanout_groups_ = 0;
  std::uint64_t cancelled_attempts_ = 0;
};

}  // namespace cosm::sim
