// Long-lived what-if prediction service.
//
// The library answers one what-if per process invocation; an operator's
// workflow is a *stream* of them — "would cluster A meet 100 ms p95 at
// 1.3x load?", "how many devices does cluster B need tonight?", "how much
// SSD buys cluster C p99 <= 50 ms?" — asked against many named clusters
// at once.  WhatIfService keeps the models' expensive state (one shared
// core::PredictionCache) resident across requests and answers each from a
// line-delimited JSON protocol:
//
//   request:  one JSON object per line, {"op": "...", ...}
//   response: one JSON object per line, {"ok": true/false, ...}
//
// Ops (fields beyond `op`; every request may carry an `id` that is echoed
// back verbatim for correlation):
//   register  cluster, rate, devices [, processes, frontend_processes,
//             frontend_parse_ms, backend_parse_ms, data_read_factor,
//             index_miss, meta_miss, data_miss,
//             {index,meta,data}_disk_{shape,rate}] — define or replace a
//             named cluster family (the device profile defaults to the
//             repo's benchmarked HDD profile).
//   sla       cluster, sla | slas[] (seconds) [, rate, devices] —
//             P[latency <= sla] for each bound.
//   quantile  cluster, p | ps[] [, rate, devices] — latency bound
//             (seconds) met by fraction p of requests.
//   devices   cluster, sla, percentile [, rate, min, max] — smallest
//             device count meeting the target (core::min_devices_for).
//   capacity  cluster, sla, percentile [, devices, rate_limit,
//             tolerance] — largest admitted rate meeting the target
//             (core::max_admission_rate).
//   tier_size cluster, sla, percentile, capacities[] (chunks) [, objects,
//             zipf_skew, chunk_kb, mem_chunks, ssd_read_ms,
//             ssd_write_ms] — smallest SSD tier meeting the target, hit
//             ratios predicted by Che's approximation over the Zipf
//             catalog (calibration::predict_tier_hit_ratio).
//   calibrate cluster, rate, mean_service_ms [, samples, min_samples,
//             data_read_rate, index_miss, meta_miss, data_miss,
//             ph_delta, ph_lambda, warmup_windows, confirm_windows,
//             cooldown_windows] — offer one closed measurement window of
//             online metrics to the cluster's drift detector
//             (calibration/drift.hpp).  On confirmed drift the spec is
//             re-fitted (rates, miss ratios, disk service means
//             re-split via calibration::split_disk_service with the
//             registered shapes kept; the family's distribution
//             objects are rebuilt from it) and the stale device-model
//             cache entry is erased by key; stale cdf entries are
//             unreachable under the new fingerprint and age out by
//             LRU.  Detector knobs are read at the first
//             calibrate call per cluster.
//   drift_status cluster — the cluster's loop state: windows offered,
//             last verdict, alarmed signals, re-fit count, current rate.
//   list      — registered cluster names.
//   stats     — shared-cache counters (hits/misses/evictions/size/
//             capacity) of the device_cache and cdf_cache, and this
//             service's request, error and prediction counts (the stats
//             request included).
//
// Counts.  Integer fields — devices, min, max, processes,
// frontend_processes, objects, capacity/capacities, mem_chunks and the
// calibrate *_windows knobs — must be whole numbers within the protocol
// bounds below; anything else (2.7, -1, 1e20) is refused with an error
// line naming the field.  The bounds cap what one request may ask the
// service to allocate and solve; they are not limits of the model.
//
// Execution.  Each request is handled entirely on the caller's thread;
// the service object is safe to drive from many threads at once (the
// registry is guarded by a shared_mutex, requests share the registered
// Cluster, which is immutable, and each PredictionCache map takes one
// mutex per lookup or insert).
//
// Determinism: identical requests against identical registry state
// produce byte-identical response lines, cached or not — the property
// tests/service/test_service.cpp and the repository benchmark's
// service_hit workload check.
//
// Observability: the service counts its requests, error responses and
// produced numbers itself (the stats op), and mirrors each count into
// obs::Counter::kServiceRequests, kServiceErrors and kServicePredictions
// for trace export.  Each op runs under an obs::Span named
// "service.<op>"; handle_line's JSON parse and dump run under
// "service.json_parse" and "service.json_dump".
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "calibration/drift.hpp"
#include "common/json.hpp"
#include "core/params.hpp"
#include "core/system_model.hpp"
#include "numerics/distribution.hpp"

namespace cosm::service {

// Protocol bounds on count fields (see "Counts" above): devices, min,
// max, processes, frontend_processes and the *_windows knobs take at most
// kMaxUnitCount; objects, capacities and mem_chunks at most
// kMaxChunkCount; chunk_kb at most kMaxChunkKb (1 GiB chunks).
inline constexpr std::uint64_t kMaxUnitCount = 65536;
inline constexpr std::uint64_t kMaxChunkCount = std::uint64_t{1} << 24;
inline constexpr double kMaxChunkKb = 1024.0 * 1024.0;

// A registered cluster family: everything needed to build SystemParams
// for any (total rate, device count) the what-if ops probe.  Defaults
// mirror the HDD profile benchmarked throughout the repo.
struct ClusterSpec {
  double rate = 400.0;          // total arrival rate, req/s
  unsigned devices = 8;         // device count
  unsigned processes = 1;       // backend processes per device
  unsigned frontend_processes = 3;
  double frontend_parse_ms = 0.8;
  double backend_parse_ms = 0.5;
  double data_read_factor = 1.2;  // data-read rate / arrival rate
  double index_miss = 0.3;
  double meta_miss = 0.3;
  double data_miss = 0.7;
  double index_disk_shape = 3.0, index_disk_rate = 300.0;
  double meta_disk_shape = 2.5, meta_disk_rate = 312.5;
  double data_disk_shape = 2.8, data_disk_rate = 233.33;
};

// A ClusterSpec together with the distribution objects its fields
// describe (the parse Degenerates and the three disk Gammas).  The objects
// are built once, in the constructor, and every build() shares them, so
// every request against one registered family hands the model the same
// objects, and their memoized fingerprints (numerics::fingerprint), which
// key the prediction cache, are computed once per family rather than once
// per request.  Immutable after construction; the service registers a
// family as a shared Cluster and a calibrate re-fit replaces it with a
// new Cluster built from the re-fitted spec, never edits it in place.
class Cluster {
 public:
  explicit Cluster(const ClusterSpec& spec);

  const ClusterSpec& spec() const { return spec_; }

  // SystemParams for this family at (total_rate, device_count), traffic
  // split evenly; `tier_hit_ratio` > 0 attaches an SSD tier with that hit
  // ratio and fresh Degenerate read/write service times.
  core::SystemParams build(double total_rate, unsigned device_count,
                           double tier_hit_ratio = 0.0,
                           double ssd_read_ms = 0.0,
                           double ssd_write_ms = 0.0) const;

 private:
  ClusterSpec spec_;
  numerics::DistPtr frontend_parse_;
  numerics::DistPtr backend_parse_;
  numerics::DistPtr index_disk_;
  numerics::DistPtr meta_disk_;
  numerics::DistPtr data_disk_;
};

class WhatIfService {
 public:
  WhatIfService() = default;

  // One protocol round: parses `line`, dispatches, serializes.  Never
  // throws — every failure becomes an {"ok": false, "error": ...} line.
  std::string handle_line(std::string_view line);

  // Structured form of the same round-trip (for tests and embedding).
  common::JsonValue handle(const common::JsonValue& request);

  // The shared cross-tenant cache (exposed for stats and benches).
  core::PredictionCache& cache() { return cache_; }

 private:
  common::JsonValue dispatch(const common::JsonValue& request);
  std::shared_ptr<const Cluster> cluster_for(
      const common::JsonValue& request) const;
  // An {"ok": false} response, counted as an error.
  common::JsonValue error_response(const common::JsonValue& request,
                                   const std::string& what);
  // Counts `n` produced numbers.
  void count_predictions(std::size_t n) const;

  // Per-cluster online calibration state (the service-facing face of the
  // loop in calibration/recalibrate.hpp — signals arrive over the wire
  // instead of from simulator counters, and the re-fit replaces the
  // registered Cluster with one built from the re-fitted spec).
  struct DriftState {
    calibration::DriftDetector detector;
    std::uint64_t windows = 0;
    std::uint64_t insufficient = 0;
    std::uint64_t refits = 0;
    calibration::DriftVerdict last_verdict =
        calibration::DriftVerdict::kWarmup;
    std::uint32_t last_alarm_mask = 0;
  };

  common::JsonValue op_register(const common::JsonValue& request);
  common::JsonValue op_calibrate(const common::JsonValue& request);
  common::JsonValue op_drift_status(const common::JsonValue& request) const;
  common::JsonValue op_sla(const common::JsonValue& request) const;
  common::JsonValue op_quantile(const common::JsonValue& request) const;
  common::JsonValue op_devices(const common::JsonValue& request) const;
  common::JsonValue op_capacity(const common::JsonValue& request) const;
  common::JsonValue op_tier_size(const common::JsonValue& request) const;
  common::JsonValue op_list() const;
  common::JsonValue op_stats() const;

  // The stats op's counts, always kept (obs counters count only while
  // tracing is on).
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> errors_{0};
  mutable std::atomic<std::uint64_t> predictions_{0};
  // Shared across every tenant and every calling thread (each map is
  // internally locked, numerics/memo_cache.hpp).  `mutable` because
  // caching is invisible state: const query ops still warm it.
  mutable core::PredictionCache cache_;
  mutable std::shared_mutex registry_mutex_;
  // Requests copy a family's pointer out under a shared lock and build
  // from it unlocked; register and a re-fit swap in a new Cluster.
  std::unordered_map<std::string, std::shared_ptr<const Cluster>> clusters_;
  // Guarded by registry_mutex_ alongside the clusters it re-fits.
  std::unordered_map<std::string, DriftState> drift_states_;
};

}  // namespace cosm::service
