// The assembled system model — the paper's headline deliverable.
//
// Per device j (Eq. 2):   S_fe_j = S_q * W_a * S_be_j
// Whole system  (Eq. 3):  S(t)   = sum_j r_j S_j(t) / sum_j r_j
//
// predict_sla_percentile(sla) returns P[latency <= sla]: "the percentile
// of requests meeting SLA".  ModelOptions selects the full model or the
// noWTA / ODOPR baselines of Sec. V-C; an optional shared PredictionCache
// (below) memoizes device builds and CDF values across models.
//
// Execution: a model builds and answers on the calling thread.  A fully
// constructed SystemModel is immutable, so all const member functions
// may be called concurrently.
//
// Dedup: devices equal by value (device_model_key) are built once and
// every CDF query evaluates once per distinct device; the rate-weighted
// reduction still runs over every device in device order.
//
// Determinism: for fixed parameters, every query returns bit-identical
// results whether or not a cache is attached — cached values are
// deterministic functions of their keys.  This is enforced by
// tests/core/test_prediction_cache.cpp.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/frontend_model.hpp"
#include "core/params.hpp"
#include "numerics/memo_cache.hpp"
#include "numerics/redundancy_wrap.hpp"
#include "numerics/transform_tape.hpp"

namespace cosm::core {

// Key under which PredictionCache::devices stores a built DeviceModel: a
// value fingerprint of everything that shapes the backend build (device
// parameters, odopr, disk_queue) plus one of the frontend parameters
// (rate, processes, parse distribution, groups), include_wta and every
// RedundancyOptions field — everything that shapes the device's
// response.  SystemModel also groups its devices by this key, so devices
// equal by value are built and evaluated once.  Public so
// external invalidation (the calibration loop, the service's re-fit)
// erases exactly the entries the lookup path would find.  Dereferences
// the distribution pointers: call only on validated parameters.
std::uint64_t device_model_key(const FrontendParams& frontend,
                               const DeviceParams& params,
                               const ModelOptions& options);

// The Euler order of every model CDF (device_cdf, the SLA sweeps, the
// quantile probes): the smallest M whose F stays within
// numerics::kCdfErrorBudget of the M = 20 inversion over the model's
// envelope — the service cluster family, its MG1K/MM1K 4-process, noWTA
// and tiered variants, 5-55 req/s per device, SLAs of 20-500 ms.
// tests/core/test_model_euler_order.cpp pins both halves.  The library
// default (M = 20) stays: the budget holds for these transforms, not for
// arbitrary ones.
inline constexpr int kModelEulerOrder = 11;

// Key under which PredictionCache::cdf stores one device's CDF value at
// one SLA point: (DeviceModel::fingerprint(), SLA bits).  device_cdf
// derives its keys through this function, so external invalidation can
// never drift from the lookup path.
std::uint64_t cdf_cache_key(std::uint64_t device_fingerprint, double sla);

// S_fe = S_q * W_a * S_be (Eq. 2): the latency distribution of ONE attempt
// at the frontend, as a distribution tree (the redundancy wrap is not part
// of it; W_a is left out when options.include_wta is false).  The one
// builder of the tree: DeviceModel compiles it and drops it, and the
// scalar oracles of the tests and benches walk it.  Throws like
// DeviceModel's constructor.
numerics::DistPtr response_tree(const FrontendModel& frontend,
                                DeviceParams params,
                                const ModelOptions& options);

// One device's model, as the prediction path reads it: the single-attempt
// response S_fe compiled to a transform tape, the redundancy wrap
// (numerics/redundancy_wrap.hpp) that maps the tape's (F, f) to the
// completed request's, r_j and the one-attempt mean.  The distribution
// tree and the backend solve it was compiled from are build-time
// temporaries.  Immutable once built and cheap to copy (the tape is
// shared, the rest are small values), so one build — held in
// PredictionCache::devices or shared by the identical devices of a
// SystemModel — backs every copy.
class DeviceModel {
 public:
  // Builds the device model for `params` (rates in req/s, latencies in
  // seconds).  Throws OverloadError when the device violates the model's
  // stability precondition, std::invalid_argument for genuinely bad
  // parameters.
  DeviceModel(const FrontendModel& frontend, DeviceParams params,
              const ModelOptions& options);

  // S_fe compiled to a flat transform tape; bit-identical to
  // response_tree(...)->laplace (see numerics/transform_tape.hpp).
  const numerics::TransformTape& response_tape() const { return *tape_; }
  // The map from one attempt's (F, f) to the completed request's, built
  // from ModelOptions::redundancy (the identity when its mode is kNone).
  const numerics::RedundancyWrap& wrap() const { return wrap_; }
  // r_j, requests/s.
  double arrival_rate() const { return arrival_rate_; }
  // Cache key identity of this device's response distribution:
  // wrap().fingerprint(response_tape().fingerprint()) — the tape's own
  // fingerprint when there is no wrap.  The tape covers device
  // parameters, frontend parameters, and every ModelOptions field that
  // shapes one attempt; the wrap adds its mode, n, k, delay and
  // correlation.  Identically configured devices key the same
  // PredictionCache entries.
  std::uint64_t fingerprint() const { return fingerprint_; }

  // The device's (wrapped) response CDF at t, each base read an Euler
  // inversion of the tape at kModelEulerOrder (two for hedging, at t and
  // t - delay); t in seconds, 0 for t <= 0.
  double cdf(double t) const;
  // Element i is bit-identical to cdf(ts[i]); ONE batched tape call.
  std::vector<double> cdf_many(std::span<const double> ts) const;
  // (F, f) at t: one quantile-search probe.  F is bit-identical to cdf(t).
  numerics::CdfDensityPoint cdf_density(double t) const;
  // Mean response latency in seconds: the tree's mean for one attempt
  // (taken at build), the wrap's integral of 1 - F over one batched base
  // inversion otherwise (computed on each call, never at build).
  double mean_latency() const;

 private:
  std::shared_ptr<const numerics::TransformTape> tape_;
  numerics::RedundancyWrap wrap_;
  std::uint64_t fingerprint_ = 0;
  double arrival_rate_ = 0.0;
  double attempt_mean_ = 0.0;  // mean of S_fe, seconds
};

// Shared memoization across models (Sec. "parallel pipeline" extension):
// what-if sweeps and percentile ladders rebuild mostly identical models,
// and homogeneous clusters repeat the identical device N times.  Within
// one SystemModel, devices equal by value (device_model_key) are built
// and evaluated once; across models, two caches cover the two expensive
// stages:
//  * devices — built device models (compiled response tape, wrap, rate
//    and mean), keyed by device_model_key: the device parameters, the
//    frontend parameters and the options that shape the response.  A
//    miss solves the backend and compiles the tape afresh;
//  * cdf — per-device SLA-percentile values (one Euler inversion each),
//    keyed by cdf_cache_key (DeviceModel::fingerprint(), SLA bits).  The
//    same map holds the final bound of each SystemModel::latency_quantile
//    search, keyed by quantile_cache_key (every device's fingerprint and
//    rate, plus p); the search's probes are not cached.
// Keys are 64-bit value fingerprints (numerics::hash_mix /
// numerics::fingerprint): bit-identical parameters hit, anything else
// misses (up to ~2^-64 fingerprint-collision odds).  Cached values are
// deterministic functions of their keys, so cached and uncached runs are
// bit-identical.  Thread-safe; share one instance across threads and
// models, and keep it alive for as long as any SystemModel holds a
// pointer to it.
struct PredictionCache {
  numerics::MemoCache<std::uint64_t, DeviceModel> devices{1 << 10};
  numerics::MemoCache<std::uint64_t, double> cdf{1 << 16};

  // Combined counters over both caches (for logs and
  // BENCH_pipeline.json).
  numerics::CacheStats combined_stats() const {
    numerics::CacheStats total;
    for (const numerics::CacheStats& s : {devices.stats(), cdf.stats()}) {
      total.hits += s.hits;
      total.misses += s.misses;
      total.evictions += s.evictions;
      total.size += s.size;
      total.capacity += s.capacity;
    }
    return total;
  }
};

// Key under which PredictionCache::cdf stores a system's answer to a cold
// latency_quantile(percentile) search: every device's fingerprint() and
// arrival_rate(), in device order, plus the percentile bits, under a
// domain constant of its own (distinct from cdf_cache_key's SLA points).
// Those values fix every probe of the search and its seed, so the cached
// bound is the one the search would return.
std::uint64_t quantile_cache_key(const std::vector<DeviceModel>& devices,
                                 double percentile);

class SystemModel {
 public:
  // Validates and assembles the whole-system model.  A non-null `cache`
  // is read and filled by the build and every query (results are
  // identical without it), and must outlive this model.  Throws
  // OverloadError when any device or frontend group is saturated,
  // std::invalid_argument for invalid parameters (negative rates, rate
  // mismatches, missing distributions).
  explicit SystemModel(SystemParams params, ModelOptions options = {},
                       PredictionCache* cache = nullptr);

  const FrontendModel& frontend() const { return frontend_; }
  const std::vector<DeviceModel>& devices() const { return devices_; }

  // P[response latency <= sla] over the whole system (Eq. 3), each
  // device's CDF its DeviceModel::cdf (inversions at kModelEulerOrder).
  // Precondition: sla > 0 (seconds).
  double predict_sla_percentile(double sla) const;
  // Batch form: one value per entry of `slas`, each distinct device
  // evaluating the cells the cache does not hold in one batched tape
  // call.  Equivalent to —
  // and bit-identical with — calling predict_sla_percentile per element.
  std::vector<double> predict_sla_percentiles(
      const std::vector<double>& slas) const;
  // Same, restricted to one device.  Preconditions: device index in
  // range, sla > 0 (seconds).
  double predict_sla_percentile_device(std::size_t device,
                                       double sla) const;
  // Inverse: latency bound (seconds) such that `percentile` of requests
  // meet it.  Precondition: percentile in (0, 1).  Runs
  // numerics::solve_quantile (safeguarded Newton, stopping once the
  // step is within numerics::kCdfErrorBudget / f) seeded from
  // mean_response_latency(); each probe evaluates (F, f) at
  // kModelEulerOrder once per distinct device and reduces them
  // rate-weighted in device order, so its F equals
  // predict_sla_percentile.  Probes never touch PredictionCache::cdf;
  // with a cache attached, every call reads and writes its final answer
  // there under quantile_cache_key (the root is a function of that key
  // alone).
  double latency_quantile(double percentile) const;
  // Quantile ladder: element i is latency_quantile(percentiles[i]), bit
  // for bit, served from and written to the same cache entries.
  std::vector<double> latency_quantiles(
      const std::vector<double>& percentiles) const;
  // Rate-weighted mean response latency in seconds (for what-if analyses):
  // each distinct device's DeviceModel::mean_latency(), reduced in device
  // order.
  double mean_response_latency() const;

 private:
  double device_cdf(const DeviceModel& model, double sla) const;
  // One quantile-search probe: system F and f at t (Eq. 3 and its
  // derivative).
  numerics::CdfDensityPoint cdf_density(double t) const;

  FrontendModel frontend_;
  std::vector<DeviceModel> devices_;
  // slot_[i]: index into distinct_ of device i's value class;
  // distinct_[u]: the first device of class u.
  std::vector<std::size_t> slot_;
  std::vector<std::size_t> distinct_;
  double total_rate_ = 0.0;
  PredictionCache* cache_ = nullptr;
};

}  // namespace cosm::core
