// The assembled system model — the paper's headline deliverable.
//
// Per device j (Eq. 2):   S_fe_j = S_q * W_a * S_be_j
// Whole system  (Eq. 3):  S(t)   = sum_j r_j S_j(t) / sum_j r_j
//
// predict_sla_percentile(sla) returns P[latency <= sla]: "the percentile
// of requests meeting SLA".  ModelOptions selects the full model or the
// noWTA / ODOPR baselines of Sec. V-C; PredictOptions selects how the
// work is executed — fan-out width across devices/SLA points and an
// optional shared PredictionCache (see core/params.hpp).
//
// Thread-safety: a fully constructed SystemModel is immutable, so all
// const member functions may be called concurrently.  Construction itself
// may fan out across ThreadPool::global() when
// PredictOptions::num_threads != 1.
//
// Dedup: devices equal by value (device_model_key) are built once and
// every CDF query evaluates once per distinct device; the rate-weighted
// reduction still runs over every device in device order.
//
// Determinism: for fixed parameters, every query returns bit-identical
// results regardless of num_threads and of whether a cache is attached —
// parallel workers write disjoint slots that are reduced in device order,
// and cached values are deterministic functions of their keys.  This is
// enforced by tests/core/test_parallel_prediction.cpp.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/backend_model.hpp"
#include "core/frontend_model.hpp"
#include "core/params.hpp"
#include "numerics/redundancy_wrap.hpp"
#include "numerics/transform_tape.hpp"

namespace cosm::core {

// Value fingerprint of everything that shapes a backend build — the key
// under which PredictionCache::backends stores the built BackendModel.
// Public so the online calibration loop can erase exactly the entries a
// re-fit made stale (fingerprint-keyed invalidation) instead of clearing
// shared caches.  Dereferences the distribution pointers: call only on
// validated parameters.
std::uint64_t backend_fingerprint(const DeviceParams& params,
                                  ModelOptions options);

// Key under which PredictionCache::devices stores a built DeviceModel:
// backend_fingerprint(params, options) plus a value fingerprint of the
// frontend parameters (rate, processes, parse distribution, groups),
// include_wta and every RedundancyOptions field — everything that shapes
// the device's response.  SystemModel also groups its devices by this key,
// so devices equal by value are built and evaluated once.  Public so
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

// One device's model: backend, the single-attempt response tree S_fe, its
// compiled tape, and the redundancy wrap (numerics/redundancy_wrap.hpp)
// that maps the tape's (F, f) to the completed request's.  Immutable once
// built and cheap to copy (every member is shared or a small value), so
// one build — held in PredictionCache::devices or shared by the identical
// devices of a SystemModel — backs every copy.
class DeviceModel {
 public:
  // Builds the device model for `params` (rates in req/s, latencies in
  // seconds).  The model keeps shared ownership of `frontend`'s S_q, not a
  // reference to `frontend`.  When `predict.cache` is set, the backend
  // build is served from the cache: identical device parameter sets (by
  // value fingerprint) share one BackendModel.
  // Throws OverloadError when the device violates the model's stability
  // precondition, std::invalid_argument for genuinely bad parameters.
  DeviceModel(const FrontendModel& frontend, DeviceParams params,
              ModelOptions options, const PredictOptions& predict = {});

  const BackendModel& backend() const { return *backend_; }
  // S_fe: the latency distribution of ONE attempt at the frontend (the
  // redundancy wrap, if any, is not part of it).
  numerics::DistPtr response_time() const { return response_; }
  // S_fe compiled to a flat transform tape; bit-identical to
  // response_time()->laplace (see numerics/transform_tape.hpp).
  const numerics::TransformTape& response_tape() const { return *tape_; }
  // The map from one attempt's (F, f) to the completed request's, built
  // from ModelOptions::redundancy (the identity when its mode is kNone).
  const numerics::RedundancyWrap& wrap() const { return wrap_; }
  // r_j, requests/s.
  double arrival_rate() const { return backend_->params().arrival_rate; }
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
  // Mean response latency in seconds: the tree's mean for one attempt,
  // the wrap's integral of 1 - F over one batched base inversion
  // otherwise (computed on each call, never at build).
  double mean_latency() const;

 private:
  std::shared_ptr<const BackendModel> backend_;
  numerics::DistPtr response_;
  std::shared_ptr<const numerics::TransformTape> tape_;
  numerics::RedundancyWrap wrap_;
  std::uint64_t fingerprint_ = 0;
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
  // Validates and assembles the whole-system model.  `predict` controls
  // execution only (see PredictOptions): results are identical for every
  // setting.  If `predict.cache` is non-null it must outlive this model.
  // Throws OverloadError when any device or frontend group is saturated,
  // std::invalid_argument for invalid parameters (negative rates, rate
  // mismatches, missing distributions).
  explicit SystemModel(SystemParams params, ModelOptions options = {},
                       PredictOptions predict = {});

  const FrontendModel& frontend() const { return frontend_; }
  const std::vector<DeviceModel>& devices() const { return devices_; }

  // P[response latency <= sla] over the whole system (Eq. 3), each
  // device's CDF its DeviceModel::cdf (inversions at kModelEulerOrder).
  // Precondition: sla > 0 (seconds).
  double predict_sla_percentile(double sla) const;
  // Batch form: one value per entry of `slas`, fanning the (device × SLA
  // point) grid across PredictOptions::num_threads.  Equivalent to — and
  // bit-identical with — calling predict_sla_percentile per element.
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
  PredictOptions predict_;
};

}  // namespace cosm::core
