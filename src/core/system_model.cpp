#include "core/system_model.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/require.hpp"
#include "core/backend_model.hpp"
#include "obs/obs.hpp"

namespace cosm::core {

using numerics::Convolution;
using numerics::DistPtr;
using numerics::hash_mix;

namespace {

// Value fingerprint of everything that shapes a backend build: the prefix
// of device_model_key.  Computed only on already-validated parameters
// (the distribution pointers are dereferenced).
std::uint64_t backend_fingerprint(const DeviceParams& params,
                                  const ModelOptions& options) {
  std::uint64_t h = 0x636f736d00000001ULL;
  h = hash_mix(h, params.arrival_rate);
  h = hash_mix(h, params.data_read_rate);
  h = hash_mix(h, params.index_miss_ratio);
  h = hash_mix(h, params.meta_miss_ratio);
  h = hash_mix(h, params.data_miss_ratio);
  h = hash_mix(h, static_cast<std::uint64_t>(params.processes));
  h = hash_mix(h, numerics::fingerprint(*params.index_disk));
  h = hash_mix(h, numerics::fingerprint(*params.meta_disk));
  h = hash_mix(h, numerics::fingerprint(*params.data_disk));
  h = hash_mix(h, numerics::fingerprint(*params.backend_parse));
  h = hash_mix(h, static_cast<std::uint64_t>(options.odopr));
  h = hash_mix(h, static_cast<std::uint64_t>(options.disk_queue));
  if (params.tier.enabled) {
    h = hash_mix(h, std::uint64_t{0x7469657257000001ULL});  // tier marker
    h = hash_mix(h, params.tier.hit_ratio);
    h = hash_mix(h, numerics::fingerprint(*params.tier.read_service));
    if (params.tier.write_service) {
      h = hash_mix(h, numerics::fingerprint(*params.tier.write_service));
    }
    h = hash_mix(h, static_cast<std::uint64_t>(params.tier.promote_on_read));
  }
  return h;
}

// Value fingerprint of the frontend parameters: every field FrontendModel
// reads to build S_q.
std::uint64_t frontend_fingerprint(const FrontendParams& frontend) {
  std::uint64_t h = 0x636f736d00000003ULL;
  h = hash_mix(h, frontend.arrival_rate);
  h = hash_mix(h, static_cast<std::uint64_t>(frontend.processes));
  if (frontend.frontend_parse) {
    h = hash_mix(h, numerics::fingerprint(*frontend.frontend_parse));
  }
  h = hash_mix(h, static_cast<std::uint64_t>(frontend.groups.size()));
  for (const FrontendGroup& group : frontend.groups) {
    h = hash_mix(h, static_cast<std::uint64_t>(group.processes));
    h = hash_mix(h, group.traffic_share);
    h = hash_mix(h, numerics::fingerprint(*group.frontend_parse));
  }
  return h;
}

// device_model_key with the frontend fingerprint already folded.
std::uint64_t device_key(std::uint64_t frontend_fp, const DeviceParams& params,
                         const ModelOptions& options) {
  std::uint64_t h = hash_mix(backend_fingerprint(params, options), frontend_fp);
  h = hash_mix(h, static_cast<std::uint64_t>(options.include_wta));
  const RedundancyOptions& red = options.redundancy;
  h = hash_mix(h, static_cast<std::uint64_t>(red.mode));
  h = hash_mix(h, static_cast<std::uint64_t>(red.n));
  h = hash_mix(h, static_cast<std::uint64_t>(red.k));
  h = hash_mix(h, red.hedge_delay);
  h = hash_mix(h, static_cast<std::uint64_t>(red.fork_join_correction));
  return h;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// True when `a` and `b` match field for field, distributions compared by
// pointer: a cheap sufficient test for equal device_key values, which
// spares fingerprinting the copies of one parameter set.
bool same_params(const DeviceParams& a, const DeviceParams& b) {
  return same_bits(a.arrival_rate, b.arrival_rate) &&
         same_bits(a.data_read_rate, b.data_read_rate) &&
         same_bits(a.index_miss_ratio, b.index_miss_ratio) &&
         same_bits(a.meta_miss_ratio, b.meta_miss_ratio) &&
         same_bits(a.data_miss_ratio, b.data_miss_ratio) &&
         a.index_disk == b.index_disk && a.meta_disk == b.meta_disk &&
         a.data_disk == b.data_disk && a.backend_parse == b.backend_parse &&
         a.processes == b.processes && a.tier.enabled == b.tier.enabled &&
         same_bits(a.tier.hit_ratio, b.tier.hit_ratio) &&
         a.tier.read_service == b.tier.read_service &&
         a.tier.write_service == b.tier.write_service &&
         a.tier.promote_on_read == b.tier.promote_on_read;
}

// S_fe over an already built backend: the one place the tree is composed.
DistPtr compose_response(const FrontendModel& frontend,
                         const BackendModel& backend, bool include_wta) {
  std::vector<DistPtr> components;
  components.push_back(frontend.queueing_latency());  // S_q
  if (include_wta) {
    components.push_back(backend.waiting_time());  // W_a = W_be
  }
  components.push_back(backend.response_time());  // S_be
  return std::make_shared<Convolution>(std::move(components));
}

// One device model, served from PredictionCache::devices when a cache is
// attached.  Copies share the build (DeviceModel holds the tape shared).
DeviceModel build_device(const FrontendModel& frontend, DeviceParams params,
                         const ModelOptions& options, PredictionCache* cache,
                         std::uint64_t key) {
  if (cache == nullptr) {
    return DeviceModel(frontend, std::move(params), options);
  }
  if (auto cached = cache->devices.lookup(key)) {
    obs::add(obs::Counter::kDeviceCacheHit);
    return std::move(*cached);
  }
  obs::add(obs::Counter::kDeviceCacheMiss);
  DeviceModel model(frontend, std::move(params), options);
  cache->devices.insert(key, model);
  return model;
}

}  // namespace

std::uint64_t device_model_key(const FrontendParams& frontend,
                               const DeviceParams& params,
                               const ModelOptions& options) {
  return device_key(frontend_fingerprint(frontend), params, options);
}

std::uint64_t cdf_cache_key(std::uint64_t device_fingerprint, double sla) {
  return hash_mix(device_fingerprint, sla);
}

std::uint64_t quantile_cache_key(const std::vector<DeviceModel>& devices,
                                 double percentile) {
  std::uint64_t h = 0x636f736d00000004ULL;
  for (const DeviceModel& device : devices) {
    h = hash_mix(h, device.fingerprint());
    h = hash_mix(h, device.arrival_rate());
  }
  return hash_mix(h, percentile);
}

DistPtr response_tree(const FrontendModel& frontend, DeviceParams params,
                      const ModelOptions& options) {
  const BackendModel backend(std::move(params), options);
  return compose_response(frontend, backend, options.include_wta);
}

DeviceModel::DeviceModel(const FrontendModel& frontend, DeviceParams params,
                         const ModelOptions& options) {
  obs::Span span("core.device_build");
  // The backend solve and the tree are scaffolding: only the compiled
  // tape and a few scalars outlive this constructor, so the tree is freed
  // here while it is still hot in cache.
  const BackendModel backend(std::move(params), options);
  arrival_rate_ = backend.params().arrival_rate;
  const DistPtr response =
      compose_response(frontend, backend, options.include_wta);
  attempt_mean_ = response->mean();
  tape_ = std::make_shared<const numerics::TransformTape>(
      numerics::TransformTape::compile(response));
  const RedundancyOptions& red = options.redundancy;
  // Redundant reads complete from several concurrent attempts: the wrap
  // maps one attempt's (F, f) to the matching order statistic's.  The
  // fork-join correction feeds the backend utilization in as the attempt
  // correlation.
  const double corr = red.fork_join_correction
                          ? std::clamp(backend.utilization(), 0.0, 1.0)
                          : 0.0;
  switch (red.mode) {
    case RedundancyOptions::Mode::kNone:
      break;
    case RedundancyOptions::Mode::kHedge:
      wrap_ = numerics::RedundancyWrap::hedge(red.hedge_delay, corr);
      break;
    case RedundancyOptions::Mode::kMinOfN:
      wrap_ = numerics::RedundancyWrap::kth_of_n(red.n, 1, corr);
      break;
    case RedundancyOptions::Mode::kKthOfN:
      wrap_ = numerics::RedundancyWrap::kth_of_n(red.n, red.k, corr);
      break;
  }
  // The tape fingerprint doubles as the CDF cache key: everything that
  // shapes one attempt — device parameters, the frontend's S_q, WTA
  // inclusion, the disk-queue variant — lands in the compiled op/param
  // stream, and identically constructed devices compile identical tapes.
  // The wrap folds its own fields on top (and leaves it as is when it is
  // the identity).
  fingerprint_ = wrap_.fingerprint(tape_->fingerprint());
}

double DeviceModel::cdf(double t) const {
  const double base = tape_->cdf(t, kModelEulerOrder);
  if (wrap_.mode() != numerics::RedundancyWrap::Mode::kHedge) {
    return wrap_.cdf(base, 0.0);
  }
  return wrap_.cdf(base, tape_->cdf(t - wrap_.delay(), kModelEulerOrder));
}

std::vector<double> DeviceModel::cdf_many(std::span<const double> ts) const {
  if (wrap_.mode() != numerics::RedundancyWrap::Mode::kHedge) {
    std::vector<double> out = tape_->cdf_many(ts, kModelEulerOrder);
    for (double& f : out) f = wrap_.cdf(f, 0.0);
    return out;
  }
  // Hedging reads t - delay as well, in the same batched call.
  const std::size_t count = ts.size();
  std::vector<double> points(ts.begin(), ts.end());
  for (const double t : ts) points.push_back(t - wrap_.delay());
  std::vector<double> out = tape_->cdf_many(points, kModelEulerOrder);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = wrap_.cdf(out[i], out[count + i]);
  }
  out.resize(count);
  return out;
}

numerics::CdfDensityPoint DeviceModel::cdf_density(double t) const {
  const numerics::CdfDensityPoint base =
      tape_->cdf_density(t, kModelEulerOrder);
  if (wrap_.mode() != numerics::RedundancyWrap::Mode::kHedge) {
    return wrap_.cdf_density(base, {});
  }
  return wrap_.cdf_density(
      base, tape_->cdf_density(t - wrap_.delay(), kModelEulerOrder));
}

double DeviceModel::mean_latency() const {
  return wrap_.mean(*tape_, attempt_mean_, kModelEulerOrder);
}

SystemModel::SystemModel(SystemParams params, ModelOptions options,
                         PredictionCache* cache)
    : frontend_(params.frontend), cache_(cache) {
  // Spans validation, grouping and the device builds (core.device_build,
  // one per distinct device that misses the cache).
  obs::Span span("core.system_model");
  params.validate();
  // Group devices by value before building: a homogeneous cluster repeats
  // one device N times, often as N separately allocated but equal
  // parameter sets, so the grouping keys on value, never on pointers.
  const std::size_t count = params.devices.size();
  const std::uint64_t frontend_fp = frontend_fingerprint(params.frontend);
  std::vector<std::uint64_t> keys;
  slot_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const DeviceParams& device = params.devices[i];
    const auto copy = std::find_if(
        distinct_.begin(), distinct_.end(),
        [&](std::size_t j) { return same_params(device, params.devices[j]); });
    if (copy != distinct_.end()) {
      slot_.push_back(static_cast<std::size_t>(copy - distinct_.begin()));
      continue;
    }
    const std::uint64_t key = device_key(frontend_fp, device, options);
    const auto it = std::find(keys.begin(), keys.end(), key);
    slot_.push_back(static_cast<std::size_t>(it - keys.begin()));
    if (it == keys.end()) {
      keys.push_back(key);
      distinct_.push_back(i);
    }
  }
  std::vector<DeviceModel> built;
  built.reserve(distinct_.size());
  for (std::size_t u = 0; u < distinct_.size(); ++u) {
    built.push_back(build_device(frontend_,
                                 std::move(params.devices[distinct_[u]]),
                                 options, cache_, keys[u]));
  }
  devices_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    devices_.push_back(built[slot_[i]]);
    total_rate_ += devices_.back().arrival_rate();
  }
}

double SystemModel::device_cdf(const DeviceModel& model, double sla) const {
  // The tape CDF is bit-identical to inverting the scalar tree walk at
  // the same order — the tape's hard contract — and the wrap is a pure
  // function of it, so cache hits and cold evaluations return the same
  // doubles.
  if (cache_ == nullptr) return model.cdf(sla);
  const std::uint64_t key = cdf_cache_key(model.fingerprint(), sla);
  if (auto cached = cache_->cdf.lookup(key)) {
    obs::add(obs::Counter::kCdfCacheHit);
    return *cached;
  }
  obs::add(obs::Counter::kCdfCacheMiss);
  const double value = model.cdf(sla);
  cache_->cdf.insert(key, value);
  return value;
}

double SystemModel::predict_sla_percentile(double sla) const {
  COSM_REQUIRE(sla > 0, "SLA must be positive");
  obs::Span span("core.predict_sla");
  // One CDF per distinct device; the weighted sum reads each device's
  // value class in device order.
  const std::size_t distinct = distinct_.size();
  std::vector<double> cdfs(distinct);
  for (std::size_t u = 0; u < distinct; ++u) {
    cdfs[u] = device_cdf(devices_[distinct_[u]], sla);
  }
  double weighted = 0.0;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    weighted += devices_[i].arrival_rate() * cdfs[slot_[i]];
  }
  return weighted / total_rate_;
}

std::vector<double> SystemModel::predict_sla_percentiles(
    const std::vector<double>& slas) const {
  for (const double sla : slas) COSM_REQUIRE(sla > 0, "SLA must be positive");
  obs::Span span("core.predict_sla_sweep");
  const std::size_t n_slas = slas.size();
  const std::size_t distinct = distinct_.size();
  std::vector<double> cdfs(distinct * n_slas);
  // One sweep per distinct device: with a cache attached, each cell is
  // looked up, and the misses are evaluated together in ONE batched tape
  // call (cdf_many concatenates their contours) and inserted.  cdf_many's
  // element i is bit-identical to cdf(ts[i]), so every cell is the value
  // device_cdf would give.  A bound repeated within the sweep is
  // evaluated once and read back from the cache as device_cdf's serial
  // order would, so the hit and miss counts are its counts too.  The
  // miss lists allocate only when there are misses.
  for (std::size_t u = 0; u < distinct; ++u) {
    const DeviceModel& model = devices_[distinct_[u]];
    double* const row = cdfs.data() + u * n_slas;
    std::vector<std::size_t> misses;   // cells evaluated below
    std::vector<double> miss_slas;     // their bounds
    std::vector<std::size_t> repeats;  // cells repeating a missed bound
    for (std::size_t s = 0; s < n_slas; ++s) {
      if (cache_ != nullptr) {
        const bool repeat =
            std::any_of(miss_slas.begin(), miss_slas.end(),
                        [&](double t) { return same_bits(t, slas[s]); });
        if (repeat) {
          repeats.push_back(s);
          continue;
        }
        const std::uint64_t key = cdf_cache_key(model.fingerprint(), slas[s]);
        if (auto cached = cache_->cdf.lookup(key)) {
          obs::add(obs::Counter::kCdfCacheHit);
          row[s] = *cached;
          continue;
        }
        obs::add(obs::Counter::kCdfCacheMiss);
      }
      misses.push_back(s);
      miss_slas.push_back(slas[s]);
    }
    if (misses.empty()) continue;
    const std::vector<double> values = model.cdf_many(miss_slas);
    for (std::size_t k = 0; k < misses.size(); ++k) {
      row[misses[k]] = values[k];
      if (cache_ != nullptr) {
        cache_->cdf.insert(cdf_cache_key(model.fingerprint(), miss_slas[k]),
                           values[k]);
      }
    }
    for (const std::size_t s : repeats) row[s] = device_cdf(model, slas[s]);
  }
  std::vector<double> out(n_slas, 0.0);
  for (std::size_t s = 0; s < n_slas; ++s) {
    double weighted = 0.0;
    for (std::size_t d = 0; d < devices_.size(); ++d) {
      weighted += devices_[d].arrival_rate() * cdfs[slot_[d] * n_slas + s];
    }
    out[s] = weighted / total_rate_;
  }
  return out;
}

double SystemModel::predict_sla_percentile_device(std::size_t device,
                                                  double sla) const {
  COSM_REQUIRE(device < devices_.size(), "device index out of range");
  COSM_REQUIRE(sla > 0, "SLA must be positive");
  return device_cdf(devices_[device], sla);
}

numerics::CdfDensityPoint SystemModel::cdf_density(double t) const {
  obs::Span span("core.predict_sla");
  const std::size_t distinct = distinct_.size();
  std::vector<numerics::CdfDensityPoint> points(distinct);
  for (std::size_t u = 0; u < distinct; ++u) {
    points[u] = devices_[distinct_[u]].cdf_density(t);
  }
  // Same weights and order as predict_sla_percentile, so F is its value.
  double cdf = 0.0;
  double density = 0.0;
  numerics::InversionQuality quality = numerics::InversionQuality::kConverged;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const numerics::CdfDensityPoint& point = points[slot_[i]];
    cdf += devices_[i].arrival_rate() * point.cdf.value;
    density += devices_[i].arrival_rate() * point.density;
    quality = std::max(quality, point.cdf.quality);  // worst verdict
  }
  return {{cdf / total_rate_, quality}, density / total_rate_};
}

double SystemModel::latency_quantile(double percentile) const {
  COSM_REQUIRE(percentile > 0 && percentile < 1,
               "percentile must be in (0, 1)");
  obs::Span span("core.latency_quantile");
  std::uint64_t key = 0;
  if (cache_ != nullptr) {
    key = quantile_cache_key(devices_, percentile);
    if (auto cached = cache_->cdf.lookup(key)) {
      obs::add(obs::Counter::kQuantileColdStart);
      obs::add(obs::Counter::kQuantileCacheHit);
      return *cached;
    }
  }
  const double bound = numerics::solve_quantile(
      [this](double t) { return cdf_density(t); }, percentile,
      mean_response_latency());
  if (cache_ != nullptr) cache_->cdf.insert(key, bound);
  return bound;
}

std::vector<double> SystemModel::latency_quantiles(
    const std::vector<double>& percentiles) const {
  std::vector<double> out;
  out.reserve(percentiles.size());
  for (const double p : percentiles) out.push_back(latency_quantile(p));
  return out;
}

double SystemModel::mean_response_latency() const {
  // One mean per distinct device; the reduction runs in device order,
  // so the sum is the one a mean per device would give.
  std::vector<double> means(distinct_.size());
  for (std::size_t u = 0; u < distinct_.size(); ++u) {
    means[u] = devices_[distinct_[u]].mean_latency();
  }
  double weighted = 0.0;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    weighted += devices_[i].arrival_rate() * means[slot_[i]];
  }
  return weighted / total_rate_;
}

}  // namespace cosm::core
