#include "service/service.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "calibration/lru_prediction.hpp"
#include "calibration/online_metrics.hpp"
#include "core/errors.hpp"
#include "core/system_model.hpp"
#include "core/whatif.hpp"
#include "numerics/distribution.hpp"
#include "obs/obs.hpp"
#include "workload/catalog.hpp"

namespace cosm::service {
namespace {

using common::JsonValue;

// Protocol-level failure: caught at the dispatch boundary and turned into
// an {"ok": false, "error": ...} response.
struct RequestError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

double require_number(const JsonValue& request, std::string_view key) {
  const JsonValue* v = request.find(key);
  if (v == nullptr || !v->is_number()) {
    throw RequestError("missing numeric field '" + std::string(key) + "'");
  }
  return v->as_number();
}

const std::string& require_string(const JsonValue& request,
                                  std::string_view key) {
  const JsonValue* v = request.find(key);
  if (v == nullptr || !v->is_string()) {
    throw RequestError("missing string field '" + std::string(key) + "'");
  }
  return v->as_string();
}

// A count field's value as an integer: refused unless it is a whole
// number in [0, max] (the protocol bounds in service.hpp).  Callers test
// their own lower bounds first, keeping those refusals' wording.
std::uint64_t to_count(std::string_view key, double value, std::uint64_t max) {
  if (!(value >= 0.0 && value <= static_cast<double>(max)) ||
      value != std::trunc(value)) {
    throw RequestError("'" + std::string(key) +
                       "' must be a non-negative integer <= " +
                       std::to_string(max));
  }
  return static_cast<std::uint64_t>(value);
}

// Accepts either a scalar `single` or an array `plural` of numbers.
std::vector<double> number_list(const JsonValue& request,
                                std::string_view single,
                                std::string_view plural) {
  if (const JsonValue* arr = request.find(plural)) {
    if (!arr->is_array() || arr->items().empty()) {
      throw RequestError("field '" + std::string(plural) +
                         "' must be a non-empty array");
    }
    std::vector<double> values;
    values.reserve(arr->items().size());
    for (const JsonValue& item : arr->items()) {
      if (!item.is_number()) {
        throw RequestError("field '" + std::string(plural) +
                           "' must contain only numbers");
      }
      values.push_back(item.as_number());
    }
    return values;
  }
  return {require_number(request, single)};
}

// Response skeleton; the request's `id` (any JSON value) is echoed back.
JsonValue make_response(const JsonValue& request, bool ok) {
  JsonValue response = JsonValue::object();
  response.set("ok", ok);
  if (const JsonValue* id = request.find("id")) response.set("id", *id);
  return response;
}

JsonValue error_response(const JsonValue& request, const std::string& what) {
  obs::add(obs::Counter::kServiceErrors);
  JsonValue response = make_response(request, false);
  response.set("error", what);
  return response;
}

// Span names must be string literals (the obs ring stores the pointer).
const char* span_name(std::string_view op) {
  if (op == "register") return "service.register";
  if (op == "calibrate") return "service.calibrate";
  if (op == "drift_status") return "service.drift_status";
  if (op == "sla") return "service.sla";
  if (op == "quantile") return "service.quantile";
  if (op == "devices") return "service.devices";
  if (op == "capacity") return "service.capacity";
  if (op == "tier_size") return "service.tier_size";
  if (op == "list") return "service.list";
  if (op == "stats") return "service.stats";
  return "service.unknown";
}

// The (total rate, device count) a request asks about: the family's
// registered point unless the request overrides either.
struct OperatingPoint {
  double rate;
  unsigned devices;
};

OperatingPoint operating_point(const ClusterSpec& spec,
                               const JsonValue& request) {
  const double rate = request.number_or("rate", spec.rate);
  const double devices = request.number_or("devices", spec.devices);
  if (!(rate > 0.0)) throw RequestError("'rate' must be > 0");
  if (!(devices >= 1.0)) throw RequestError("'devices' must be >= 1");
  return {rate, static_cast<unsigned>(
                    to_count("devices", devices, kMaxUnitCount))};
}

}  // namespace

Cluster::Cluster(const ClusterSpec& spec)
    : spec_(spec),
      frontend_parse_(std::make_shared<numerics::Degenerate>(
          spec.frontend_parse_ms * 1e-3)),
      backend_parse_(std::make_shared<numerics::Degenerate>(
          spec.backend_parse_ms * 1e-3)),
      index_disk_(std::make_shared<numerics::Gamma>(spec.index_disk_shape,
                                                    spec.index_disk_rate)),
      meta_disk_(std::make_shared<numerics::Gamma>(spec.meta_disk_shape,
                                                   spec.meta_disk_rate)),
      data_disk_(std::make_shared<numerics::Gamma>(spec.data_disk_shape,
                                                   spec.data_disk_rate)) {}

core::SystemParams Cluster::build(double total_rate, unsigned device_count,
                                  double tier_hit_ratio, double ssd_read_ms,
                                  double ssd_write_ms) const {
  using numerics::Degenerate;
  core::SystemParams params;
  params.frontend.arrival_rate = total_rate;
  params.frontend.processes = spec_.frontend_processes;
  params.frontend.frontend_parse = frontend_parse_;

  core::DeviceParams device;
  device.arrival_rate = total_rate / static_cast<double>(device_count);
  device.data_read_rate = device.arrival_rate * spec_.data_read_factor;
  device.index_miss_ratio = spec_.index_miss;
  device.meta_miss_ratio = spec_.meta_miss;
  device.data_miss_ratio = spec_.data_miss;
  device.index_disk = index_disk_;
  device.meta_disk = meta_disk_;
  device.data_disk = data_disk_;
  device.backend_parse = backend_parse_;
  device.processes = spec_.processes;
  if (tier_hit_ratio > 0.0) {
    device.tier.enabled = true;
    device.tier.hit_ratio = tier_hit_ratio;
    device.tier.read_service = std::make_shared<Degenerate>(ssd_read_ms * 1e-3);
    device.tier.write_service =
        std::make_shared<Degenerate>(ssd_write_ms * 1e-3);
  }
  params.devices.assign(device_count, device);
  return params;
}

WhatIfService::WhatIfService(ServiceConfig config) : config_(config) {}

core::PredictOptions WhatIfService::predict_options() const {
  core::PredictOptions predict;
  predict.num_threads = config_.num_threads;
  predict.cache = &cache_;
  return predict;
}

std::string WhatIfService::handle_line(std::string_view line) {
  const common::JsonParseResult parsed = [line] {
    obs::Span span("service.json_parse");
    return common::json_parse(line);
  }();
  JsonValue response;
  if (parsed.ok) {
    response = handle(parsed.value);
  } else {
    obs::add(obs::Counter::kServiceRequests);
    response =
        error_response(JsonValue::object(), "parse error: " + parsed.error);
  }
  obs::Span span("service.json_dump");
  return response.dump();
}

JsonValue WhatIfService::handle(const JsonValue& request) {
  obs::add(obs::Counter::kServiceRequests);
  if (!request.is_object()) {
    return error_response(JsonValue::object(),
                          "request must be a JSON object");
  }
  try {
    return dispatch(request);
  } catch (const RequestError& e) {
    return error_response(request, e.what());
  } catch (const std::exception& e) {
    return error_response(request, std::string("internal error: ") + e.what());
  }
}

JsonValue WhatIfService::dispatch(const JsonValue& request) {
  const std::string& op = require_string(request, "op");
  obs::Span span(span_name(op));
  if (op == "register") return op_register(request);
  if (op == "calibrate") return op_calibrate(request);
  if (op == "drift_status") return op_drift_status(request);
  if (op == "sla") return op_sla(request);
  if (op == "quantile") return op_quantile(request);
  if (op == "devices") return op_devices(request);
  if (op == "capacity") return op_capacity(request);
  if (op == "tier_size") return op_tier_size(request);
  if (op == "list") {
    JsonValue response = make_response(request, true);
    response.set("clusters", op_list());
    return response;
  }
  if (op == "stats") {
    JsonValue response = make_response(request, true);
    response.set("stats", op_stats());
    return response;
  }
  throw RequestError("unknown op '" + op + "'");
}

std::shared_ptr<const Cluster> WhatIfService::cluster_for(
    const JsonValue& request) const {
  const std::string& name = require_string(request, "cluster");
  std::shared_lock<std::shared_mutex> lock(registry_mutex_);
  const auto it = clusters_.find(name);
  if (it == clusters_.end()) {
    throw RequestError("unknown cluster '" + name + "'");
  }
  return it->second;
}

JsonValue WhatIfService::op_register(const JsonValue& request) {
  const std::string& name = require_string(request, "cluster");
  if (name.empty()) throw RequestError("'cluster' must be non-empty");
  ClusterSpec spec;
  const OperatingPoint point = operating_point(spec, request);
  spec.rate = point.rate;
  spec.devices = point.devices;
  spec.processes = static_cast<unsigned>(
      to_count("processes", request.number_or("processes", spec.processes),
               kMaxUnitCount));
  spec.frontend_processes = static_cast<unsigned>(to_count(
      "frontend_processes",
      request.number_or("frontend_processes", spec.frontend_processes),
      kMaxUnitCount));
  spec.frontend_parse_ms =
      request.number_or("frontend_parse_ms", spec.frontend_parse_ms);
  spec.backend_parse_ms =
      request.number_or("backend_parse_ms", spec.backend_parse_ms);
  spec.data_read_factor =
      request.number_or("data_read_factor", spec.data_read_factor);
  spec.index_miss = request.number_or("index_miss", spec.index_miss);
  spec.meta_miss = request.number_or("meta_miss", spec.meta_miss);
  spec.data_miss = request.number_or("data_miss", spec.data_miss);
  spec.index_disk_shape =
      request.number_or("index_disk_shape", spec.index_disk_shape);
  spec.index_disk_rate =
      request.number_or("index_disk_rate", spec.index_disk_rate);
  spec.meta_disk_shape =
      request.number_or("meta_disk_shape", spec.meta_disk_shape);
  spec.meta_disk_rate =
      request.number_or("meta_disk_rate", spec.meta_disk_rate);
  spec.data_disk_shape =
      request.number_or("data_disk_shape", spec.data_disk_shape);
  spec.data_disk_rate =
      request.number_or("data_disk_rate", spec.data_disk_rate);
  // Validate the spec eagerly, so a bad registration fails at register
  // time rather than poisoning every later query.
  auto cluster = std::make_shared<const Cluster>(spec);
  cluster->build(spec.rate, spec.devices).validate();
  {
    std::unique_lock<std::shared_mutex> lock(registry_mutex_);
    clusters_[name] = std::move(cluster);
  }
  JsonValue response = make_response(request, true);
  response.set("cluster", name);
  return response;
}

JsonValue WhatIfService::op_calibrate(const JsonValue& request) {
  const std::string& name = require_string(request, "cluster");
  const double rate = require_number(request, "rate");
  const double mean_service =
      require_number(request, "mean_service_ms") * 1e-3;
  if (!(rate > 0.0)) throw RequestError("'rate' must be > 0");
  if (!(mean_service > 0.0)) {
    throw RequestError("'mean_service_ms' must be > 0");
  }

  std::unique_lock<std::shared_mutex> lock(registry_mutex_);
  const auto cluster_it = clusters_.find(name);
  if (cluster_it == clusters_.end()) {
    throw RequestError("unknown cluster '" + name + "'");
  }
  // Held for the whole call: a re-fit below swaps the registry entry.
  const std::shared_ptr<const Cluster> published = cluster_it->second;
  const ClusterSpec& spec = published->spec();
  auto state_it = drift_states_.find(name);
  if (state_it == drift_states_.end()) {
    // Detector knobs are latched at the cluster's first calibrate call.
    calibration::DriftConfig drift;
    drift.ph_delta = request.number_or("ph_delta", drift.ph_delta);
    drift.ph_lambda = request.number_or("ph_lambda", drift.ph_lambda);
    const auto windows = [&request](std::string_view key, int fallback) {
      return static_cast<int>(
          to_count(key, request.number_or(key, fallback), kMaxUnitCount));
    };
    drift.warmup_windows = windows("warmup_windows", drift.warmup_windows);
    drift.confirm_windows = windows("confirm_windows", drift.confirm_windows);
    drift.cooldown_windows =
        windows("cooldown_windows", drift.cooldown_windows);
    drift.validate();
    state_it = drift_states_
                   .emplace(name, DriftState{calibration::DriftDetector(drift),
                                             0, 0, 0,
                                             calibration::DriftVerdict::kWarmup,
                                             0})
                   .first;
  }
  DriftState& state = state_it->second;
  ++state.windows;

  JsonValue response = make_response(request, true);
  response.set("cluster", name);

  // Insufficiency is an outcome: a window too thin to trust is counted
  // and skipped without touching the detector (satellite contract of
  // calibration::observe_window).
  const double samples = request.number_or("samples", -1.0);
  const double min_samples = request.number_or("min_samples", 1.0);
  if (samples >= 0.0 && samples < min_samples) {
    obs::add(obs::Counter::kCalibInsufficientWindows);
    ++state.insufficient;
    response.set("verdict", "insufficient");
    response.set("refit", false);
    return response;
  }

  calibration::DriftSignals signals;
  signals.arrival_rate = rate;
  signals.data_read_rate =
      request.number_or("data_read_rate", rate * spec.data_read_factor);
  signals.index_miss_ratio = request.number_or("index_miss", spec.index_miss);
  signals.meta_miss_ratio = request.number_or("meta_miss", spec.meta_miss);
  signals.data_miss_ratio = request.number_or("data_miss", spec.data_miss);
  signals.mean_disk_service = mean_service;
  if (!(signals.data_read_rate >= rate)) {
    throw RequestError("'data_read_rate' must be >= 'rate'");
  }

  const calibration::DriftDecision decision = state.detector.offer(signals);
  state.last_verdict = decision.verdict;
  state.last_alarm_mask = decision.alarm_mask;
  response.set("verdict", std::string(to_string(decision.verdict)));
  JsonValue alarms = JsonValue::array();
  for (std::size_t i = 0; i < calibration::kDriftSignalCount; ++i) {
    if (decision.alarm_mask & (std::uint32_t{1} << i)) {
      alarms.push_back(std::string(calibration::drift_signal_name(i)));
    }
  }
  response.set("alarms", std::move(alarms));

  bool refit = false;
  if (decision.verdict == calibration::DriftVerdict::kDrift) {
    // Re-fit the registered spec to the drifted regime: keep the
    // benchmarked shapes, re-split the observed aggregate service mean
    // over them (Sec. IV-B), and adopt the observed rates and ratios.
    try {
      const double mean_i = spec.index_disk_shape / spec.index_disk_rate;
      const double mean_m = spec.meta_disk_shape / spec.meta_disk_rate;
      const double mean_d = spec.data_disk_shape / spec.data_disk_rate;
      const double total = mean_i + mean_m + mean_d;
      const calibration::ServiceSplit split = calibration::split_disk_service(
          mean_service, mean_i / total, mean_m / total, mean_d / total,
          signals.index_miss_ratio, signals.meta_miss_ratio,
          signals.data_miss_ratio, rate, signals.data_read_rate);

      ClusterSpec refitted = spec;
      refitted.rate = rate;
      refitted.data_read_factor = signals.data_read_rate / rate;
      refitted.index_miss = signals.index_miss_ratio;
      refitted.meta_miss = signals.meta_miss_ratio;
      refitted.data_miss = signals.data_miss_ratio;
      refitted.index_disk_rate = refitted.index_disk_shape / split.index_mean;
      refitted.meta_disk_rate = refitted.meta_disk_shape / split.meta_mean;
      refitted.data_disk_rate = refitted.data_disk_shape / split.data_mean;
      auto refitted_cluster = std::make_shared<const Cluster>(refitted);
      refitted_cluster->build(refitted.rate, refitted.devices).validate();

      // Erase the stale device-model entry by key (all devices of a
      // family share one — they are identical by value).  The old cdf
      // entries are keyed under the old response-tape fingerprint and can
      // never be hit again; LRU ages them out.
      std::size_t evictions = 0;
      const core::SystemParams old_params =
          published->build(spec.rate, spec.devices);
      if (cache_.devices.erase(core::device_model_key(
              old_params.frontend, old_params.devices.front(),
              core::ModelOptions{}))) {
        ++evictions;
      }
      obs::add(obs::Counter::kCalibRefitCacheEvictions, evictions);
      obs::add(obs::Counter::kCalibRefitModels);

      cluster_it->second = std::move(refitted_cluster);
      ++state.refits;
      refit = true;
      state.detector.rebaseline();
      response.set("rate", refitted.rate);
      response.set("evictions", static_cast<double>(evictions));
    } catch (const RequestError&) {
      throw;
    } catch (const std::exception& e) {
      // Unfittable window (e.g. every kind hitting): hold the published
      // spec, rebaseline so the failing fit is not retried every window.
      state.detector.rebaseline();
      response.set("refit_error", std::string(e.what()));
    }
  }
  response.set("refit", refit);
  response.set("refits", static_cast<double>(state.refits));
  return response;
}

JsonValue WhatIfService::op_drift_status(const JsonValue& request) const {
  const std::string& name = require_string(request, "cluster");
  std::shared_lock<std::shared_mutex> lock(registry_mutex_);
  if (clusters_.find(name) == clusters_.end()) {
    throw RequestError("unknown cluster '" + name + "'");
  }
  JsonValue response = make_response(request, true);
  response.set("cluster", name);
  const auto it = drift_states_.find(name);
  if (it == drift_states_.end()) {
    response.set("windows", 0.0);
    response.set("verdict", "idle");
    response.set("refits", 0.0);
    return response;
  }
  const DriftState& state = it->second;
  response.set("windows", static_cast<double>(state.windows));
  response.set("insufficient", static_cast<double>(state.insufficient));
  response.set("verdict", std::string(to_string(state.last_verdict)));
  response.set("refits", static_cast<double>(state.refits));
  JsonValue alarms = JsonValue::array();
  for (std::size_t i = 0; i < calibration::kDriftSignalCount; ++i) {
    if (state.last_alarm_mask & (std::uint32_t{1} << i)) {
      alarms.push_back(std::string(calibration::drift_signal_name(i)));
    }
  }
  response.set("alarms", std::move(alarms));
  response.set("rate", clusters_.at(name)->spec().rate);
  return response;
}

JsonValue WhatIfService::op_sla(const JsonValue& request) const {
  const std::shared_ptr<const Cluster> cluster = cluster_for(request);
  const OperatingPoint point = operating_point(cluster->spec(), request);
  const std::vector<double> slas = number_list(request, "sla", "slas");
  for (const double sla : slas) {
    if (!(sla > 0.0)) throw RequestError("SLA bounds must be > 0 (seconds)");
  }
  JsonValue response = make_response(request, true);
  JsonValue percentiles = JsonValue::array();
  try {
    const core::SystemModel model(cluster->build(point.rate, point.devices),
                                  {}, predict_options());
    for (const double p : model.predict_sla_percentiles(slas)) {
      percentiles.push_back(p);
      obs::add(obs::Counter::kServicePredictions);
    }
    response.set("overloaded", false);
  } catch (const core::OverloadError&) {
    // Saturation is a result, not an error: the system certainly misses
    // every SLA (the whatif convention, core/whatif.hpp).
    for (std::size_t i = 0; i < slas.size(); ++i) {
      percentiles.push_back(0.0);
      obs::add(obs::Counter::kServicePredictions);
    }
    response.set("overloaded", true);
  }
  if (request.find("slas") != nullptr) {
    response.set("percentiles", std::move(percentiles));
  } else {
    response.set("percentile", percentiles.items().front());
  }
  return response;
}

JsonValue WhatIfService::op_quantile(const JsonValue& request) const {
  const std::shared_ptr<const Cluster> cluster = cluster_for(request);
  const OperatingPoint point = operating_point(cluster->spec(), request);
  const std::vector<double> ps = number_list(request, "p", "ps");
  for (const double p : ps) {
    if (!(p > 0.0 && p < 1.0)) {
      throw RequestError("percentiles must lie in (0, 1)");
    }
  }
  JsonValue response = make_response(request, true);
  JsonValue latencies = JsonValue::array();
  try {
    const core::SystemModel model(cluster->build(point.rate, point.devices),
                                  {}, predict_options());
    for (const double latency : model.latency_quantiles(ps)) {
      latencies.push_back(latency);
      obs::add(obs::Counter::kServicePredictions);
    }
    response.set("overloaded", false);
  } catch (const core::OverloadError&) {
    for (std::size_t i = 0; i < ps.size(); ++i) {
      latencies.push_back(JsonValue());  // no finite bound exists
      obs::add(obs::Counter::kServicePredictions);
    }
    response.set("overloaded", true);
  }
  if (request.find("ps") != nullptr) {
    response.set("latencies", std::move(latencies));
  } else {
    response.set("latency", latencies.items().front());
  }
  return response;
}

JsonValue WhatIfService::op_devices(const JsonValue& request) const {
  const std::shared_ptr<const Cluster> cluster = cluster_for(request);
  const OperatingPoint point = operating_point(cluster->spec(), request);
  core::SlaTarget target;
  target.sla = require_number(request, "sla");
  target.percentile = require_number(request, "percentile");
  target.validate();
  const auto min_devices = static_cast<unsigned>(
      to_count("min", request.number_or("min", 1.0), kMaxUnitCount));
  const auto max_devices = static_cast<unsigned>(
      to_count("max", request.number_or("max", 64.0), kMaxUnitCount));
  if (min_devices < 1 || min_devices > max_devices) {
    throw RequestError("need 1 <= min <= max");
  }
  const core::ClusterFactory factory =
      [&cluster](double total_rate, unsigned device_count) {
        return cluster->build(total_rate, device_count);
      };
  const auto devices =
      core::min_devices_for(factory, point.rate, target, min_devices,
                            max_devices, {}, predict_options());
  obs::add(obs::Counter::kServicePredictions);
  JsonValue response = make_response(request, true);
  response.set("found", devices.has_value());
  if (devices.has_value()) {
    response.set("devices", static_cast<double>(*devices));
  }
  return response;
}

JsonValue WhatIfService::op_capacity(const JsonValue& request) const {
  const std::shared_ptr<const Cluster> cluster = cluster_for(request);
  const OperatingPoint point = operating_point(cluster->spec(), request);
  core::SlaTarget target;
  target.sla = require_number(request, "sla");
  target.percentile = require_number(request, "percentile");
  target.validate();
  const double rate_limit =
      request.number_or("rate_limit", 4.0 * point.rate);
  const double tolerance = request.number_or("tolerance", 0.5);
  if (!(rate_limit > 0.0) || !(tolerance > 0.0)) {
    throw RequestError("need rate_limit > 0 and tolerance > 0");
  }
  const core::ClusterFactory factory =
      [&cluster](double total_rate, unsigned device_count) {
        return cluster->build(total_rate, device_count);
      };
  const double admitted =
      core::max_admission_rate(factory, point.devices, target, rate_limit,
                               tolerance, {}, predict_options());
  obs::add(obs::Counter::kServicePredictions);
  JsonValue response = make_response(request, true);
  response.set("max_rate", admitted);
  return response;
}

JsonValue WhatIfService::op_tier_size(const JsonValue& request) const {
  const std::shared_ptr<const Cluster> cluster = cluster_for(request);
  const OperatingPoint point = operating_point(cluster->spec(), request);
  core::SlaTarget target;
  target.sla = require_number(request, "sla");
  target.percentile = require_number(request, "percentile");
  target.validate();
  const std::vector<double> capacities =
      number_list(request, "capacity", "capacities");
  const double objects = request.number_or("objects", 100000.0);
  const double zipf_skew = request.number_or("zipf_skew", 0.9);
  const double chunk_kb = request.number_or("chunk_kb", 64.0);
  const double mem_chunks = request.number_or("mem_chunks", 4096.0);
  const double ssd_read_ms = request.number_or("ssd_read_ms", 0.4);
  const double ssd_write_ms = request.number_or("ssd_write_ms", 0.6);
  if (!(objects >= 1.0) || !(zipf_skew >= 0.0) ||
      !(chunk_kb > 0.0 && chunk_kb <= kMaxChunkKb) || !(mem_chunks >= 0.0)) {
    throw RequestError("invalid catalog parameters");
  }
  const std::uint64_t object_count =
      to_count("objects", objects, kMaxChunkCount);
  const auto mem_capacity = static_cast<std::size_t>(
      to_count("mem_chunks", mem_chunks, kMaxChunkCount));

  // Hit ratios from Che's approximation over the Zipf catalog — the same
  // prediction path bench/extension_tiering validates against simulation.
  workload::CatalogConfig catalog_config;
  catalog_config.object_count = object_count;
  catalog_config.zipf_skew = zipf_skew;
  catalog_config.size_distribution = workload::default_size_distribution();
  const workload::ObjectCatalog catalog(catalog_config);
  const calibration::ChunkPopulation pop = calibration::chunk_population(
      catalog, static_cast<std::uint64_t>(chunk_kb * 1024.0));

  std::vector<core::TierCandidate> candidates;
  candidates.reserve(capacities.size());
  for (const double capacity : capacities) {
    if (!(capacity >= 0.0)) throw RequestError("capacities must be >= 0");
    core::TierCandidate candidate;
    candidate.capacity_chunks = static_cast<std::size_t>(
        to_count("capacities", capacity, kMaxChunkCount));
    candidate.hit_ratio =
        candidate.capacity_chunks == 0
            ? 0.0
            : calibration::predict_tier_hit_ratio(
                  pop, mem_capacity, candidate.capacity_chunks);
    candidates.push_back(candidate);
  }
  const core::TierFactory factory =
      [&cluster, point, ssd_read_ms,
       ssd_write_ms](const core::TierCandidate& c) {
        return cluster->build(point.rate, point.devices, c.hit_ratio,
                              ssd_read_ms, ssd_write_ms);
      };
  const auto chosen = core::min_tier_capacity_for(factory, candidates, target,
                                                  {}, predict_options());
  obs::add(obs::Counter::kServicePredictions);
  JsonValue response = make_response(request, true);
  response.set("found", chosen.has_value());
  if (chosen.has_value()) {
    response.set("capacity_chunks",
                 static_cast<double>(chosen->candidate.capacity_chunks));
    response.set("hit_ratio", chosen->candidate.hit_ratio);
    response.set("percentile", chosen->percentile);
  }
  return response;
}

JsonValue WhatIfService::op_list() const {
  std::vector<std::string> names;
  {
    std::shared_lock<std::shared_mutex> lock(registry_mutex_);
    names.reserve(clusters_.size());
    for (const auto& [name, cluster] : clusters_) names.push_back(name);
  }
  std::sort(names.begin(), names.end());  // deterministic listing order
  JsonValue list = JsonValue::array();
  for (std::string& name : names) list.push_back(std::move(name));
  return list;
}

JsonValue WhatIfService::op_stats() const {
  const numerics::CacheStats devices = cache_.devices.stats();
  const numerics::CacheStats cdf = cache_.cdf.stats();
  JsonValue stats = JsonValue::object();
  auto cache_object = [](const numerics::CacheStats& s,
                         std::size_t shards) {
    JsonValue obj = JsonValue::object();
    obj.set("hits", static_cast<double>(s.hits));
    obj.set("misses", static_cast<double>(s.misses));
    obj.set("evictions", static_cast<double>(s.evictions));
    obj.set("size", static_cast<double>(s.size));
    obj.set("capacity", static_cast<double>(s.capacity));
    obj.set("shards", static_cast<double>(shards));
    return obj;
  };
  stats.set("device_cache",
            cache_object(devices, cache_.devices.shard_count()));
  stats.set("cdf_cache", cache_object(cdf, cache_.cdf.shard_count()));
  {
    std::shared_lock<std::shared_mutex> lock(registry_mutex_);
    stats.set("clusters", static_cast<double>(clusters_.size()));
  }
  stats.set("requests",
            static_cast<double>(
                obs::counter_value(obs::Counter::kServiceRequests)));
  stats.set("errors",
            static_cast<double>(
                obs::counter_value(obs::Counter::kServiceErrors)));
  stats.set("predictions",
            static_cast<double>(
                obs::counter_value(obs::Counter::kServicePredictions)));
  return stats;
}

}  // namespace cosm::service
