#include "calibration/recalibrate.hpp"

#include <exception>
#include <utility>

#include "common/require.hpp"
#include "core/system_model.hpp"
#include "obs/obs.hpp"

namespace cosm::calibration {

void RecalibrateConfig::validate() const {
  COSM_REQUIRE(window > 0, "window length must be positive");
  COSM_REQUIRE(min_requests > 0, "min_requests must be >= 1");
  COSM_REQUIRE(!slas.empty(), "the published SLA grid must be non-empty");
  for (const double sla : slas) {
    COSM_REQUIRE(sla > 0, "SLA points must be positive seconds");
  }
  if (population != nullptr) {
    COSM_REQUIRE(tier_capacity_chunks > 0,
                 "tiered recalibration needs a tier capacity");
  }
  drift.validate();
}

CalibrationLoop::CalibrationLoop(RecalibrateConfig config,
                                 DiskCalibration disk_calibration,
                                 core::FrontendParams frontend,
                                 numerics::DistPtr backend_parse,
                                 std::uint32_t processes)
    : config_(std::move(config)),
      disk_calibration_(std::move(disk_calibration)),
      frontend_(std::move(frontend)),
      backend_parse_(std::move(backend_parse)),
      processes_(processes),
      detector_(config_.drift) {
  config_.validate();
  COSM_REQUIRE(backend_parse_ != nullptr, "backend_parse must be set");
  COSM_REQUIRE(processes_ >= 1, "processes must be >= 1");
}

void CalibrationLoop::prime(const sim::DeviceCounters& snapshot) {
  previous_ = snapshot;
}

const core::DeviceParams& CalibrationLoop::params() const {
  COSM_REQUIRE(calibrated(), "no calibration published yet");
  return *params_;
}

const std::vector<double>& CalibrationLoop::predictions() const {
  COSM_REQUIRE(calibrated(), "no calibration published yet");
  return predictions_;
}

CalibrationLoop::WindowResult CalibrationLoop::offer(
    const sim::DeviceCounters& snapshot) {
  ++windows_;
  const std::optional<WindowObservation> window =
      observe_window(previous_, snapshot, config_.window,
                     config_.min_requests, &skew_carry_);
  previous_ = snapshot;

  WindowResult result;
  if (!window) {
    // Insufficiency is an expected idle condition (Satellite: the loop
    // consumes the outcome instead of catching throws) — skip the window
    // without feeding the detector, so idle gaps neither alarm nor
    // corrupt the baseline.
    obs::add(obs::Counter::kCalibInsufficientWindows);
    ++insufficient_;
    result.insufficient = true;
    result.verdict = detector_.baseline_ready() ? DriftVerdict::kStable
                                                : DriftVerdict::kWarmup;
    return result;
  }
  DriftSignals signals;
  signals.arrival_rate = window->observation.request_rate;
  signals.data_read_rate = window->observation.data_read_rate;
  signals.index_miss_ratio = window->observation.index_miss_ratio;
  signals.meta_miss_ratio = window->observation.meta_miss_ratio;
  signals.data_miss_ratio = window->observation.data_miss_ratio;
  signals.mean_disk_service = window->aggregate_mean_service;

  const DriftDecision decision = detector_.offer(signals);
  result.verdict = decision.verdict;
  result.alarm_mask = decision.alarm_mask;

  const bool initial_fit =
      !calibrated() && decision.verdict != DriftVerdict::kWarmup;
  const bool drift_fit = decision.verdict == DriftVerdict::kDrift;
  if (!initial_fit && !drift_fit) return result;

  if (refit(*window, drift_fit ? decision.alarm_mask : 0)) {
    result.refit = true;
    // The regime changed under the detector's feet: judge the new regime
    // against its own baseline.  The initial fit is not a regime change,
    // so its baseline stands.
    if (drift_fit) detector_.rebaseline();
  } else {
    result.refit_failed = true;
    // Still rebaseline on confirmed drift: re-confirming against the
    // stale baseline every window would retry the failing fit forever.
    if (drift_fit) detector_.rebaseline();
  }
  return result;
}

bool CalibrationLoop::refit(const WindowObservation& window,
                            std::uint32_t alarm_mask) {
  core::SystemParams sys;
  std::vector<double> predictions;
  std::uint64_t fingerprint = 0;
  std::uint64_t device_key = 0;
  try {
    core::DeviceParams params = build_device_params(
        window.observation, disk_calibration_, backend_parse_, processes_,
        window.aggregate_mean_service);
    if (config_.population != nullptr) {
      params.tier = config_.tier_template;
      params.tier.enabled = true;
      params.tier.hit_ratio = predict_tier_hit_ratio(
          *config_.population, config_.mem_capacity_chunks,
          config_.tier_capacity_chunks);
    }
    sys.frontend = frontend_;
    sys.frontend.arrival_rate = params.arrival_rate;
    sys.devices.push_back(std::move(params));

    core::PredictOptions predict;
    predict.num_threads = config_.num_threads;
    predict.cache = config_.cache;
    const core::SystemModel model(sys, config_.options, predict);
    predictions = model.predict_sla_percentiles(config_.slas);
    fingerprint = model.devices().front().fingerprint();
    device_key = core::device_model_key(sys.frontend, sys.devices.front(),
                                        config_.options);
  } catch (const std::exception&) {
    // Unfittable regime (saturated device, degenerate split, exhausted
    // Che bracket): keep the previous calibration published rather than
    // replacing it with nothing.
    return false;
  }

  // Evict exactly the entries the previous publication made stale.
  std::size_t evictions = 0;
  if (config_.cache != nullptr && calibrated()) {
    if (config_.cache->devices.erase(published_device_key_)) ++evictions;
    for (const double sla : config_.slas) {
      if (config_.cache->cdf.erase(
              core::cdf_cache_key(published_fingerprint_, sla))) {
        ++evictions;
      }
    }
    obs::add(obs::Counter::kCalibRefitCacheEvictions, evictions);
  }

  params_ = sys.devices.front();
  predictions_ = std::move(predictions);
  published_fingerprint_ = fingerprint;
  published_device_key_ = device_key;
  obs::add(obs::Counter::kCalibRefitModels);

  RefitEvent event;
  event.window_index = windows_;
  event.alarm_mask = alarm_mask;
  event.params = *params_;
  event.predictions = predictions_;
  event.cache_evictions = evictions;
  refits_.push_back(std::move(event));
  return true;
}

}  // namespace cosm::calibration
