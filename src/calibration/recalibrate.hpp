// The auto-recalibration loop — the digital twin's feedback path.
//
// The paper calibrates once (Sec. IV) and predicts forever; this module
// closes the loop instead:
//
//   counter snapshots ──observe_window──▶ WindowObservation
//        │                                     │ (signals)
//        │                               DriftDetector (drift.hpp)
//        │                                     │ kDrift?
//        └────────────▶ re-fit: build_device_params + rescale_to_mean
//                              + predict_tier_hit_ratio (tiered devices)
//                       publish: SystemModel over the SLA grid
//                       invalidate: fingerprint-keyed cache erasure
//
// One CalibrationLoop tracks ONE device's twin (its own counters, skew
// carry, detector state, published params); a cluster runs one loop per
// device.  The loop never throws on data conditions — idle windows are
// counted and skipped, an unfittable regime (e.g. observed saturation)
// keeps the previous calibration — and throws only on caller misuse.
//
// Cache-invalidation contract (docs/CALIBRATION.md): a re-fit makes
// exactly two kinds of PredictionCache entries stale, and the loop
// erases exactly those —
//  * the device-model entry of the PREVIOUS model,
//    key core::device_model_key(old_frontend, old_params, options);
//  * the cdf entries of the previous model's response tape over the
//    published SLA grid, keys core::cdf_cache_key(old_fingerprint, sla)
//    — enumerable because the loop knows its own grid.
// Everything else (other tenants' devices, other SLA points) stays
// resident; erasures are counted under calib.refit.cache_evictions.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "calibration/disk_benchmark.hpp"
#include "calibration/drift.hpp"
#include "calibration/lru_prediction.hpp"
#include "calibration/online_metrics.hpp"
#include "core/params.hpp"

namespace cosm::calibration {

struct RecalibrateConfig {
  // Measurement window length in simulated seconds (offer() cadence).
  double window = 5.0;
  // Windows with fewer requests are skipped as insufficient.
  std::uint64_t min_requests = 50;
  DriftConfig drift;

  // Model variant and SLA grid (seconds) the loop publishes predictions
  // for — also the grid whose cdf cache entries a re-fit invalidates.
  core::ModelOptions options;
  std::vector<double> slas;

  // Shared memoization to maintain (may be null: no caching, nothing to
  // invalidate).  Must outlive the loop.
  core::PredictionCache* cache = nullptr;

  // SSD-tier re-prediction (tiering extension).  Tier hit ratios are
  // predicted, not measured (core::TierOptions); when `population` is
  // set and tier_capacity_chunks > 0, every re-fit re-derives
  // tier_template.hit_ratio via predict_tier_hit_ratio over the current
  // catalog population.  Null population = single-tier device.
  const ChunkPopulation* population = nullptr;
  std::size_t mem_capacity_chunks = 0;
  std::size_t tier_capacity_chunks = 0;
  core::TierOptions tier_template;

  void validate() const;
};

// One published re-fit (initial fit included).
struct RefitEvent {
  std::uint64_t window_index = 0;  // offer() count at publication
  std::uint32_t alarm_mask = 0;    // 0 for the initial fit
  core::DeviceParams params;
  std::vector<double> predictions;  // P[latency <= sla] per config sla
  std::size_t cache_evictions = 0;  // stale entries erased for this fit
};

class CalibrationLoop {
 public:
  struct WindowResult {
    DriftVerdict verdict = DriftVerdict::kWarmup;
    std::uint32_t alarm_mask = 0;
    bool insufficient = false;  // window skipped: too few samples
    bool refit = false;         // a calibration was published
    bool refit_failed = false;  // drift confirmed but the fit was rejected
  };

  // `frontend` is the twin's frontend tier (arrival_rate is overwritten
  // per fit from the observed device rate); `disk_calibration` supplies
  // the offline shapes every re-fit rescales; `backend_parse` and
  // `processes` complete the DeviceParams the way build_device_params
  // expects.
  CalibrationLoop(RecalibrateConfig config, DiskCalibration disk_calibration,
                  core::FrontendParams frontend,
                  numerics::DistPtr backend_parse, std::uint32_t processes);

  // Sets the counter baseline without consuming a window — call with the
  // snapshot at measurement start (e.g. the benchmark-start snapshot) so
  // the first window excludes warmup traffic.
  void prime(const sim::DeviceCounters& snapshot);

  // Offers the cumulative counter snapshot at one window close.  Windows
  // must be offered in time order, one call per elapsed config.window.
  WindowResult offer(const sim::DeviceCounters& snapshot);

  bool calibrated() const { return params_.has_value(); }
  // Currently published calibration; requires calibrated().
  const core::DeviceParams& params() const;
  // P[latency <= sla] for config().slas under the published calibration;
  // requires calibrated().
  const std::vector<double>& predictions() const;

  const RecalibrateConfig& config() const { return config_; }
  const DriftDetector& detector() const { return detector_; }
  const std::vector<RefitEvent>& refits() const { return refits_; }
  std::uint64_t insufficient_windows() const { return insufficient_; }

 private:
  // Fits + publishes from `window`; returns false when the regime cannot
  // be modelled (the previous calibration stays published).
  bool refit(const WindowObservation& window, std::uint32_t alarm_mask);

  RecalibrateConfig config_;
  DiskCalibration disk_calibration_;
  core::FrontendParams frontend_;
  numerics::DistPtr backend_parse_;
  std::uint32_t processes_ = 1;

  DriftDetector detector_;
  sim::DeviceCounters previous_{};
  double skew_carry_ = 0.0;
  std::uint64_t windows_ = 0;
  std::uint64_t insufficient_ = 0;

  std::optional<core::DeviceParams> params_;
  std::vector<double> predictions_;
  // Response-tape fingerprint of the published model's device — the key
  // root for cdf invalidation at the next re-fit.
  std::uint64_t published_fingerprint_ = 0;
  // core::device_model_key of the published model's device.
  std::uint64_t published_device_key_ = 0;
  std::vector<RefitEvent> refits_;
};

}  // namespace cosm::calibration
