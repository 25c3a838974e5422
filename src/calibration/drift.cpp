#include "calibration/drift.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"
#include "obs/obs.hpp"

namespace cosm::calibration {

namespace {

constexpr std::array<std::string_view, kDriftSignalCount> kSignalNames = {
    "arrival_rate",   "data_read_rate",    "index_miss_ratio",
    "meta_miss_ratio", "data_miss_ratio",  "mean_disk_service",
};

// Signals in [0, 1] (miss ratios) deviate absolutely; unbounded signals
// (rates, service times) deviate relative to their baseline so one
// (delta, lambda) pair is scale-free across them.
constexpr std::array<bool, kDriftSignalCount> kRelativeSignal = {
    true, true, false, false, false, true,
};

// Floor for relative normalization: a baseline at (or below) this is
// treated as "effectively zero", falling back to absolute deviations so
// an idle-baseline signal cannot divide to infinity.
constexpr double kRelativeFloor = 1e-12;

std::array<double, kDriftSignalCount> signal_values(
    const DriftSignals& signals) {
  return {signals.arrival_rate,     signals.data_read_rate,
          signals.index_miss_ratio, signals.meta_miss_ratio,
          signals.data_miss_ratio,  signals.mean_disk_service};
}

}  // namespace

std::string_view drift_signal_name(std::size_t index) {
  COSM_REQUIRE(index < kDriftSignalCount, "drift signal index out of range");
  return kSignalNames[index];
}

std::string_view to_string(DriftVerdict verdict) {
  switch (verdict) {
    case DriftVerdict::kWarmup:
      return "warmup";
    case DriftVerdict::kCooldown:
      return "cooldown";
    case DriftVerdict::kStable:
      return "stable";
    case DriftVerdict::kAlarm:
      return "alarm";
    case DriftVerdict::kDrift:
      return "drift";
  }
  return "unknown";
}

void DriftConfig::validate() const {
  COSM_REQUIRE(ph_delta >= 0, "ph_delta must be non-negative");
  COSM_REQUIRE(ph_lambda > 0, "ph_lambda must be positive");
  COSM_REQUIRE(warmup_windows >= 1, "warmup needs at least one window");
  COSM_REQUIRE(confirm_windows >= 1, "confirm_windows must be >= 1");
  COSM_REQUIRE(cooldown_windows >= 0, "cooldown_windows must be >= 0");
}

DriftDetector::DriftDetector(DriftConfig config) : config_(config) {
  config_.validate();
  warmup_remaining_ = config_.warmup_windows;
}

DriftDecision DriftDetector::offer(const DriftSignals& signals) {
  obs::add(obs::Counter::kCalibDriftWindows);
  const std::array<double, kDriftSignalCount> values = signal_values(signals);

  if (warmup_remaining_ > 0) {
    for (std::size_t i = 0; i < kDriftSignalCount; ++i) {
      signals_[i].warmup_sum += values[i];
    }
    if (--warmup_remaining_ == 0) {
      for (SignalState& state : signals_) {
        state.baseline =
            state.warmup_sum / static_cast<double>(config_.warmup_windows);
        state.warmup_sum = 0.0;
        state.up = state.down = 0.0;
      }
      baseline_ready_ = true;
    }
    return {DriftVerdict::kWarmup, 0};
  }

  std::uint32_t alarm_mask = 0;
  for (std::size_t i = 0; i < kDriftSignalCount; ++i) {
    SignalState& state = signals_[i];
    double dev = values[i] - state.baseline;
    if (kRelativeSignal[i] && std::abs(state.baseline) > kRelativeFloor) {
      dev /= std::abs(state.baseline);
    }
    state.up = std::max(0.0, state.up + dev - config_.ph_delta);
    state.down = std::max(0.0, state.down - dev - config_.ph_delta);
    if (state.up > config_.ph_lambda || state.down > config_.ph_lambda) {
      alarm_mask |= std::uint32_t{1} << i;
    }
  }

  if (cooldown_remaining_ > 0) {
    // Quiet period after a re-fit: the statistics keep updating (so a
    // genuine second shift is not forgotten) but alarms are held and the
    // confirmation streak stays broken.
    --cooldown_remaining_;
    consecutive_alarms_ = 0;
    return {DriftVerdict::kCooldown, alarm_mask};
  }

  if (alarm_mask == 0) {
    consecutive_alarms_ = 0;
    return {DriftVerdict::kStable, 0};
  }

  obs::add(obs::Counter::kCalibDriftAlarms);
  ++consecutive_alarms_;
  if (consecutive_alarms_ < config_.confirm_windows) {
    return {DriftVerdict::kAlarm, alarm_mask};
  }
  if (consecutive_alarms_ == config_.confirm_windows) {
    obs::add(obs::Counter::kCalibDriftDetected);
  }
  return {DriftVerdict::kDrift, alarm_mask};
}

void DriftDetector::rebaseline() {
  for (SignalState& state : signals_) state = SignalState{};
  warmup_remaining_ = config_.warmup_windows;
  cooldown_remaining_ = config_.cooldown_windows;
  consecutive_alarms_ = 0;
  baseline_ready_ = false;
}

}  // namespace cosm::calibration
