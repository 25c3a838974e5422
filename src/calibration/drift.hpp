// Online drift detection for the digital-twin calibration loop.
//
// A published calibration is only as good as the regime it was fitted
// in: arrival ramps, working-set shifts that move the cache miss ratios,
// and disk service degradation all leave the frozen model predicting a
// system that no longer exists.  DriftDetector watches the windowed
// Sec. IV-B online metrics — one DriftSignals sample per closed
// measurement window — and decides, per window, whether the regime has
// changed enough to warrant a re-fit.
//
// Detector math.  Each signal runs an independent two-sided CUSUM in the
// Page–Hinkley form over deviations from a frozen baseline:
//
//   dev_t  = normalize(x_t) - normalize(baseline)      (see below)
//   up_t   = max(0, up_{t-1}  + dev_t - delta)
//   down_t = max(0, down_{t-1} - dev_t - delta)
//   alarm when up_t > lambda or down_t > lambda.
//
// The baseline is the mean of the first `warmup_windows` samples after
// construction or rebaseline().  Rates and service times are scale-free
// (dev is relative: x/baseline - 1) so one (delta, lambda) pair covers
// signals of any magnitude; miss ratios are already in [0, 1] and use
// absolute deviations (a relative form would explode near the
// hot-cache baseline of ~0).
//
// Hysteresis — the no-flap contract.  `delta` absorbs per-window drift
// below its magnitude, so slow diurnal ramps never accumulate; an alarm
// must persist `confirm_windows` consecutive windows before the verdict
// escalates to kDrift; and after rebaseline() (which the calibration
// loop calls on every re-fit) the detector re-learns its baseline over a
// fresh warmup and then holds alarms for `cooldown_windows` more
// windows, so one regime change produces one re-fit, not a burst.
// tests/calibration/test_drift.cpp pins stationary stability, detection
// latency, and ramp robustness.
//
// Observability: every offer() files calib.drift.windows; windows where
// some signal crossed file calib.drift.alarms; confirmed verdicts file
// calib.drift.detected (once per confirmation, not per drifting window).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace cosm::calibration {

// One window's online metrics — the Sec. IV-B monitoring quantities the
// loop derives via observe_window().
struct DriftSignals {
  double arrival_rate = 0.0;       // r (req/s)
  double data_read_rate = 0.0;     // r_d (chunk reads/s)
  double index_miss_ratio = 0.0;   // m_i
  double meta_miss_ratio = 0.0;    // m_m
  double data_miss_ratio = 0.0;    // m_d
  double mean_disk_service = 0.0;  // aggregate b (seconds)
};

inline constexpr std::size_t kDriftSignalCount = 6;

// Stable name of signal `index` (the DriftSignals field order) — used in
// drift_status JSON and test diagnostics.
std::string_view drift_signal_name(std::size_t index);

struct DriftConfig {
  // Per-window drift allowance in normalized units: deviations below
  // delta never accumulate, which is what absorbs slow diurnal ramps.
  double ph_delta = 0.05;
  // Alarm threshold on the cumulative statistic (normalized units).
  double ph_lambda = 0.4;
  // Windows averaged into the frozen baseline after (re)baseline.
  int warmup_windows = 3;
  // Consecutive alarmed windows required before kDrift is declared.
  int confirm_windows = 2;
  // Post-warmup windows after rebaseline() during which alarms are held.
  int cooldown_windows = 2;

  void validate() const;
};

enum class DriftVerdict : std::uint8_t {
  kWarmup,    // collecting the baseline; no test is run
  kCooldown,  // post-refit quiet period; statistics update, alarms held
  kStable,    // no signal crossed its test this window
  kAlarm,     // crossed, but not yet for confirm_windows in a row
  kDrift,     // confirmed regime change — re-fit now
};

std::string_view to_string(DriftVerdict verdict);

struct DriftDecision {
  DriftVerdict verdict = DriftVerdict::kWarmup;
  // Bit i set = signal i (DriftSignals field order) crossed its test.
  std::uint32_t alarm_mask = 0;
};

class DriftDetector {
 public:
  explicit DriftDetector(DriftConfig config = {});

  // Offers one closed window's signals; returns the verdict.  Windows
  // must arrive in time order, one call per window.
  DriftDecision offer(const DriftSignals& signals);

  // Discards the baseline and test statistics and starts a fresh warmup
  // followed by a cooldown — called by the calibration loop after every
  // re-fit so the new regime is judged against its own baseline.
  void rebaseline();

  const DriftConfig& config() const { return config_; }
  // Baseline currently frozen (valid once warmup completed).
  bool baseline_ready() const { return baseline_ready_; }

 private:
  struct SignalState {
    double baseline = 0.0;
    double warmup_sum = 0.0;
    double up = 0.0;
    double down = 0.0;
  };

  DriftConfig config_;
  std::array<SignalState, kDriftSignalCount> signals_{};
  int warmup_remaining_ = 0;
  int cooldown_remaining_ = 0;
  int consecutive_alarms_ = 0;
  bool baseline_ready_ = false;
};

}  // namespace cosm::calibration
