// Calibration-loop tests: drift detection (stability, latency,
// hysteresis), the windowed observer's insufficiency/skew outcomes, the
// hardened characteristic-time bracket, the Degenerate rescale route,
// and the closed loop converging on a stepped-rate regime shift.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <memory>
#include <optional>
#include <vector>

#include "calibration/disk_benchmark.hpp"
#include "calibration/drift.hpp"
#include "calibration/lru_prediction.hpp"
#include "calibration/online_metrics.hpp"
#include "calibration/recalibrate.hpp"
#include "core/system_model.hpp"
#include "obs/obs.hpp"
#include "sim/cluster.hpp"
#include "sim/source.hpp"

namespace cosm::calibration {
namespace {

using numerics::Degenerate;
using numerics::Gamma;

DriftSignals stationary_signals(double jitter = 0.0) {
  DriftSignals s;
  s.arrival_rate = 20.0 * (1.0 + jitter);
  s.data_read_rate = 24.0 * (1.0 + jitter);
  s.index_miss_ratio = 0.3 + 0.3 * jitter;
  s.meta_miss_ratio = 0.3 - 0.3 * jitter;
  s.data_miss_ratio = 0.7 + 0.3 * jitter;
  s.mean_disk_service = 0.010 * (1.0 - jitter);
  return s;
}

// Deterministic pseudo-noise in [-amp, amp] (no RNG needed).
double wobble(int i, double amp) {
  return amp * std::sin(0.7 * static_cast<double>(i) + 0.3);
}

TEST(DriftDetector, StationaryNoisyStreamNeverAlarms) {
  DriftDetector detector;  // default config
  for (int i = 0; i < 200; ++i) {
    const DriftDecision d = detector.offer(stationary_signals(
        wobble(i, 0.02)));  // 2% multiplicative noise
    if (i < detector.config().warmup_windows) {
      EXPECT_EQ(d.verdict, DriftVerdict::kWarmup);
    } else {
      EXPECT_EQ(d.verdict, DriftVerdict::kStable) << "window " << i;
      EXPECT_EQ(d.alarm_mask, 0u) << "window " << i;
    }
  }
}

TEST(DriftDetector, DetectsRateStepWithinFewWindows) {
  DriftDetector detector;
  for (int i = 0; i < 10; ++i) detector.offer(stationary_signals());
  // 2x arrival-rate step: normalized deviation 1.0 per window crosses
  // lambda immediately, so drift confirms in exactly confirm_windows.
  int windows_to_drift = 0;
  DriftDecision d;
  do {
    DriftSignals s = stationary_signals();
    s.arrival_rate *= 2.0;
    s.data_read_rate *= 2.0;
    d = detector.offer(s);
    ++windows_to_drift;
  } while (d.verdict != DriftVerdict::kDrift && windows_to_drift < 20);
  EXPECT_EQ(windows_to_drift, detector.config().confirm_windows);
  // The arrival-rate signal (bit 0) must be among the alarms.
  EXPECT_TRUE(d.alarm_mask & 1u);
}

TEST(DriftDetector, SlowRampBelowDeltaIsAbsorbed) {
  DriftConfig config;
  config.ph_delta = 0.05;
  DriftDetector detector(config);
  // 1% growth per window: each normalized deviation stays below delta
  // once the baseline is set... but deviations accumulate against the
  // FROZEN baseline, so a long enough ramp still (correctly) drifts.
  // Within a diurnal-scale ramp (deviation < delta per window, total
  // excursion < lambda) there must be no alarm.
  double level = 1.0;
  for (int i = 0; i < 3; ++i) {
    DriftSignals s = stationary_signals();
    s.arrival_rate *= level;
    detector.offer(s);
  }
  for (int i = 0; i < 8; ++i) {
    level *= 1.01;
    DriftSignals s = stationary_signals();
    s.arrival_rate *= level;
    const DriftDecision d = detector.offer(s);
    EXPECT_NE(d.verdict, DriftVerdict::kDrift) << "window " << i;
  }
}

TEST(DriftDetector, SingleOutlierAlarmsButDoesNotConfirm) {
  DriftDetector detector;
  for (int i = 0; i < 10; ++i) detector.offer(stationary_signals());
  // A marginal outlier: relative deviation 0.47 pushes the statistic to
  // 0.42 (just over lambda = 0.4), alarming once; back at baseline it
  // decays by delta per window, dropping below lambda before the streak
  // can reach confirm_windows.  (A massive outlier keeping the statistic
  // elevated for many windows IS a change and does confirm — by design.)
  DriftSignals outlier = stationary_signals();
  outlier.mean_disk_service *= 1.47;
  const DriftDecision alarm = detector.offer(outlier);
  EXPECT_EQ(alarm.verdict, DriftVerdict::kAlarm);  // crossed, unconfirmed
  bool drifted = false;
  for (int i = 0; i < 30; ++i) {
    if (detector.offer(stationary_signals()).verdict ==
        DriftVerdict::kDrift) {
      drifted = true;
    }
  }
  EXPECT_FALSE(drifted);
}

TEST(DriftDetector, RebaselineAdoptsNewRegimeWithoutFlapping) {
  DriftDetector detector;
  for (int i = 0; i < 5; ++i) detector.offer(stationary_signals());
  DriftSignals shifted = stationary_signals();
  shifted.arrival_rate *= 2.0;
  while (detector.offer(shifted).verdict != DriftVerdict::kDrift) {
  }
  detector.rebaseline();  // what the loop does after the re-fit
  // Staying at the shifted level must never re-confirm drift.
  for (int i = 0; i < 50; ++i) {
    const DriftDecision d = detector.offer(shifted);
    EXPECT_NE(d.verdict, DriftVerdict::kDrift) << "window " << i;
    EXPECT_NE(d.verdict, DriftVerdict::kAlarm) << "window " << i;
  }
}

TEST(DriftDetector, ConfigValidation) {
  DriftConfig bad;
  bad.ph_lambda = 0.0;
  EXPECT_THROW(DriftDetector{bad}, std::invalid_argument);
  bad = DriftConfig{};
  bad.warmup_windows = 0;
  EXPECT_THROW(DriftDetector{bad}, std::invalid_argument);
  bad = DriftConfig{};
  bad.confirm_windows = 0;
  EXPECT_THROW(DriftDetector{bad}, std::invalid_argument);
}

TEST(DriftDetector, NamesAndVerdictStrings) {
  EXPECT_EQ(drift_signal_name(0), "arrival_rate");
  EXPECT_EQ(drift_signal_name(5), "mean_disk_service");
  EXPECT_THROW(drift_signal_name(kDriftSignalCount), std::invalid_argument);
  EXPECT_EQ(to_string(DriftVerdict::kDrift), "drift");
  EXPECT_EQ(to_string(DriftVerdict::kStable), "stable");
}

// ---------------- windowed observer (satellites 1 & 2) ----------------

sim::DeviceCounters make_counters(std::uint64_t requests,
                                  std::uint64_t data_reads,
                                  std::uint64_t disk_ops,
                                  double service_sum) {
  sim::DeviceCounters c;
  c.requests = requests;
  c.data_reads = data_reads;
  const auto data = static_cast<std::size_t>(sim::AccessKind::kData);
  c.accesses[data] = data_reads;
  c.misses[data] = data_reads / 2;
  c.disk_ops[data] = disk_ops;
  c.disk_service_sum[data] = service_sum;
  return c;
}

TEST(DriftObserveWindow, EmptyWindowIsAnOutcomeNotAThrow) {
  const sim::DeviceCounters snap = make_counters(500, 600, 300, 3.0);
  double carry = 0.0;
  // Identical snapshots = an idle window: insufficient, not an error.
  EXPECT_EQ(observe_window(snap, snap, 5.0, 1, &carry), std::nullopt);
  // Below min_requests: also insufficient.
  const sim::DeviceCounters next = make_counters(510, 612, 306, 3.06);
  EXPECT_EQ(observe_window(snap, next, 5.0, 50, &carry), std::nullopt);
  // Misuse still throws.
  EXPECT_THROW(observe_window(snap, next, 0.0, 1, &carry),
               std::invalid_argument);
  EXPECT_THROW(observe_window(snap, next, 5.0, 1, nullptr),
               std::invalid_argument);
  EXPECT_THROW(observe_window(next, snap, 5.0, 1, &carry),
               std::invalid_argument);  // counters ran backwards
}

TEST(DriftObserveWindow, TryEstimateMissRatioReportsInsufficiency) {
  EXPECT_EQ(try_estimate_miss_ratio({}), std::nullopt);
  const std::vector<double> lat = {0.0, 0.008, 0.0, 0.0};
  EXPECT_NEAR(*try_estimate_miss_ratio(lat), 0.25, 1e-12);
  // The throwing form keeps throwing (direct misuse).
  EXPECT_THROW(estimate_miss_ratio({}), std::invalid_argument);
  EXPECT_THROW(try_estimate_miss_ratio(lat, 0.0), std::invalid_argument);
}

TEST(DriftObserveWindow, BoundarySkewClampsAndCarries) {
  obs::set_enabled(true);
  obs::reset();
  const std::uint64_t skew_before =
      obs::counter_value(obs::Counter::kCalibWindowSkew);

  const sim::DeviceCounters start = make_counters(0, 0, 0, 0.0);
  // Window 1 closes with 100 requests but only 90 data reads recorded —
  // the reads of late-admitted requests land after the boundary.
  const sim::DeviceCounters mid = make_counters(100, 90, 80, 0.8);
  // Window 2 sees the 10 spilled reads on top of its own 110.
  const sim::DeviceCounters end = make_counters(200, 210, 170, 1.7);

  double carry = 0.0;
  const auto w1 = observe_window(start, mid, 5.0, 1, &carry);
  ASSERT_TRUE(w1.has_value());
  // Clamped to the r_d >= r identity; deficit carried.
  EXPECT_DOUBLE_EQ(w1->observation.data_read_rate,
                   w1->observation.request_rate);
  EXPECT_DOUBLE_EQ(carry, 10.0);
  EXPECT_EQ(obs::counter_value(obs::Counter::kCalibWindowSkew),
            skew_before + 1);

  const auto w2 = observe_window(mid, end, 5.0, 1, &carry);
  ASSERT_TRUE(w2.has_value());
  // Window 2's raw delta is 120 reads on 100 requests; the 10-read carry
  // deducts to the 110 that genuinely belong to it.
  EXPECT_DOUBLE_EQ(w2->observation.data_read_rate * 5.0, 110.0);
  EXPECT_DOUBLE_EQ(carry, 0.0);
  EXPECT_EQ(obs::counter_value(obs::Counter::kCalibWindowSkew),
            skew_before + 1);  // no clamp in window 2
  obs::set_enabled(false);
}

// ---------------- bracket exhaustion (satellite 3) ----------------

TEST(DriftLruBracket, ExhaustedBracketFailsLoudly) {
  // A filtered tier population can carry weights like w * e^{-w t1} that
  // underflow far below what 200 doublings (2^200 ~ 1.6e60) can clear:
  // occupancy(2^200) = 10 * (1 - e^{-1e-300 * 1.6e60}) ~ 1.6e-239 << 5.
  // Before the fix, bisection over the unverified bracket returned ~2^200
  // and predict_lru_hit_ratio silently reported a near-zero hit ratio.
  ChunkPopulation pathological;
  pathological.weight = {1e-300};
  pathological.chunks = {10.0};
  pathological.total_chunks = 10.0;
  EXPECT_THROW(che_characteristic_time(pathological, 5), std::logic_error);
  EXPECT_THROW(predict_lru_hit_ratio(pathological, 5), std::logic_error);

  // A healthy population still solves (per-chunk reference weights
  // normalized: sum w_i c_i = 1).
  ChunkPopulation healthy;
  healthy.weight = {0.2, 0.025};
  healthy.chunks = {4.0, 8.0};
  healthy.total_chunks = 12.0;
  const double t = che_characteristic_time(healthy, 6);
  EXPECT_TRUE(std::isfinite(t));
  EXPECT_GT(t, 0.0);
  const double hit = predict_lru_hit_ratio(healthy, 6);
  EXPECT_GT(hit, 0.0);
  EXPECT_LT(hit, 1.0);
}

// ---------------- degenerate rescale (satellite 4) ----------------

// A fitted shape the explicit branches don't know, reporting zero
// variance — the case the old fallback papered over with cv2 = 1e-6.
class ZeroVarianceDist final : public numerics::Distribution {
 public:
  std::string name() const override { return "zero-variance"; }
  std::complex<double> laplace(std::complex<double> s) const override {
    return std::exp(-s * 0.004);
  }
  double mean() const override { return 0.004; }
  double second_moment() const override { return 0.004 * 0.004; }
};

TEST(DriftRescale, NonPositiveVarianceRoutesToDegenerate) {
  obs::set_enabled(true);
  obs::reset();
  const std::uint64_t before =
      obs::counter_value(obs::Counter::kCalibRescaleDegenerate);
  const numerics::DistPtr fitted = std::make_shared<ZeroVarianceDist>();
  const numerics::DistPtr rescaled = rescale_to_mean(fitted, 0.006);
  ASSERT_NE(dynamic_cast<const Degenerate*>(rescaled.get()), nullptr);
  EXPECT_DOUBLE_EQ(rescaled->mean(), 0.006);
  EXPECT_EQ(obs::counter_value(obs::Counter::kCalibRescaleDegenerate),
            before + 1);
  obs::set_enabled(false);

  // The healthy branches stay untouched: Gamma keeps its shape...
  const numerics::DistPtr gamma =
      rescale_to_mean(std::make_shared<Gamma>(3.0, 300.0), 0.02);
  const auto* g = dynamic_cast<const Gamma*>(gamma.get());
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->shape(), 3.0);
  EXPECT_NEAR(gamma->mean(), 0.02, 1e-12);
  // ...and misuse throws.
  EXPECT_THROW(rescale_to_mean(fitted, 0.0), std::invalid_argument);
}

// ---------------- cache erasure primitive ----------------

TEST(DriftCacheErase, EraseIsTargetedAndNotAnEviction) {
  numerics::MemoCache<std::uint64_t, double> cache(8);
  cache.insert(1, 1.0);
  cache.insert(2, 2.0);
  EXPECT_TRUE(cache.erase(1));
  EXPECT_FALSE(cache.erase(1));  // already gone
  EXPECT_FALSE(cache.lookup(1).has_value());
  EXPECT_TRUE(cache.lookup(2).has_value());  // untouched neighbor
  const numerics::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 0u);  // erasure is not capacity pressure
  EXPECT_EQ(stats.size, 1u);
}

// ---------------- the closed loop over a stepped-rate run ----------------

struct SteppedRun {
  std::vector<sim::DeviceCounters> snapshots;  // at each window close
  sim::DeviceCounters at_benchmark_start;
  double window = 20.0;
  int pre_windows = 0;
  int post_windows = 0;
  double base_rate = 20.0;
  double stepped_rate = 40.0;
  sim::ClusterConfig config;
};

SteppedRun run_stepped(double base_rate, double stepped_rate) {
  SteppedRun run;
  run.base_rate = base_rate;
  run.stepped_rate = stepped_rate;
  run.config.frontend_processes = 1;
  run.config.device_count = 1;
  run.config.processes_per_device = 1;
  run.config.cache.index_miss_ratio = 0.3;
  run.config.cache.meta_miss_ratio = 0.3;
  run.config.cache.data_miss_ratio = 0.7;
  run.config.seed = 17;
  sim::Cluster cluster(run.config);
  run.config = cluster.config();  // finalized: parse distributions filled

  workload::CatalogConfig cat_config;
  cat_config.object_count = 3000;
  cat_config.size_distribution = workload::default_size_distribution();
  const workload::ObjectCatalog catalog(cat_config);
  const workload::Placement placement({.partition_count = 64,
                                       .replica_count = 1,
                                       .device_count = 1,
                                       .seed = 2});

  const double warmup = 60.0;
  const double pre = 200.0;
  const double post = 200.0;
  sim::OpenLoopSource source(
      cluster, catalog, placement,
      workload::stepped_ramp_segments(base_rate, warmup, base_rate, pre,
                                      stepped_rate, post),
      cosm::Rng(4));
  run.pre_windows = static_cast<int>(pre / run.window);
  run.post_windows = static_cast<int>(post / run.window);

  cluster.engine().schedule_at(source.benchmark_start_time(), [&] {
    run.at_benchmark_start = cluster.metrics().device(0);
  });
  const int windows = run.pre_windows + run.post_windows;
  run.snapshots.resize(static_cast<std::size_t>(windows));
  for (int w = 0; w < windows; ++w) {
    const double at =
        source.benchmark_start_time() + run.window * (w + 1);
    cluster.engine().schedule_at(at, [&run, &cluster, w] {
      run.snapshots[static_cast<std::size_t>(w)] =
          cluster.metrics().device(0);
    });
  }
  source.start();
  cluster.engine().run_until(source.horizon());
  cluster.engine().run_all();
  return run;
}

RecalibrateConfig loop_config(const SteppedRun& run,
                              core::PredictionCache* cache) {
  RecalibrateConfig config;
  config.window = run.window;
  config.min_requests = 20;
  config.slas = {0.05, 0.1};
  config.cache = cache;
  config.drift.warmup_windows = 2;
  config.drift.confirm_windows = 2;
  config.drift.cooldown_windows = 2;
  return config;
}

CalibrationLoop make_loop(const SteppedRun& run,
                          const DiskCalibration& disk_cal,
                          core::PredictionCache* cache) {
  core::FrontendParams frontend;
  frontend.processes = run.config.frontend_processes;
  frontend.frontend_parse = run.config.frontend_parse;
  return CalibrationLoop(loop_config(run, cache), disk_cal, frontend,
                         run.config.backend_parse, 1);
}

TEST(DriftCalibrationLoop, ConvergesToPostStepTruthAndInvalidatesByKey) {
  obs::set_enabled(true);
  obs::reset();
  const SteppedRun run = run_stepped(20.0, 40.0);
  const DiskCalibration disk_cal =
      benchmark_disk(run.config.disk, {.objects = 8000});

  core::PredictionCache cache;
  CalibrationLoop loop = make_loop(run, disk_cal, &cache);
  loop.prime(run.at_benchmark_start);

  int drift_refits = 0;
  int drift_window = -1;
  for (int w = 0; w < static_cast<int>(run.snapshots.size()); ++w) {
    const auto result =
        loop.offer(run.snapshots[static_cast<std::size_t>(w)]);
    EXPECT_FALSE(result.insufficient) << "window " << w;
    if (result.refit && result.alarm_mask != 0) {
      ++drift_refits;
      if (drift_window < 0) drift_window = w;
    }
    // No drift verdict may fire before the step.
    if (w < run.pre_windows) {
      EXPECT_NE(result.verdict, DriftVerdict::kDrift) << "window " << w;
    }
  }

  // Exactly one drift-triggered re-fit, shortly after the step.
  EXPECT_EQ(drift_refits, 1);
  ASSERT_GE(drift_window, run.pre_windows);
  EXPECT_LE(drift_window,
            run.pre_windows + loop.config().drift.confirm_windows + 1);

  // The re-published calibration converged to the post-step truth.
  ASSERT_TRUE(loop.calibrated());
  EXPECT_NEAR(loop.params().arrival_rate, 40.0, 4.0);
  EXPECT_NEAR(loop.params().index_miss_ratio, 0.3, 0.06);
  EXPECT_NEAR(loop.params().data_miss_ratio, 0.7, 0.06);
  ASSERT_EQ(loop.refits().size(), 2u);  // initial fit + drift re-fit
  EXPECT_EQ(loop.refits().front().alarm_mask, 0u);
  EXPECT_NEAR(loop.refits().front().params.arrival_rate, 20.0, 2.0);

  // Fingerprint-keyed invalidation: the initial fit's device-model entry
  // was erased by the re-fit (a fresh lookup misses), while the re-fit's
  // own entry is resident (a fresh build hits it).  The loop's frontend
  // runs at each fit's device rate.
  const auto device_key = [&](const core::DeviceParams& params) {
    core::FrontendParams frontend;
    frontend.arrival_rate = params.arrival_rate;
    frontend.processes = run.config.frontend_processes;
    frontend.frontend_parse = run.config.frontend_parse;
    return core::device_model_key(frontend, params, loop.config().options);
  };
  EXPECT_FALSE(cache.devices.lookup(device_key(loop.refits().front().params))
                   .has_value());
  EXPECT_TRUE(cache.devices.lookup(device_key(loop.params())).has_value());
  // One device-model entry, one cdf entry per SLA.
  EXPECT_EQ(loop.refits().back().cache_evictions,
            1 + loop.config().slas.size());
  EXPECT_GE(obs::counter_value(obs::Counter::kCalibRefitCacheEvictions),
            loop.refits().back().cache_evictions);
  EXPECT_EQ(obs::counter_value(obs::Counter::kCalibDriftDetected), 1u);
  EXPECT_EQ(obs::counter_value(obs::Counter::kCalibRefitModels), 2u);

  // Republished predictions are usable percentiles.
  for (const double p : loop.predictions()) {
    EXPECT_GT(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  obs::set_enabled(false);
}

TEST(DriftCalibrationLoop, StationaryRunNeverRefitsAfterInitialFit) {
  obs::set_enabled(true);
  obs::reset();
  // Same harness, no step: the no-flap guarantee.
  const SteppedRun run = run_stepped(20.0, 20.0);
  const DiskCalibration disk_cal =
      benchmark_disk(run.config.disk, {.objects = 8000});
  CalibrationLoop loop = make_loop(run, disk_cal, nullptr);
  loop.prime(run.at_benchmark_start);
  for (const auto& snapshot : run.snapshots) {
    const auto result = loop.offer(snapshot);
    EXPECT_NE(result.verdict, DriftVerdict::kDrift);
  }
  EXPECT_EQ(loop.refits().size(), 1u);  // the initial fit only
  EXPECT_EQ(loop.refits().front().alarm_mask, 0u);
  EXPECT_EQ(obs::counter_value(obs::Counter::kCalibDriftDetected), 0u);
  EXPECT_EQ(obs::counter_value(obs::Counter::kCalibDriftAlarms), 0u);
  obs::set_enabled(false);
}

TEST(DriftCalibrationLoop, FlashCrowdRefitsOnBurstAndOnReturn) {
  // A burst that reverts: the loop must re-fit into the burst and then
  // re-fit again back toward the base regime.
  SteppedRun run;
  run.config.frontend_processes = 1;
  run.config.device_count = 1;
  run.config.processes_per_device = 1;
  run.config.cache.index_miss_ratio = 0.3;
  run.config.cache.meta_miss_ratio = 0.3;
  run.config.cache.data_miss_ratio = 0.7;
  run.config.seed = 23;
  sim::Cluster cluster(run.config);
  run.config = cluster.config();  // finalized: parse distributions filled
  workload::CatalogConfig cat_config;
  cat_config.object_count = 3000;
  cat_config.size_distribution = workload::default_size_distribution();
  const workload::ObjectCatalog catalog(cat_config);
  const workload::Placement placement({.partition_count = 64,
                                       .replica_count = 1,
                                       .device_count = 1,
                                       .seed = 2});
  sim::OpenLoopSource source(
      cluster, catalog, placement,
      workload::flash_crowd_segments(20.0, 60.0, 20.0, 160.0, 45.0, 160.0,
                                     200.0),
      cosm::Rng(9));
  cluster.engine().schedule_at(source.benchmark_start_time(), [&] {
    run.at_benchmark_start = cluster.metrics().device(0);
  });
  const int windows = static_cast<int>((160.0 + 160.0 + 200.0) / run.window);
  run.snapshots.resize(static_cast<std::size_t>(windows));
  for (int w = 0; w < windows; ++w) {
    cluster.engine().schedule_at(
        source.benchmark_start_time() + run.window * (w + 1),
        [&run, &cluster, w] {
          run.snapshots[static_cast<std::size_t>(w)] =
              cluster.metrics().device(0);
        });
  }
  source.start();
  cluster.engine().run_until(source.horizon());
  cluster.engine().run_all();

  const DiskCalibration disk_cal =
      benchmark_disk(run.config.disk, {.objects = 8000});
  CalibrationLoop loop = make_loop(run, disk_cal, nullptr);
  loop.prime(run.at_benchmark_start);
  for (const auto& snapshot : run.snapshots) loop.offer(snapshot);

  // Initial fit + burst re-fit + return re-fit.
  ASSERT_EQ(loop.refits().size(), 3u);
  EXPECT_NEAR(loop.refits()[1].params.arrival_rate, 45.0, 4.5);
  EXPECT_NEAR(loop.refits()[2].params.arrival_rate, 20.0, 3.0);
}

}  // namespace
}  // namespace cosm::calibration
