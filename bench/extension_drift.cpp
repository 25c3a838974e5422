// Extension experiment: does closing the calibration loop pay?
//
// The paper calibrates once and predicts forever (Sec. IV); the drift
// extension (calibration/drift.hpp, recalibrate.hpp) watches windowed
// online metrics, detects regime change with a two-sided CUSUM, and
// re-fits automatically.  This harness stages the canonical regime
// shift — a stepped arrival ramp, 40 -> 20 req/s on one device (a twin
// calibrated under heavy load whose workload then settles) — and races
// two twins against the simulator's per-window SLA attainment:
//
//  * frozen — the initial calibration, never revisited (the paper's
//    workflow);
//  * closed-loop — a CalibrationLoop consuming the same counter
//    snapshots, re-fitting on confirmed drift.
//
// Gates (exit non-zero on any failure):
//  * no-flap — zero drift-triggered re-fits before the step, and exactly
//    one after it (one regime change = one re-fit);
//  * recalibration pays — over the post-re-fit windows, the closed
//    loop's mean |predicted - observed| attainment error is strictly
//    below the frozen model's;
//  * sanity — the frozen model stays accurate BEFORE the step (the loop
//    must beat a healthy baseline, not a strawman);
//  * determinism — a full same-seed repeat (simulation + loop) is
//    bit-identical: latency sums, re-fit count, and published arrival
//    rates all match exactly.
//
// Emits BENCH_drift.json; --trace-json=<path> additionally enables
// observability and exports the obs trace (the drift-smoke CI job
// validates the calib.* counters in it).
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "calibration/disk_benchmark.hpp"
#include "calibration/recalibrate.hpp"
#include "common/table.hpp"
#include "core/system_model.hpp"
#include "obs/obs.hpp"
#include "sim/cluster.hpp"
#include "sim/source.hpp"

namespace {

// SLA grid chosen where the analytic model holds the paper's accuracy
// band in BOTH regimes (the model is intentionally conservative in the
// distribution head at high utilisation; scoring there would measure
// model bias, not calibration staleness).
constexpr double kSlas[3] = {0.100, 0.200, 0.300};
constexpr double kWindow = 20.0;  // seconds per calibration window
constexpr double kBaseRate = 40.0;
constexpr double kSteppedRate = 20.0;
constexpr std::uint64_t kSeed = 20260807;

struct Options {
  double scale = 1.0;
  std::string out = "BENCH_drift.json";
  std::string trace_json;  // empty = observability stays disabled
};

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) {
      options.scale = std::atof(arg.c_str() + 8);
    } else if (arg.rfind("--out=", 0) == 0) {
      options.out = arg.substr(6);
    } else if (arg.rfind("--trace-json=", 0) == 0) {
      options.trace_json = arg.substr(13);
    }
  }
  if (const char* env = std::getenv("COSM_BENCH_SCALE")) {
    options.scale = std::atof(env);
  }
  if (!(options.scale > 0.0)) {
    std::cerr << "--scale must be positive\n";
    std::exit(2);
  }
  return options;
}

struct SimRun {
  std::vector<cosm::sim::DeviceCounters> snapshots;  // one per window close
  cosm::sim::DeviceCounters at_benchmark_start;
  // observed[w][i] = fraction of window w's arrivals finishing within
  // kSlas[i] (requests bucketed by frontend arrival time).
  std::vector<std::array<double, 3>> observed;
  cosm::sim::ClusterConfig config;  // finalized
  double latency_sum = 0.0;         // bitwise determinism probe
  std::uint64_t completed = 0;
  int pre_windows = 0;
  int post_windows = 0;
};

SimRun run_sim(int pre_windows, int post_windows) {
  SimRun run;
  run.pre_windows = pre_windows;
  run.post_windows = post_windows;
  cosm::sim::ClusterConfig config;
  config.frontend_processes = 1;
  config.device_count = 1;
  config.processes_per_device = 1;
  config.seed = kSeed;
  cosm::sim::Cluster cluster(config);
  run.config = cluster.config();

  cosm::workload::CatalogConfig cat_config;
  cat_config.object_count = 3000;
  cat_config.size_distribution = cosm::workload::default_size_distribution();
  cat_config.seed = kSeed + 1;
  const cosm::workload::ObjectCatalog catalog(cat_config);
  const cosm::workload::Placement placement({.partition_count = 64,
                                             .replica_count = 1,
                                             .device_count = 1,
                                             .seed = kSeed + 2});

  const double pre = kWindow * pre_windows;
  const double post = kWindow * post_windows;
  cosm::sim::OpenLoopSource source(
      cluster, catalog, placement,
      cosm::workload::stepped_ramp_segments(kBaseRate, 60.0, kBaseRate, pre,
                                            kSteppedRate, post),
      cosm::Rng(kSeed + 3));
  cluster.metrics().sample_start_time = source.benchmark_start_time();
  cluster.engine().schedule_at(source.benchmark_start_time(), [&] {
    run.at_benchmark_start = cluster.metrics().device(0);
  });
  const int windows = pre_windows + post_windows;
  run.snapshots.resize(static_cast<std::size_t>(windows));
  for (int w = 0; w < windows; ++w) {
    cluster.engine().schedule_at(
        source.benchmark_start_time() + kWindow * (w + 1),
        [&run, &cluster, w] {
          run.snapshots[static_cast<std::size_t>(w)] =
              cluster.metrics().device(0);
        });
  }
  source.start();
  cluster.engine().run_until(source.horizon());
  cluster.engine().run_all();

  // Per-window attainment, requests keyed by their arrival window.
  std::vector<std::array<std::uint64_t, 3>> met(
      static_cast<std::size_t>(windows), {0, 0, 0});
  std::vector<std::uint64_t> total(static_cast<std::size_t>(windows), 0);
  const double start = source.benchmark_start_time();
  for (const auto& sample : cluster.metrics().requests()) {
    run.latency_sum += sample.response_latency;
    const int w = static_cast<int>((sample.frontend_arrival - start) /
                                   kWindow);
    if (w < 0 || w >= windows) continue;
    ++total[static_cast<std::size_t>(w)];
    for (int i = 0; i < 3; ++i) {
      if (sample.response_latency <= kSlas[i]) {
        ++met[static_cast<std::size_t>(w)][static_cast<std::size_t>(i)];
      }
    }
  }
  run.completed = cluster.metrics().completed_requests();
  run.observed.resize(static_cast<std::size_t>(windows));
  for (int w = 0; w < windows; ++w) {
    for (int i = 0; i < 3; ++i) {
      const auto uw = static_cast<std::size_t>(w);
      run.observed[uw][static_cast<std::size_t>(i)] =
          total[uw] == 0 ? 0.0
                         : static_cast<double>(
                               met[uw][static_cast<std::size_t>(i)]) /
                               static_cast<double>(total[uw]);
    }
  }
  return run;
}

struct LoopRun {
  // predictions[w][i] = the published P[latency <= kSlas[i]] as of the
  // end of window w (the prediction an operator would be trusting).
  std::vector<std::array<double, 3>> predictions;
  std::vector<std::string> verdicts;
  int drift_refits = 0;
  int refit_window = -1;  // loop index of the drift-triggered re-fit
  std::size_t cache_evictions = 0;
  double initial_rate = 0.0;    // arrival rate of the initial fit
  double published_rate = 0.0;  // arrival rate published at the end
  std::size_t refits_total = 0;
};

LoopRun run_loop(const SimRun& sim,
                 const cosm::calibration::DiskCalibration& disk_cal,
                 cosm::core::PredictionCache* cache) {
  cosm::calibration::RecalibrateConfig config;
  config.window = kWindow;
  config.min_requests = 20;
  config.slas = {kSlas[0], kSlas[1], kSlas[2]};
  config.cache = cache;
  config.drift.warmup_windows = 2;
  config.drift.confirm_windows = 2;
  config.drift.cooldown_windows = 2;

  cosm::core::FrontendParams frontend;
  frontend.processes = sim.config.frontend_processes;
  frontend.frontend_parse = sim.config.frontend_parse;
  cosm::calibration::CalibrationLoop loop(config, disk_cal, frontend,
                                          sim.config.backend_parse, 1);
  loop.prime(sim.at_benchmark_start);

  LoopRun result;
  for (std::size_t w = 0; w < sim.snapshots.size(); ++w) {
    const auto window_result = loop.offer(sim.snapshots[w]);
    result.verdicts.emplace_back(
        cosm::calibration::to_string(window_result.verdict));
    if (window_result.refit && window_result.alarm_mask != 0) {
      ++result.drift_refits;
      if (result.refit_window < 0) result.refit_window = static_cast<int>(w);
    }
    std::array<double, 3> current = {0.0, 0.0, 0.0};
    if (loop.calibrated()) {
      for (int i = 0; i < 3; ++i) {
        current[static_cast<std::size_t>(i)] =
            loop.predictions()[static_cast<std::size_t>(i)];
      }
    }
    result.predictions.push_back(current);
  }
  if (!loop.refits().empty()) {
    result.initial_rate = loop.refits().front().params.arrival_rate;
    result.published_rate = loop.params().arrival_rate;
    for (const auto& refit : loop.refits()) {
      result.cache_evictions += refit.cache_evictions;
    }
  }
  result.refits_total = loop.refits().size();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  if (!options.trace_json.empty()) cosm::obs::set_enabled(true);

  const int pre_windows =
      std::max(4, static_cast<int>(std::lround(10 * options.scale)));
  const int post_windows =
      std::max(5, static_cast<int>(std::lround(10 * options.scale)));

  const SimRun sim = run_sim(pre_windows, post_windows);
  const cosm::calibration::DiskCalibration disk_cal =
      cosm::calibration::benchmark_disk(sim.config.disk,
                                        {.objects = 8000, .seed = kSeed + 4});
  cosm::core::PredictionCache cache;
  const LoopRun loop = run_loop(sim, disk_cal, &cache);

  bool ok = true;
  const int windows = pre_windows + post_windows;

  // Frozen twin: the initial fit's predictions, held for the whole run.
  std::array<double, 3> frozen = {0.0, 0.0, 0.0};
  for (int w = 0; w < windows; ++w) {
    // First window with a published calibration = the initial fit.
    if (loop.predictions[static_cast<std::size_t>(w)][0] > 0.0) {
      frozen = loop.predictions[static_cast<std::size_t>(w)];
      break;
    }
  }

  cosm::Table table({"window", "regime", "verdict", "sim 100ms",
                     "frozen model", "closed loop"});
  double frozen_pre_err = 0.0, frozen_post_err = 0.0, closed_post_err = 0.0;
  int pre_scored = 0, post_scored = 0;
  for (int w = 0; w < windows; ++w) {
    const auto uw = static_cast<std::size_t>(w);
    const bool scored_pre =
        loop.predictions[uw][0] > 0.0 && w < pre_windows;
    const bool scored_post =
        loop.refit_window >= 0 && w > loop.refit_window;
    double frozen_err = 0.0, closed_err = 0.0;
    for (int i = 0; i < 3; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      frozen_err += std::abs(frozen[ui] - sim.observed[uw][ui]) / 3.0;
      closed_err +=
          std::abs(loop.predictions[uw][ui] - sim.observed[uw][ui]) / 3.0;
    }
    if (scored_pre) {
      frozen_pre_err += frozen_err;
      ++pre_scored;
    }
    if (scored_post) {
      frozen_post_err += frozen_err;
      closed_post_err += closed_err;
      ++post_scored;
    }
    table.add_row({std::to_string(w),
                   w < pre_windows ? cosm::Table::num(kBaseRate, 0)
                                   : cosm::Table::num(kSteppedRate, 0),
                   loop.verdicts[uw],
                   cosm::Table::percent(sim.observed[uw][0]),
                   cosm::Table::percent(frozen[0]),
                   cosm::Table::percent(loop.predictions[uw][0])});
  }
  table.print(std::cout,
              "Extension — drift loop vs frozen calibration (stepped ramp " +
                  cosm::Table::num(kBaseRate, 0) + " -> " +
                  cosm::Table::num(kSteppedRate, 0) + " req/s, window " +
                  cosm::Table::num(kWindow, 0) + " s)");

  frozen_pre_err = pre_scored > 0 ? frozen_pre_err / pre_scored : 0.0;
  frozen_post_err = post_scored > 0 ? frozen_post_err / post_scored : 0.0;
  closed_post_err = post_scored > 0 ? closed_post_err / post_scored : 0.0;

  // Gate 1: no-flap — exactly one drift re-fit, strictly after the step.
  std::cout << "drift re-fits: " << loop.drift_refits << " (window "
            << loop.refit_window << "; step at window " << pre_windows
            << ")\n";
  if (loop.drift_refits != 1 || loop.refit_window < pre_windows) {
    std::cout << "FAIL: expected exactly one drift re-fit after the step\n";
    ok = false;
  }

  // Gate 2: recalibration pays — the closed loop beats the frozen model
  // on the windows where both have settled post-shift calibrations.
  std::cout << "post-shift attainment error: frozen "
            << cosm::Table::percent(frozen_post_err) << ", closed loop "
            << cosm::Table::percent(closed_post_err) << " over "
            << post_scored << " windows\n";
  if (post_scored == 0 || !(closed_post_err < frozen_post_err)) {
    std::cout << "FAIL: closed loop did not beat the frozen model "
                 "post-shift\n";
    ok = false;
  }

  // Gate 3: the frozen model was healthy pre-shift (the comparison is
  // against a working baseline, not a broken one).
  std::cout << "pre-shift frozen error: "
            << cosm::Table::percent(frozen_pre_err) << " over " << pre_scored
            << " windows\n";
  if (pre_scored == 0 || frozen_pre_err > 0.17) {
    std::cout << "FAIL: frozen model unhealthy before the step\n";
    ok = false;
  }

  // Gate 4: determinism — full same-seed repeat, compared bitwise.
  const SimRun sim2 = run_sim(pre_windows, post_windows);
  cosm::core::PredictionCache cache2;
  const LoopRun loop2 = run_loop(sim2, disk_cal, &cache2);
  const bool deterministic =
      sim2.latency_sum == sim.latency_sum && sim2.completed == sim.completed &&
      loop2.refits_total == loop.refits_total &&
      loop2.published_rate == loop.published_rate &&
      loop2.cache_evictions == loop.cache_evictions;
  if (!deterministic) {
    std::cout << "FAIL: same-seed repeat not bit-identical (latency sum "
              << sim.latency_sum << " vs " << sim2.latency_sum
              << ", published rate " << loop.published_rate << " vs "
              << loop2.published_rate << ")\n";
    ok = false;
  } else {
    std::cout << "determinism: repeat run bit-identical (" << sim.completed
              << " requests, latency sum " << sim.latency_sum
              << " s, published rate " << loop.published_rate << " req/s)\n";
  }

  std::ostringstream json;
  json << "{\n  \"bench\": \"extension_drift\",\n  \"scale\": "
       << options.scale << ",\n  \"window_s\": " << kWindow
       << ",\n  \"base_rate\": " << kBaseRate << ",\n  \"stepped_rate\": "
       << kSteppedRate << ",\n  \"pre_windows\": " << pre_windows
       << ",\n  \"post_windows\": " << post_windows << ",\n  \"slas\": ["
       << kSlas[0] << ", " << kSlas[1] << ", " << kSlas[2]
       << "],\n  \"windows\": [\n";
  for (int w = 0; w < windows; ++w) {
    const auto uw = static_cast<std::size_t>(w);
    json << (w ? ",\n" : "") << "    {\"window\": " << w << ", \"rate\": "
         << (w < pre_windows ? kBaseRate : kSteppedRate) << ", \"verdict\": \""
         << loop.verdicts[uw] << "\", \"sim\": [" << sim.observed[uw][0]
         << ", " << sim.observed[uw][1] << ", " << sim.observed[uw][2]
         << "], \"closed\": [" << loop.predictions[uw][0] << ", "
         << loop.predictions[uw][1] << ", " << loop.predictions[uw][2]
         << "]}";
  }
  json << "\n  ],\n  \"frozen\": [" << frozen[0] << ", " << frozen[1] << ", "
       << frozen[2] << "],\n  \"drift_refits\": " << loop.drift_refits
       << ",\n  \"refit_window\": " << loop.refit_window
       << ",\n  \"refits_total\": " << loop.refits_total
       << ",\n  \"cache_evictions\": " << loop.cache_evictions
       << ",\n  \"initial_rate\": " << loop.initial_rate
       << ",\n  \"published_rate\": " << loop.published_rate
       << ",\n  \"frozen_pre_err\": " << frozen_pre_err
       << ",\n  \"frozen_post_err\": " << frozen_post_err
       << ",\n  \"closed_post_err\": " << closed_post_err
       << ",\n  \"deterministic\": " << (deterministic ? "true" : "false")
       << ",\n  \"pass\": " << (ok ? "true" : "false") << "\n}\n";
  std::ofstream out(options.out);
  out << json.str();
  if (!out) {
    std::cerr << "FAIL: cannot write " << options.out << "\n";
    ok = false;
  }
  std::cout << "wrote " << options.out << "\n";

  if (!options.trace_json.empty()) {
    std::ofstream trace(options.trace_json);
    cosm::obs::export_json(trace);
    if (!trace) {
      std::cerr << "FAIL: cannot write " << options.trace_json << "\n";
      ok = false;
    }
    std::cout << "wrote " << options.trace_json << "\n";
  }
  return ok ? 0 : 1;
}
