// Shared experiment harness for the Fig. 6 / Fig. 7 / Table I / Table II
// reproductions.
//
// One "sweep" = the paper's benchmarking phase: a ladder of arrival rates,
// each held for a dwell, with the percentile of requests meeting each SLA
// observed on the simulated cluster and predicted by the three models
// (ours / ODOPR / noWTA) from *calibrated* inputs — the disk and parse
// benchmarks of Sec. IV-A plus the online metrics of Sec. IV-B, never the
// simulator's ground-truth configuration.
//
// Rate points are independent simulations (each with its own warmup at the
// target rate), so the sweep runs them in parallel with cosm::parallel_for.  Scale the
// dwell with --scale=<f> or COSM_BENCH_SCALE for quicker smoke runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "calibration/disk_benchmark.hpp"
#include "calibration/parse_benchmark.hpp"

namespace cosm::experiments {

struct ScenarioConfig {
  std::string name = "S1";
  std::uint32_t processes_per_device = 1;   // N_be
  std::uint32_t device_count = 4;
  std::uint32_t frontend_processes = 3;

  // System arrival-rate ladder (requests/s).
  double rate_start = 20.0;
  double rate_end = 240.0;
  double rate_step = 20.0;

  double warmup_seconds = 40.0;
  double measure_seconds = 300.0;  // the paper's 5 minutes per rate

  std::vector<double> slas = {0.010, 0.050, 0.100};

  // Probabilistic cache configuration (keeps the sweep's miss ratios
  // stationary across rates, as on the paper's warmed-up testbed).
  double index_miss = 0.3;
  double meta_miss = 0.3;
  double data_miss = 0.7;

  // Client timeout, as on the paper's testbed; rate points where ANY
  // request times out are printed but excluded from the error summaries
  // ("we only analyze the prediction results when there is no timeout and
  // retry", Sec. V-B).
  double request_timeout = 0.25;

  std::uint64_t seed = 20170813;  // ICPP'17 week
  double time_scale = 1.0;        // multiplies warmup/measure durations
  // When non-empty, print_sweep also writes one CSV per SLA into this
  // directory (for plotting), named <name>_sla<ms>.csv.
  std::string csv_dir;
};

// One measured+predicted rate point of a sweep.
struct RatePoint {
  double rate = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t timeouts = 0;  // paper: excluded from analysis when > 0
  bool model_ok = true;  // false when the model declares overload
  // One entry per SLA in ScenarioConfig::slas.
  std::vector<double> observed;
  std::vector<double> ours;
  std::vector<double> odopr;
  std::vector<double> nowta;
  // Extension: "ours" with the exact M/G/1/K disk-queue solution instead
  // of the paper's M/M/1/K substitution (identical for N_be = 1).
  std::vector<double> ours_mg1k;
};

struct SweepResult {
  ScenarioConfig config;
  calibration::DiskCalibration disk_calibration;
  calibration::ParseCalibration parse_calibration;
  std::vector<RatePoint> points;
};

// Runs calibration once, then the rate ladder (parallelized).
SweepResult run_sweep(const ScenarioConfig& config);

// The paper's scenario configurations, at a simulation-friendly scale.
ScenarioConfig scenario_s1();
ScenarioConfig scenario_s16();

// Applies --scale=<f> (or env COSM_BENCH_SCALE) to the dwell durations
// and --csv=<dir> to ScenarioConfig::csv_dir.
void apply_scale_from_args(ScenarioConfig& config, int argc, char** argv);

// Prints the per-SLA series as Fig. 6/7-style tables and returns them for
// further aggregation.
void print_sweep(const SweepResult& result);

}  // namespace cosm::experiments
