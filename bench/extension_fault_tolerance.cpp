// Extension experiment: does the degraded what-if track a *faulted*
// simulator as well as the healthy model tracks a healthy one?
//
// The robustness extension claims that a degraded cluster is just a
// transformed parameter set (core::degrade): a disk slowdown becomes a
// Scaled service distribution, and the same Eq. 1-3 machinery predicts
// the degraded percentiles.  This harness checks the claim end to end:
//
//  1. Healthy run: simulate, observe online metrics, predict with the
//     healthy model.  The per-SLA |predicted - observed| errors define
//     the reference error band (Table I's worst case is ~17 points).
//  2. Fault run: same cluster with a x3 disk slowdown scripted on one
//     device for the whole run.  The prediction is degrade(healthy
//     params) — the model never sees the faulted simulator's metrics —
//     and must stay inside the healthy band against the faulted
//     observation.
//  3. Determinism: the pure-slowdown fault run is repeated with the same
//     seed and must be bit-identical (latency sums compared exactly).
//
// Exits non-zero when the degraded prediction leaves the band or the
// repeat run diverges, so CI catches regressions in either property.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "calibration/online_metrics.hpp"
#include "common/table.hpp"
#include "core/whatif.hpp"
#include "sim/cluster.hpp"
#include "sim/source.hpp"
#include "stats/summary.hpp"

namespace {

constexpr double kSlas[3] = {0.010, 0.050, 0.100};
constexpr double kRate = 60.0;           // ~20% healthy device utilization
constexpr unsigned kDevices = 4;
constexpr std::uint32_t kSlowDevice = 2;
constexpr double kInflation = 3.0;       // slow device's ops run 3x longer
// Paper Table I worst cases (15.04%, 16.61%) round up to this band; the
// healthy model itself is held to it in tests/integration.
constexpr double kPaperBand = 0.17;

struct RunResult {
  double observed[3] = {0.0, 0.0, 0.0};  // fraction meeting each SLA
  double latency_sum = 0.0;              // bitwise determinism probe
  std::uint64_t completed = 0;
  cosm::core::SystemParams params;       // online-observed model inputs
};

RunResult run(double measure_seconds, bool with_fault, std::uint64_t seed) {
  cosm::sim::ClusterConfig config;
  config.frontend_processes = 3;
  config.device_count = kDevices;
  config.processes_per_device = 1;
  config.cache.index_miss_ratio = 0.3;
  config.cache.meta_miss_ratio = 0.3;
  config.cache.data_miss_ratio = 0.7;
  config.seed = seed;
  if (with_fault) {
    // Cover warmup and the whole measure window so the run is a single
    // degraded steady state, matching the what-if's stationary model.
    config.faults.disk_slowdown(kSlowDevice, 0.0, 1e9, kInflation);
  }
  cosm::sim::Cluster cluster(config);

  cosm::workload::CatalogConfig cat_config;
  cat_config.object_count = 20000;
  cat_config.size_distribution = cosm::workload::default_size_distribution();
  cat_config.seed = seed + 1;
  const cosm::workload::ObjectCatalog catalog(cat_config);
  const cosm::workload::Placement placement({.partition_count = 1024,
                                             .replica_count = 3,
                                             .device_count = kDevices,
                                             .seed = seed + 2});
  cosm::workload::PhasePlan plan;
  plan.warmup_rate = kRate;
  plan.warmup_duration = 30.0;
  plan.transition_duration = 0.0;
  plan.benchmark_start_rate = kRate;
  plan.benchmark_end_rate = kRate;
  plan.benchmark_step_duration = measure_seconds;

  cosm::sim::OpenLoopSource source(cluster, catalog, placement, plan,
                                   cosm::Rng(seed + 3));
  cluster.metrics().sample_start_time = source.benchmark_start_time();
  source.start();
  cluster.engine().run_until(source.horizon());
  cluster.engine().run_all();

  RunResult result;
  cosm::stats::SampleSet latencies;
  for (const auto& sample : cluster.metrics().requests()) {
    latencies.add(sample.response_latency);
    result.latency_sum += sample.response_latency;
  }
  result.completed = cluster.metrics().completed_requests();
  for (int i = 0; i < 3; ++i) {
    result.observed[i] = latencies.fraction_below(kSlas[i]);
  }

  // Model inputs as an operator would assemble them: online rates and
  // miss ratios plus the (healthy) ground-truth service distributions.
  result.params.frontend.processes = config.frontend_processes;
  result.params.frontend.frontend_parse = cluster.config().frontend_parse;
  const double window = source.horizon();
  double total_rate = 0.0;
  for (std::uint32_t d = 0; d < kDevices; ++d) {
    const auto obs =
        cosm::calibration::observe_device(cluster.metrics(), d, window);
    cosm::core::DeviceParams device;
    device.arrival_rate = obs.request_rate;
    device.data_read_rate = obs.data_read_rate;
    device.index_miss_ratio = obs.index_miss_ratio;
    device.meta_miss_ratio = obs.meta_miss_ratio;
    device.data_miss_ratio = obs.data_miss_ratio;
    device.index_disk = cluster.config().disk.index_service;
    device.meta_disk = cluster.config().disk.meta_service;
    device.data_disk = cluster.config().disk.data_service;
    device.backend_parse = cluster.config().backend_parse;
    device.processes = 1;
    total_rate += obs.request_rate;
    result.params.devices.push_back(std::move(device));
  }
  result.params.frontend.arrival_rate = total_rate;
  return result;
}

double parse_scale(int argc, char** argv) {
  double scale = 1.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) {
      scale = std::atof(arg.c_str() + 8);  // garbage parses to 0, caught below
    }
  }
  if (const char* env = std::getenv("COSM_BENCH_SCALE")) {
    scale = std::atof(env);
  }
  if (!(scale > 0.0)) {
    std::cerr << "--scale must be positive\n";
    std::exit(2);
  }
  return scale;
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = parse_scale(argc, argv);
  const double measure = 300.0 * scale;

  const RunResult healthy = run(measure, /*with_fault=*/false, 20170813);
  const RunResult faulted = run(measure, /*with_fault=*/true, 20170813);

  const cosm::core::SystemModel healthy_model(healthy.params);
  cosm::core::DegradedScenario scenario;
  scenario.slow_device = kSlowDevice;
  scenario.service_inflation = kInflation;

  cosm::Table table({"SLA (ms)", "healthy sim", "healthy model", "err",
                     "faulted sim", "degraded what-if", "err"});
  const std::vector<double> degraded =
      cosm::core::attainment(cosm::core::degrade(healthy.params, scenario),
                             {kSlas[0], kSlas[1], kSlas[2]})
          .percentiles;
  double band = 0.0;
  double worst_degraded_err = 0.0;
  for (int i = 0; i < 3; ++i) {
    const double healthy_pred = healthy_model.predict_sla_percentile(kSlas[i]);
    const double degraded_pred = degraded[i];
    const double healthy_err = std::abs(healthy_pred - healthy.observed[i]);
    const double degraded_err = std::abs(degraded_pred - faulted.observed[i]);
    band = std::max(band, healthy_err);
    worst_degraded_err = std::max(worst_degraded_err, degraded_err);
    table.add_row({cosm::Table::num(kSlas[i] * 1000.0, 0),
                   cosm::Table::percent(healthy.observed[i]),
                   cosm::Table::percent(healthy_pred),
                   cosm::Table::percent(healthy_err),
                   cosm::Table::percent(faulted.observed[i]),
                   cosm::Table::percent(degraded_pred),
                   cosm::Table::percent(degraded_err)});
  }
  table.print(std::cout,
              "Extension — degraded what-if vs fault-injected simulator "
              "(device 2 disk x3 for the whole run, 60 req/s over 4 "
              "devices)");
  std::cout << "\nhealthy-model error band: " << cosm::Table::percent(band)
            << "  (paper Table I worst case: "
            << cosm::Table::percent(kPaperBand) << ")\n"
            << "worst degraded what-if error: "
            << cosm::Table::percent(worst_degraded_err) << "\n";

  // The degraded prediction must do no worse than the healthy model is
  // allowed to: inside the paper band, with the measured healthy error
  // as the tighter reference when it is larger (short smoke runs are
  // noisier, so the band is the floor, not the ceiling).
  const double allowed = std::max(kPaperBand, band + 0.03);
  bool ok = true;
  if (worst_degraded_err > allowed) {
    std::cout << "FAIL: degraded what-if left the healthy error band ("
              << cosm::Table::percent(worst_degraded_err) << " > "
              << cosm::Table::percent(allowed) << ")\n";
    ok = false;
  }

  // Pure-slowdown fault runs are seed-reproducible: repeat and compare
  // the latency sums bitwise.
  const RunResult repeat = run(measure, /*with_fault=*/true, 20170813);
  if (repeat.latency_sum != faulted.latency_sum ||
      repeat.completed != faulted.completed) {
    std::cout << "FAIL: same-seed fault run not bit-identical ("
              << faulted.latency_sum << " vs " << repeat.latency_sum
              << ", " << faulted.completed << " vs " << repeat.completed
              << " requests)\n";
    ok = false;
  } else {
    std::cout << "determinism: two same-seed fault runs bit-identical ("
              << faulted.completed << " requests, latency sum "
              << faulted.latency_sum << " s)\n";
  }
  return ok ? 0 : 1;
}
