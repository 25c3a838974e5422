#include "experiment.hpp"

#include <cstdlib>
#include <cstring>
#include <iostream>

#include "calibration/online_metrics.hpp"
#include "common/parallel_for.hpp"
#include "common/require.hpp"
#include "common/table.hpp"
#include "core/system_model.hpp"
#include "sim/cluster.hpp"
#include "sim/source.hpp"
#include "stats/summary.hpp"

namespace cosm::experiments {

namespace {

sim::ClusterConfig cluster_config(const ScenarioConfig& config,
                                  std::uint64_t seed) {
  sim::ClusterConfig cluster;
  cluster.frontend_processes = config.frontend_processes;
  cluster.device_count = config.device_count;
  cluster.processes_per_device = config.processes_per_device;
  cluster.cache.index_miss_ratio = config.index_miss;
  cluster.cache.meta_miss_ratio = config.meta_miss;
  cluster.cache.data_miss_ratio = config.data_miss;
  cluster.request_timeout = config.request_timeout;
  cluster.seed = seed;
  return cluster;
}

// Builds the three model variants from calibrated inputs and evaluates
// them at the SLAs; any overload marks the point as not modellable.
void predict_point(const ScenarioConfig& config,
                   const SweepResult& calibrated, sim::Cluster& cluster,
                   double window, RatePoint& point) {
  core::SystemParams params;
  params.frontend.processes = config.frontend_processes;
  params.frontend.frontend_parse =
      calibrated.parse_calibration.frontend_fit.best().dist;
  double total_rate = 0.0;
  const auto& disk_cal = calibrated.disk_calibration;
  for (std::uint32_t d = 0; d < config.device_count; ++d) {
    const auto obs =
        calibration::observe_device(cluster.metrics(), d, window);
    // The aggregate disk service time an operator reads from iostat:
    // total busy time over total ops, all kinds pooled.
    const auto& counters = cluster.metrics().device(d);
    double busy = 0.0;
    std::uint64_t ops = 0;
    for (int kind = 0; kind < 3; ++kind) {
      busy += counters.disk_service_sum[kind];
      ops += counters.disk_ops[kind];
    }
    const double aggregate = ops > 0
                                 ? busy / static_cast<double>(ops)
                                 : disk_cal.data.mean;
    params.devices.push_back(calibration::build_device_params(
        obs, disk_cal, calibrated.parse_calibration.backend_fit.best().dist,
        config.processes_per_device, aggregate));
    total_rate += obs.request_rate;
  }
  params.frontend.arrival_rate = total_rate;

  const auto evaluate = [&](core::ModelOptions options,
                            std::vector<double>& out) {
    const core::SystemModel model(params, options);
    out.clear();
    for (const double sla : config.slas) {
      out.push_back(model.predict_sla_percentile(sla));
    }
  };
  try {
    evaluate({}, point.ours);
    evaluate({.include_wta = false}, point.nowta);
    evaluate({.odopr = true}, point.odopr);
    evaluate({.disk_queue = core::ModelOptions::DiskQueue::kMG1K},
             point.ours_mg1k);
  } catch (const std::invalid_argument&) {
    point.model_ok = false;
    point.ours.assign(config.slas.size(), 0.0);
    point.nowta.assign(config.slas.size(), 0.0);
    point.odopr.assign(config.slas.size(), 0.0);
    point.ours_mg1k.assign(config.slas.size(), 0.0);
  }
}

RatePoint run_point(const ScenarioConfig& config,
                    const SweepResult& calibrated, double rate,
                    std::uint64_t seed) {
  sim::Cluster cluster(cluster_config(config, seed));
  workload::CatalogConfig cat_config;
  cat_config.object_count = 20000;
  cat_config.size_distribution = workload::default_size_distribution();
  cat_config.seed = seed + 1;
  const workload::ObjectCatalog catalog(cat_config);
  const workload::Placement placement(
      {.partition_count = 1024,
       .replica_count = 3,
       .device_count = config.device_count,
       .seed = seed + 2});

  workload::PhasePlan plan;
  plan.warmup_rate = rate;
  plan.warmup_duration = config.warmup_seconds * config.time_scale;
  plan.transition_duration = 0.0;
  plan.benchmark_start_rate = rate;
  plan.benchmark_end_rate = rate;
  plan.benchmark_step_duration = config.measure_seconds * config.time_scale;

  sim::OpenLoopSource source(cluster, catalog, placement, plan,
                             cosm::Rng(seed + 3));
  cluster.metrics().sample_start_time = source.benchmark_start_time();
  source.start();
  cluster.engine().run_until(source.horizon());
  cluster.engine().run_all();

  RatePoint point;
  point.rate = rate;
  point.timeouts = cluster.metrics().timeouts();
  stats::SampleSet latencies;
  latencies.reserve(cluster.metrics().requests().size());
  for (const auto& sample : cluster.metrics().requests()) {
    if (sample.timed_out) continue;
    latencies.add(sample.response_latency);
  }
  point.samples = latencies.count();
  point.observed.clear();
  for (const double sla : config.slas) {
    point.observed.push_back(
        latencies.empty() ? 0.0 : latencies.fraction_below(sla));
  }
  predict_point(config, calibrated, cluster, source.horizon(), point);
  return point;
}

}  // namespace

SweepResult run_sweep(const ScenarioConfig& config) {
  COSM_REQUIRE(config.rate_step > 0 && config.rate_end >= config.rate_start,
               "invalid rate ladder");
  COSM_REQUIRE(!config.slas.empty(), "sweep needs at least one SLA");
  SweepResult result;
  result.config = config;

  // One-time offline calibration (Sec. IV-A) against the default profile.
  sim::ClusterConfig base = cluster_config(config, config.seed);
  base.finalize();
  result.disk_calibration =
      calibration::benchmark_disk(base.disk, {.objects = 8000,
                                              .seed = config.seed + 11});
  result.parse_calibration = calibration::benchmark_parse(
      base, {.requests = 1000, .seed = config.seed + 13});

  std::vector<double> rates;
  for (double rate = config.rate_start; rate <= config.rate_end + 1e-9;
       rate += config.rate_step) {
    rates.push_back(rate);
  }
  result.points.resize(rates.size());
  cosm::parallel_for(rates.size(), 0, [&](std::size_t i) {
    result.points[i] = run_point(config, result, rates[i],
                                 config.seed + 1000 * (i + 1));
  });
  return result;
}

ScenarioConfig scenario_s1() {
  ScenarioConfig config;
  config.name = "S1";
  config.processes_per_device = 1;
  config.rate_start = 20.0;
  config.rate_end = 240.0;
  config.rate_step = 20.0;
  return config;
}

ScenarioConfig scenario_s16() {
  ScenarioConfig config;
  config.name = "S16";
  config.processes_per_device = 16;
  config.rate_start = 20.0;
  config.rate_end = 260.0;
  config.rate_step = 20.0;
  return config;
}

void apply_scale_from_args(ScenarioConfig& config, int argc, char** argv) {
  if (const char* env = std::getenv("COSM_BENCH_SCALE")) {
    config.time_scale = std::atof(env);
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      config.time_scale = std::atof(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--csv=", 6) == 0) {
      config.csv_dir = argv[i] + 6;
    }
  }
  COSM_REQUIRE(config.time_scale > 0, "time scale must be positive");
}

void print_sweep(const SweepResult& result) {
  const auto& config = result.config;
  for (std::size_t s = 0; s < config.slas.size(); ++s) {
    Table table({"rate(req/s)", "samples", "observed", "our_model",
                 "ODOPR_model", "noWTA_model", "our_error"});
    for (const auto& point : result.points) {
      const std::string marker =
          point.timeouts > 0
              ? " [" + std::to_string(point.timeouts) + " timeouts]"
              : "";
      if (!point.model_ok) {
        table.add_row({Table::num(point.rate, 0),
                       std::to_string(point.samples) + marker,
                       Table::percent(point.observed[s]), "(overload)",
                       "(overload)", "(overload)", "--"});
        continue;
      }
      table.add_row({Table::num(point.rate, 0),
                     std::to_string(point.samples) + marker,
                     Table::percent(point.observed[s]),
                     Table::percent(point.ours[s]),
                     Table::percent(point.odopr[s]),
                     Table::percent(point.nowta[s]),
                     Table::percent(point.ours[s] - point.observed[s])});
    }
    table.print(std::cout,
                "Scenario " + config.name + ", SLA " +
                    Table::num(config.slas[s] * 1e3, 0) +
                    " ms — percentile of requests meeting the SLA");
    std::cout << '\n';
    if (!config.csv_dir.empty()) {
      table.write_csv_file(config.csv_dir + "/" + config.name + "_sla" +
                           Table::num(config.slas[s] * 1e3, 0) + ".csv");
    }
  }
}

}  // namespace cosm::experiments
