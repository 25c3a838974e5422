// Failure drill (robustness extension): script faults against the live
// simulator — a disk slowdown, then a full device outage absorbed by
// retry/failover — and check each degraded phase against the what-if
// prediction that an operator could have computed *before* the drill.
//
//   $ ./failure_drill [rate] [--hedge=SECONDS] [--trace-json=PATH]
//
// With --hedge, reads dispatch a hedged second attempt once the deadline
// passes without a response (cancel-on-first-complete): the drill then
// shows how hedging absorbs the slowdown phase, and the what-if section
// adds the hedged prediction.  With --trace-json, the run exports
// sim-engine spans, retry/failover/hedge counters, and what-if stage
// timings (docs/OBSERVABILITY.md).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <vector>

#include "core/whatif.hpp"
#include "example_common.hpp"
#include "obs/obs.hpp"
#include "sim/cluster.hpp"
#include "sim/source.hpp"

namespace {

constexpr double kSla = 0.100;       // the drill's SLA: 100 ms
constexpr unsigned kDevices = 4;
constexpr double kInflation = 3.0;   // slowdown severity

// The drill script, in absolute simulation time.
constexpr double kSlowStart = 40.0, kSlowEnd = 70.0;    // disk x3 on dev 2
constexpr double kOutStart = 100.0, kOutEnd = 115.0;    // device 0 down

struct Phase {
  const char* name;
  double begin;
  double end;
  std::uint64_t requests = 0;
  std::uint64_t within_sla = 0;
  std::uint64_t retried = 0;
  std::uint64_t failed = 0;
};

}  // namespace

int main(int argc, char** argv) {
  double rate = 60.0;
  double hedge_delay = 0.0;
  const char* trace_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace-json=", 13) == 0) {
      trace_path = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--hedge=", 8) == 0) {
      hedge_delay = std::atof(argv[i] + 8);
    } else {
      rate = std::atof(argv[i]);
    }
  }
  if (trace_path != nullptr) cosm::obs::set_enabled(true);

  // --- Run the drill in the simulator -------------------------------
  cosm::sim::ClusterConfig config;
  config.frontend_processes = 3;
  config.device_count = kDevices;
  config.processes_per_device = 1;
  config.cache.index_miss_ratio = 0.3;
  config.cache.meta_miss_ratio = 0.3;
  config.cache.data_miss_ratio = 0.7;
  config.request_timeout = 0.25;
  config.max_retries = 2;            // retry with failover to a replica
  config.retry_backoff_base = 0.05;
  config.hedge_delay = hedge_delay;  // 0 = hedging off
  config.seed = 42;
  config.faults.disk_slowdown(2, kSlowStart, kSlowEnd - kSlowStart,
                              kInflation);
  config.faults.device_outage(0, kOutStart, kOutEnd - kOutStart);
  cosm::sim::Cluster cluster(config);

  cosm::workload::CatalogConfig cat_config;
  cat_config.object_count = 20000;
  cat_config.size_distribution = cosm::workload::default_size_distribution();
  cat_config.seed = 43;
  const cosm::workload::ObjectCatalog catalog(cat_config);
  const cosm::workload::Placement placement({.partition_count = 1024,
                                             .replica_count = 3,
                                             .device_count = kDevices,
                                             .seed = 44});
  cosm::workload::PhasePlan plan;
  plan.warmup_rate = rate;
  plan.warmup_duration = 10.0;
  plan.transition_duration = 0.0;
  plan.benchmark_start_rate = rate;
  plan.benchmark_end_rate = rate;
  plan.benchmark_step_duration = 150.0;
  cosm::sim::OpenLoopSource source(cluster, catalog, placement, plan,
                                   cosm::Rng(45));
  cluster.metrics().sample_start_time = source.benchmark_start_time();
  source.start();
  cluster.engine().run_until(source.horizon());
  cluster.engine().run_all();

  std::vector<Phase> phases = {
      {"healthy", 10.0, kSlowStart},
      {"disk x3 on device 2", kSlowStart, kSlowEnd},
      {"recovered", kSlowEnd, kOutStart},
      {"device 0 outage (failover)", kOutStart, kOutEnd},
      {"recovered", kOutEnd, 160.0},
  };
  for (const auto& sample : cluster.metrics().requests()) {
    for (Phase& phase : phases) {
      if (sample.frontend_arrival >= phase.begin &&
          sample.frontend_arrival < phase.end) {
        ++phase.requests;
        if (!sample.failed && !sample.timed_out &&
            sample.response_latency <= kSla) {
          ++phase.within_sla;
        }
        if (sample.attempts > 1) ++phase.retried;
        if (sample.failed) ++phase.failed;
        break;
      }
    }
  }

  std::printf("failure drill: %.0f req/s over %u devices, SLA %.0f ms, "
              "%u retries with replica failover\n",
              rate, kDevices, kSla * 1e3, config.max_retries);
  if (hedge_delay > 0.0) {
    std::printf("hedged GETs: second attempt after %.0f ms, first response "
                "wins, loser cancelled\n",
                hedge_delay * 1e3);
  }
  std::printf("\n");
  std::printf("%-28s %-10s %-18s %-9s %s\n", "phase", "requests",
              "P[latency <= SLA]", "retried", "failed");
  for (const Phase& phase : phases) {
    const double fraction =
        phase.requests == 0
            ? 0.0
            : static_cast<double>(phase.within_sla) / phase.requests;
    std::printf("%-28s %-10llu %17.2f%% %-9llu %llu\n", phase.name,
                static_cast<unsigned long long>(phase.requests),
                100.0 * fraction,
                static_cast<unsigned long long>(phase.retried),
                static_cast<unsigned long long>(phase.failed));
  }
  const auto outcomes = cluster.metrics().outcomes();
  std::printf("\noutcomes: %llu ok, %llu ok after retry, %llu timed out, "
              "%llu failed (%llu retry attempts, %llu failovers)\n",
              static_cast<unsigned long long>(outcomes.ok),
              static_cast<unsigned long long>(outcomes.ok_retried),
              static_cast<unsigned long long>(outcomes.timed_out),
              static_cast<unsigned long long>(outcomes.failed),
              static_cast<unsigned long long>(outcomes.retry_attempts),
              static_cast<unsigned long long>(outcomes.failover_attempts));
  if (hedge_delay > 0.0) {
    std::printf("hedging:  %llu hedges issued, %llu won the race, "
                "%llu losing attempts cancelled\n",
                static_cast<unsigned long long>(outcomes.hedge_attempts),
                static_cast<unsigned long long>(outcomes.hedge_wins),
                static_cast<unsigned long long>(outcomes.cancelled_attempts));
  }

  // --- What the operator could have predicted beforehand ------------
  const auto healthy = cosm_examples::make_cluster(rate, kDevices);
  const cosm::core::SystemModel healthy_model(healthy);

  cosm::core::DegradedScenario slow;
  slow.slow_device = 2;
  slow.service_inflation = kInflation;

  cosm::core::DegradedScenario outage;
  outage.failed_device = 0;
  // Each attempt independently lands on the dead device with probability
  // ~ 1/devices until failover steers it away.
  outage.retry_rate_factor = cosm::core::retry_arrival_inflation(
      1.0 / kDevices, config.max_retries);

  std::printf("\ndegraded what-if (no simulation needed):\n");
  std::printf("  healthy cluster:         %6.2f%% within %.0f ms\n",
              100.0 * healthy_model.predict_sla_percentile(kSla),
              kSla * 1e3);
  std::printf("  device 2 disk x%.0f:       %6.2f%%\n", kInflation,
              100.0 * cosm::core::attainment(cosm::core::degrade(healthy, slow),
                                             {kSla})
                          .percentiles.front());
  std::printf("  device 0 down + retries: %6.2f%%  (retry-inflated "
              "lambda x%.2f)\n",
              100.0 * cosm::core::attainment(
                          cosm::core::degrade(healthy, outage), {kSla})
                          .percentiles.front(),
              outage.retry_rate_factor);
  if (hedge_delay > 0.0) {
    cosm::core::ModelOptions hedged_options;
    hedged_options.redundancy.mode =
        cosm::core::RedundancyOptions::Mode::kHedge;
    hedged_options.redundancy.hedge_delay = hedge_delay;
    std::printf("  hedged at %3.0f ms:        %6.2f%%  (order-statistic "
                "response, hedge-inflated lambda)\n",
                hedge_delay * 1e3,
                100.0 * cosm::core::attainment(healthy, {kSla},
                                               hedged_options)
                            .percentiles.front());
  }
  std::printf("\nCompare each prediction with the matching drill phase "
              "above: the what-if brackets the simulator without running "
              "it.\n");

  if (trace_path != nullptr) {
    std::ofstream trace(trace_path);
    if (!trace) {
      std::fprintf(stderr, "cannot open %s for writing\n", trace_path);
      return 3;
    }
    cosm::obs::export_json(trace);
    std::printf("wrote trace to %s\n", trace_path);
  }
  return 0;
}
