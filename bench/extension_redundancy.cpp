// Extension experiment: when does redundancy help the tail, and does the
// order-statistic model know?
//
// The redundancy extension claims two things:
//  1. The simulator's hedged GETs and (n,k) fan-out reads trade extra
//     attempt load for tail diversity, so each policy has a help->hurt
//     crossover in offered load: below it the order statistic wins, above
//     it the self-inflicted load loses.
//  2. The model predicts the helping side from healthy observations
//     alone: core::redundant_sla_percentile wraps the device response in
//     the matching order statistic and re-solves at the attempt-inflated
//     rates (fixed point for hedges), so an operator can pick a policy
//     without simulating it.
//
// The harness sweeps offered load x {baseline, hedged, mirrored 2x,
// coded (3,2)} with Pareto object sizes, then gates:
//  * crossover — at the lowest load some redundant policy beats the
//    baseline sim p99, at the highest load some policy is worse (the
//    hurt side exists);
//  * agreement — on the helping side (model says the policy beats the
//    baseline and stays stable) the predicted SLA attainment tracks the
//    redundant simulation within the paper's Table I error band;
//  * determinism — a repeated same-seed hedged run is bit-identical.
//
// It also records model_cost_us per policy: the median wall time of one
// model build plus one SLA query on the 30 req/s observed parameters.
// That figure has no gate here (wall-clock gates belong in CI bench jobs,
// not in tests).
//
// Emits BENCH_redundancy.json and exits non-zero on any gate failure.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "calibration/online_metrics.hpp"
#include "common/table.hpp"
#include "core/whatif.hpp"
#include "sim/cluster.hpp"
#include "sim/source.hpp"
#include "stats/summary.hpp"

namespace {

constexpr double kSlas[3] = {0.020, 0.050, 0.100};
constexpr unsigned kDevices = 4;
// Total req/s over 4 devices: ~10%, ~40%, ~65% healthy device utilization.
// Doubling attempts is cheap at the low end and fatal at the high end.
constexpr double kLoads[3] = {30.0, 120.0, 200.0};
constexpr double kHedgeDelay = 0.04;  // near the healthy p90
constexpr double kPaperBand = 0.17;   // Table I worst case, rounded up
constexpr std::uint64_t kSeed = 20260807;

struct PolicyConfig {
  const char* name;
  // Simulator knobs.
  double hedge_delay = 0.0;
  std::uint32_t fanout_n = 0;
  std::uint32_t fanout_k = 1;
  // Matching model options.
  cosm::core::RedundancyOptions model = {};
};

std::vector<PolicyConfig> policies() {
  using Mode = cosm::core::RedundancyOptions::Mode;
  std::vector<PolicyConfig> list;
  list.push_back({.name = "baseline"});
  PolicyConfig hedge{.name = "hedge-40ms", .hedge_delay = kHedgeDelay};
  hedge.model.mode = Mode::kHedge;
  hedge.model.hedge_delay = kHedgeDelay;
  list.push_back(hedge);
  PolicyConfig mirror{.name = "mirror-2x", .fanout_n = 2, .fanout_k = 1};
  mirror.model.mode = Mode::kMinOfN;
  mirror.model.n = 2;
  list.push_back(mirror);
  PolicyConfig coded{.name = "coded-(3,2)", .fanout_n = 3, .fanout_k = 2};
  coded.model.mode = Mode::kKthOfN;
  coded.model.n = 3;
  coded.model.k = 2;
  list.push_back(coded);
  return list;
}

struct RunResult {
  double observed[3] = {0.0, 0.0, 0.0};  // fraction meeting each SLA
  double p99 = 0.0;                      // sim response-latency p99 (s)
  double latency_sum = 0.0;              // bitwise determinism probe
  std::uint64_t completed = 0;
  cosm::core::SystemParams params;  // online-observed (baseline runs only)
};

RunResult run(double rate, const PolicyConfig& policy,
              double measure_seconds) {
  cosm::sim::ClusterConfig config;
  config.frontend_processes = 3;
  config.device_count = kDevices;
  config.processes_per_device = 1;
  config.cache.index_miss_ratio = 0.3;
  config.cache.meta_miss_ratio = 0.3;
  config.cache.data_miss_ratio = 0.7;
  config.hedge_delay = policy.hedge_delay;
  config.fanout_n = policy.fanout_n;
  config.fanout_k = policy.fanout_k;
  config.seed = kSeed;
  cosm::sim::Cluster cluster(config);

  cosm::workload::CatalogConfig cat_config;
  cat_config.object_count = 20000;
  // Long-tailed Pareto sizes (mean ~24 KB, infinite variance at shape
  // 1.5): the stragglers redundancy is supposed to shave.
  cat_config.size_distribution =
      std::make_shared<cosm::numerics::Pareto>(1.5, 8192.0);
  // Keep the Pareto tail finite enough for the model's second moments
  // (and for smoke-scale runs to actually sample it).
  cat_config.max_object_bytes = 8ull << 20;
  cat_config.seed = kSeed + 1;
  const cosm::workload::ObjectCatalog catalog(cat_config);
  const cosm::workload::Placement placement({.partition_count = 1024,
                                             .replica_count = 3,
                                             .device_count = kDevices,
                                             .seed = kSeed + 2});
  cosm::workload::PhasePlan plan;
  plan.warmup_rate = rate;
  plan.warmup_duration = 20.0;
  plan.transition_duration = 0.0;
  plan.benchmark_start_rate = rate;
  plan.benchmark_end_rate = rate;
  plan.benchmark_step_duration = measure_seconds;

  cosm::sim::OpenLoopSource source(cluster, catalog, placement, plan,
                                   cosm::Rng(kSeed + 3));
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
  result.p99 = latencies.quantile(0.99);

  // Online-observed model inputs, as an operator would assemble them.
  // Only the baseline (single-attempt) runs feed the model: the whole
  // point is predicting redundant policies from healthy observations.
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

// Median wall time, in microseconds, of building the model of `params`
// under `options` and answering one SLA query.
double model_cost_us(const cosm::core::SystemParams& params,
                     const cosm::core::ModelOptions& options) {
  constexpr int kRepeats = 31;
  std::vector<double> costs;
  for (int r = 0; r < kRepeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    const cosm::core::SystemModel model(params, options);
    model.predict_sla_percentile(kSlas[1]);
    const auto stop = std::chrono::steady_clock::now();
    costs.push_back(
        std::chrono::duration<double, std::micro>(stop - start).count());
  }
  std::nth_element(costs.begin(), costs.begin() + kRepeats / 2, costs.end());
  return costs[kRepeats / 2];
}

double parse_scale(int argc, char** argv) {
  double scale = 1.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) {
      scale = std::atof(arg.c_str() + 8);
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

std::string parse_out(int argc, char** argv) {
  std::string out = "BENCH_redundancy.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) out = arg.substr(6);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = parse_scale(argc, argv);
  const std::string out_path = parse_out(argc, argv);
  const double measure = 240.0 * scale;
  const std::vector<PolicyConfig> configs = policies();

  // One sweep: loads x policies.  cell[l][c] is the sim observation;
  // baseline runs also carry the observed model inputs for that load.
  std::vector<std::vector<RunResult>> cell(3);
  for (int l = 0; l < 3; ++l) {
    for (const PolicyConfig& policy : configs) {
      cell[l].push_back(run(kLoads[l], policy, measure));
    }
  }

  bool ok = true;
  std::ostringstream json;
  json << "{\n  \"bench\": \"extension_redundancy\",\n  \"scale\": " << scale
       << ",\n  \"hedge_delay\": " << kHedgeDelay << ",\n  \"cells\": [\n";

  // Model predictions + the agreement gate (helping side only).
  double healthy_band = 0.0;   // worst baseline model-vs-sim error
  double worst_helping_err = 0.0;
  int helping_points = 0;
  bool first_cell = true;
  for (int l = 0; l < 3; ++l) {
    const RunResult& base = cell[l][0];
    const cosm::core::SystemModel base_model(base.params);
    double base_pred[3];
    for (int i = 0; i < 3; ++i) {
      base_pred[i] = base_model.predict_sla_percentile(kSlas[i]);
    }
    cosm::Table table({"policy", "sim p99 (ms)", "SLA 20ms sim", "model",
                       "SLA 50ms sim", "model", "SLA 100ms sim", "model"});
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const RunResult& sim = cell[l][c];
      double predicted[3];
      bool helping[3] = {false, false, false};
      for (int i = 0; i < 3; ++i) {
        if (c == 0) {
          predicted[i] = base_pred[i];
          healthy_band =
              std::max(healthy_band, std::abs(predicted[i] - sim.observed[i]));
        } else {
          cosm::core::ModelOptions options;
          options.redundancy = configs[c].model;
          predicted[i] = cosm::core::redundant_sla_percentile(
              base.params, kSlas[i], options);
          // A helping point: the model says this policy is stable and at
          // least matches the baseline prediction at this SLA.  (A 40 ms
          // hedge cannot help a 20 ms SLA; help is per-SLA, not per-cell.)
          helping[i] = predicted[i] > 0.0 && predicted[i] >= base_pred[i];
          if (helping[i]) {
            ++helping_points;
            worst_helping_err = std::max(
                worst_helping_err, std::abs(predicted[i] - sim.observed[i]));
          }
        }
      }
      table.add_row({configs[c].name, cosm::Table::num(sim.p99 * 1000.0, 1),
                     cosm::Table::percent(sim.observed[0]),
                     cosm::Table::percent(predicted[0]),
                     cosm::Table::percent(sim.observed[1]),
                     cosm::Table::percent(predicted[1]),
                     cosm::Table::percent(sim.observed[2]),
                     cosm::Table::percent(predicted[2])});
      if (!first_cell) json << ",\n";
      first_cell = false;
      json << "    {\"load_rps\": " << kLoads[l] << ", \"policy\": \""
           << configs[c].name << "\", \"sim_p99_s\": " << sim.p99
           << ", \"completed\": " << sim.completed << ", \"helping\": ["
           << (helping[0] ? "true" : "false") << ", "
           << (helping[1] ? "true" : "false") << ", "
           << (helping[2] ? "true" : "false") << "], \"sla\": [" << kSlas[0]
           << ", " << kSlas[1] << ", " << kSlas[2] << "], \"sim\": ["
           << sim.observed[0] << ", " << sim.observed[1] << ", "
           << sim.observed[2] << "], \"model\": [" << predicted[0] << ", "
           << predicted[1] << ", " << predicted[2] << "]}";
    }
    std::ostringstream title;
    title << "Extension — redundancy policies at " << kLoads[l]
          << " req/s over 4 devices (Pareto sizes, replica count 3)";
    table.print(std::cout, title.str());
    std::cout << "\n";
  }

  // Gate 1: the help->hurt crossover exists in the simulator.  At the
  // lowest load some policy beats the baseline p99; at the highest load
  // some policy is strictly worse (redundancy turned self-destructive).
  const double base_low_p99 = cell[0][0].p99;
  const double base_high_p99 = cell[2][0].p99;
  double best_low_p99 = base_low_p99;
  std::string best_low;
  double worst_high_p99 = base_high_p99;
  std::string worst_high;
  for (std::size_t c = 1; c < configs.size(); ++c) {
    if (cell[0][c].p99 < best_low_p99) {
      best_low_p99 = cell[0][c].p99;
      best_low = configs[c].name;
    }
    if (cell[2][c].p99 > worst_high_p99) {
      worst_high_p99 = cell[2][c].p99;
      worst_high = configs[c].name;
    }
  }
  std::cout << "crossover: at " << kLoads[0] << " req/s "
            << (best_low.empty() ? "no policy" : best_low)
            << " improves p99 to " << best_low_p99 * 1000.0 << " ms (baseline "
            << base_low_p99 * 1000.0 << " ms); at " << kLoads[2] << " req/s "
            << (worst_high.empty() ? "no policy" : worst_high)
            << " degrades p99 to " << worst_high_p99 * 1000.0
            << " ms (baseline " << base_high_p99 * 1000.0 << " ms)\n";
  if (best_low.empty()) {
    std::cout << "FAIL: no redundant policy helps p99 at the lowest load\n";
    ok = false;
  }
  if (worst_high.empty()) {
    std::cout << "FAIL: no redundant policy hurts p99 at the highest load "
                 "(crossover not demonstrated)\n";
    ok = false;
  }

  // Gate 2: model-vs-sim agreement on the helping side, held to the same
  // band the degraded what-if honours (short smoke runs are noisier, so
  // the measured healthy band is the floor).
  const double allowed = std::max(kPaperBand, healthy_band + 0.03);
  std::cout << "healthy-model error band: "
            << cosm::Table::percent(healthy_band) << "; helping points: "
            << helping_points << "; worst helping-side error: "
            << cosm::Table::percent(worst_helping_err) << " (allowed "
            << cosm::Table::percent(allowed) << ")\n";
  if (helping_points == 0) {
    std::cout << "FAIL: the model found no helping (load, policy, SLA) "
                 "point\n";
    ok = false;
  }
  if (worst_helping_err > allowed) {
    std::cout << "FAIL: helping-side prediction left the band ("
              << cosm::Table::percent(worst_helping_err) << " > "
              << cosm::Table::percent(allowed) << ")\n";
    ok = false;
  }

  // Gate 3: redundant runs are seed-reproducible — repeat the hedged run
  // at the middle load and compare latency sums bitwise.
  const RunResult repeat = run(kLoads[1], configs[1], measure);
  const RunResult& reference = cell[1][1];
  if (repeat.latency_sum != reference.latency_sum ||
      repeat.completed != reference.completed) {
    std::cout << "FAIL: same-seed hedged run not bit-identical ("
              << reference.latency_sum << " vs " << repeat.latency_sum << ", "
              << reference.completed << " vs " << repeat.completed
              << " requests)\n";
    ok = false;
  } else {
    std::cout << "determinism: two same-seed hedged runs bit-identical ("
              << reference.completed << " requests, latency sum "
              << reference.latency_sum << " s)\n";
  }

  // Model cost per policy on the lowest load's observed parameters.
  json << "\n  ],\n  \"model_cost_us\": {";
  std::cout << "model build + one SLA at " << kLoads[0] << " req/s:";
  for (std::size_t c = 0; c < configs.size(); ++c) {
    cosm::core::ModelOptions options;
    options.redundancy = configs[c].model;
    const double cost = model_cost_us(cell[0][0].params, options);
    json << (c == 0 ? "" : ", ") << "\"" << configs[c].name
         << "\": " << cost;
    std::cout << " " << configs[c].name << " "
              << cosm::Table::num(cost, 1) << " us";
  }
  std::cout << "\n";
  json << "},\n  \"crossover\": {\"help_load_rps\": " << kLoads[0]
       << ", \"help_policy\": \"" << best_low << "\", \"hurt_load_rps\": "
       << kLoads[2] << ", \"hurt_policy\": \"" << worst_high
       << "\"},\n  \"healthy_band\": " << healthy_band
       << ",\n  \"worst_helping_err\": " << worst_helping_err
       << ",\n  \"helping_points\": " << helping_points
       << ",\n  \"deterministic\": "
       << (repeat.latency_sum == reference.latency_sum ? "true" : "false")
       << ",\n  \"pass\": " << (ok ? "true" : "false") << "\n}\n";
  std::ofstream out(out_path);
  out << json.str();
  if (!out) {
    std::cerr << "FAIL: cannot write " << out_path << "\n";
    ok = false;
  }
  std::cout << "wrote " << out_path << "\n";
  return ok ? 0 : 1;
}
