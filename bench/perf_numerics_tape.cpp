// Perf-regression harness for the transform-tape Laplace kernel.  Four
// single-device response scenarios spanning the tape's op repertoire:
//
//   mm1k_full        4 backend processes, M/M/1/K disk queue (paper default)
//   mg1k_chain       4 backend processes, exact M/G/1/K embedded chain
//   single_process   1 backend process (pure P-K / compound-Poisson path)
//   degraded_scaled  1.5x-inflated disks (Scaled nodes, what-if shape)
//
// Each scenario times a CDF sweep over an SLA grid in three modes:
//
//   scalar     cdf_from_laplace on the distribution tree walk (baseline)
//   tape       TransformTape::cdf per point (flattened kernel)
//   tape_many  TransformTape::cdf_many, one concatenated-contour call
//
// verifies every mode reproduces the scalar outputs bit-for-bit (the
// tape's hard contract), and emits machine-readable BENCH_numerics.json.
// Exit status: 0 ok, 1 outputs not bit-identical, 2 the speedup gate
// unmet, 3 JSON write/readback failure.
//
// Flags: --points=N       (SLA points per sweep; default 24)
//        --repeat=R       (timing repetitions, best-of; default 3)
//        --min-speedup=S  (tape-vs-scalar gate per scenario; default 0 = off)
//        --out=PATH       (default BENCH_numerics.json)
#include <algorithm>
#include <chrono>
#include <complex>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "common/ulp.hpp"
#include "core/system_model.hpp"
#include "numerics/compose.hpp"
#include "numerics/lt_inversion.hpp"
#include "numerics/transform_tape.hpp"
#include "obs/obs.hpp"

namespace {

using cosm::core::DeviceParams;
using cosm::core::ModelOptions;
using cosm::core::SystemModel;
using cosm::core::SystemParams;
using cosm::numerics::cdf_from_laplace;
using cosm::numerics::DistPtr;
using cosm::numerics::LaplaceFn;
using cosm::numerics::TransformTape;

struct Config {
  int sla_points = 24;
  int repeat = 3;
  double min_speedup = 0.0;  // 0 disables the perf gate
  std::string out = "BENCH_numerics.json";
  std::string trace_json;  // empty = observability stays disabled
};

Config parse_args(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    if (arg.rfind("--points=", 0) == 0) {
      config.sla_points = std::stoi(value_of("--points="));
    } else if (arg.rfind("--repeat=", 0) == 0) {
      config.repeat = std::stoi(value_of("--repeat="));
    } else if (arg.rfind("--min-speedup=", 0) == 0) {
      config.min_speedup = std::stod(value_of("--min-speedup="));
    } else if (arg.rfind("--out=", 0) == 0) {
      config.out = value_of("--out=");
    } else if (arg.rfind("--trace-json=", 0) == 0) {
      config.trace_json = value_of("--trace-json=");
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      std::exit(3);
    }
  }
  config.sla_points = std::max(config.sla_points, 1);
  config.repeat = std::max(config.repeat, 1);
  return config;
}

// One single-device cluster with the perf_pipeline disk profile; the
// response distribution is what every mode inverts.
SystemParams make_device(double rate, unsigned processes,
                         double disk_inflation) {
  using cosm::numerics::Degenerate;
  using cosm::numerics::Gamma;
  using cosm::numerics::scale_dist;
  SystemParams params;
  params.frontend.arrival_rate = rate;
  params.frontend.processes = 3;
  params.frontend.frontend_parse = std::make_shared<Degenerate>(0.8e-3);
  DeviceParams device;
  device.arrival_rate = rate;
  device.data_read_rate = rate * 1.2;
  device.index_miss_ratio = 0.3;
  device.meta_miss_ratio = 0.3;
  device.data_miss_ratio = 0.7;
  device.index_disk =
      scale_dist(std::make_shared<Gamma>(3.0, 300.0), disk_inflation);
  device.meta_disk =
      scale_dist(std::make_shared<Gamma>(2.5, 312.5), disk_inflation);
  device.data_disk =
      scale_dist(std::make_shared<Gamma>(2.8, 233.33), disk_inflation);
  device.backend_parse = std::make_shared<Degenerate>(0.5e-3);
  device.processes = processes;
  params.devices.push_back(device);
  return params;
}

struct Scenario {
  std::string name;
  SystemParams params;
  ModelOptions options;
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> list;
  list.push_back({"mm1k_full", make_device(30.0, 4, 1.0), {}});
  ModelOptions mg1k;
  mg1k.disk_queue = ModelOptions::DiskQueue::kMG1K;
  list.push_back({"mg1k_chain", make_device(30.0, 4, 1.0), mg1k});
  list.push_back({"single_process", make_device(30.0, 1, 1.0), {}});
  list.push_back({"degraded_scaled", make_device(24.0, 4, 1.5), {}});
  return list;
}

std::vector<double> sla_grid(int points) {
  // 5 ms .. 250 ms, the band the paper's Table 1 SLAs live in.
  const double lo = 0.005;
  const double hi = 0.25;
  std::vector<double> ts;
  ts.reserve(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i) {
    ts.push_back(points == 1 ? lo : lo + (hi - lo) * i / (points - 1));
  }
  return ts;
}

struct ModeResult {
  std::string name;
  double wall_ms = 0.0;  // best over repetitions
  bool bit_identical = true;
  std::int64_t max_ulp = 0;  // max ULP distance to scalar over the sweep
  std::vector<double> outputs;
};

template <typename Sweep>
ModeResult run_mode(const std::string& name, int repeat, const Sweep& sweep) {
  ModeResult result;
  result.name = name;
  for (int rep = 0; rep < repeat; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<double> outputs = sweep();
    const auto stop = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (rep == 0 || ms < result.wall_ms) result.wall_ms = ms;
    result.outputs = std::move(outputs);
  }
  return result;
}

struct ScenarioResult {
  std::string name;
  std::size_t op_count = 0;
  std::size_t slot_count = 0;
  std::size_t generic_leaves = 0;
  std::vector<ModeResult> modes;
  double tape_speedup = 0.0;  // tape vs scalar, per-point sweep
};

ScenarioResult run_scenario(const Scenario& scenario,
                            const std::vector<double>& ts, int repeat) {
  const SystemModel model(scenario.params, scenario.options);
  const DistPtr response = cosm::core::response_tree(
      model.frontend(), scenario.params.devices[0], scenario.options);
  const TransformTape& tape = model.devices()[0].response_tape();

  ScenarioResult result;
  result.name = scenario.name;
  result.op_count = tape.op_count();
  result.slot_count = tape.slot_count();
  result.generic_leaves = tape.generic_leaf_count();

  const LaplaceFn scalar_lt = [&response](std::complex<double> s) {
    return response->laplace(s);
  };

  result.modes.push_back(run_mode("scalar", repeat, [&] {
    std::vector<double> out;
    out.reserve(ts.size());
    for (const double t : ts) out.push_back(cdf_from_laplace(scalar_lt, t));
    return out;
  }));
  result.modes.push_back(run_mode("tape", repeat, [&] {
    std::vector<double> out;
    out.reserve(ts.size());
    for (const double t : ts) out.push_back(tape.cdf(t));
    return out;
  }));
  result.modes.push_back(
      run_mode("tape_many", repeat, [&] { return tape.cdf_many(ts); }));

  const ModeResult& scalar = result.modes.front();
  for (ModeResult& mode : result.modes) {
    mode.bit_identical = mode.outputs == scalar.outputs;  // exact doubles
    for (std::size_t i = 0; i < mode.outputs.size(); ++i) {
      mode.max_ulp = std::max(
          mode.max_ulp,
          cosm::common::ulp_distance(mode.outputs[i], scalar.outputs[i]));
    }
  }
  result.tape_speedup = scalar.wall_ms / result.modes[1].wall_ms;
  return result;
}

std::string fmt(double value, int precision) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(precision);
  out << value;
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Config config = parse_args(argc, argv);
  if (!config.trace_json.empty()) cosm::obs::set_enabled(true);
  const std::vector<double> ts = sla_grid(config.sla_points);

  std::vector<ScenarioResult> results;
  for (const Scenario& scenario : scenarios()) {
    results.push_back(run_scenario(scenario, ts, config.repeat));
  }

  bool all_identical = true;
  bool speedup_ok = true;
  double min_tape_speedup = 0.0;
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "perf_numerics_tape: " << ts.size()
            << " SLA points per sweep, repeat=" << config.repeat << ", "
            << hardware << " hardware threads\n";
  for (const ScenarioResult& scenario : results) {
    std::cout << "\n  " << scenario.name << " (" << scenario.op_count
              << " ops, " << scenario.slot_count << " CSE slots, "
              << scenario.generic_leaves << " generic leaves)\n";
    const double scalar_ms = scenario.modes.front().wall_ms;
    for (const ModeResult& mode : scenario.modes) {
      all_identical = all_identical && mode.bit_identical;
      const std::string verdict =
          mode.bit_identical ? "bit-identical" : "DIVERGED";
      std::cout << "    " << mode.name
                << std::string(12 - std::min<std::size_t>(11,
                                                          mode.name.size()),
                               ' ')
                << fmt(mode.wall_ms, 3) << " ms   "
                << fmt(scalar_ms / mode.wall_ms, 2) << "x   " << verdict
                << "\n";
    }
    if (min_tape_speedup == 0.0 ||
        scenario.tape_speedup < min_tape_speedup) {
      min_tape_speedup = scenario.tape_speedup;
    }
    if (config.min_speedup > 0.0 &&
        scenario.tape_speedup < config.min_speedup) {
      speedup_ok = false;
    }
  }
  std::cout << "\n  min tape speedup across scenarios: "
            << fmt(min_tape_speedup, 2) << "x (gate: "
            << (config.min_speedup > 0.0 ? fmt(config.min_speedup, 2) : "off")
            << ")\n";

  std::ostringstream json;
  json << "{\n"
       << "  \"benchmark\": \"perf_numerics_tape\",\n"
       << "  \"schema_version\": 1,\n"
       << "  \"config\": {\n"
       << "    \"sla_points\": " << ts.size() << ",\n"
       << "    \"repeat\": " << config.repeat << ",\n"
       << "    \"min_speedup\": " << fmt(config.min_speedup, 2) << ",\n"
       << "    \"hardware_threads\": " << hardware << "\n"
       << "  },\n"
       << "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& scenario = results[i];
    const double scalar_ms = scenario.modes.front().wall_ms;
    json << "    {\n"
         << "      \"name\": \"" << scenario.name << "\",\n"
         << "      \"tape_ops\": " << scenario.op_count << ",\n"
         << "      \"cse_slots\": " << scenario.slot_count << ",\n"
         << "      \"generic_leaves\": " << scenario.generic_leaves << ",\n"
         << "      \"modes\": [\n";
    for (std::size_t k = 0; k < scenario.modes.size(); ++k) {
      const ModeResult& mode = scenario.modes[k];
      json << "        {\n"
           << "          \"name\": \"" << mode.name << "\",\n"
           << "          \"wall_ms\": " << fmt(mode.wall_ms, 3) << ",\n"
           << "          \"speedup_vs_scalar\": "
           << fmt(scalar_ms / mode.wall_ms, 3) << ",\n"
           << "          \"bit_identical_to_scalar\": "
           << (mode.bit_identical ? "true" : "false") << ",\n"
           << "          \"max_ulp_vs_scalar\": " << mode.max_ulp << "\n"
           << "        }" << (k + 1 == scenario.modes.size() ? "\n" : ",\n");
    }
    json << "      ],\n"
         << "      \"tape_speedup\": " << fmt(scenario.tape_speedup, 3)
         << "\n"
         << "    }" << (i + 1 == results.size() ? "\n" : ",\n");
  }
  json << "  ],\n"
       << "  \"min_tape_speedup\": " << fmt(min_tape_speedup, 3) << ",\n"
       << "  \"checks\": {\n"
       << "    \"bit_identical\": " << (all_identical ? "true" : "false")
       << ",\n"
       << "    \"min_speedup_met\": " << (speedup_ok ? "true" : "false")
       << "\n"
       << "  }\n"
       << "}\n";

  {
    std::ofstream out(config.out);
    if (!out) {
      std::cerr << "cannot open " << config.out << " for writing\n";
      return 3;
    }
    out << json.str();
  }
  // Readback gate: parse the artifact and enforce its schema contract
  // (schema_version match, no unknown top-level fields).
  if (!cosm_bench::verify_bench_json(
          config.out, 1,
          {"benchmark", "schema_version", "config", "scenarios",
           "min_tape_speedup", "checks"})) {
    return 3;
  }
  std::cout << "  wrote " << config.out << "\n";

  if (!config.trace_json.empty()) {
    std::ofstream trace(config.trace_json);
    if (!trace) {
      std::cerr << "cannot open " << config.trace_json << " for writing\n";
      return 3;
    }
    cosm::obs::export_json(trace);
    std::cout << "  wrote " << config.trace_json << "\n";
  }

  if (!all_identical) {
    std::cerr << "FAIL: a mode's outputs differ from the scalar tree walk\n";
    return 1;
  }
  if (!speedup_ok) {
    std::cerr << "FAIL: tape speedup below the " << fmt(config.min_speedup, 2)
              << "x gate\n";
    return 2;
  }
  return 0;
}
