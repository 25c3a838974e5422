// Perf-regression harness for the what-if prediction pipeline.  Times
// one Table-1-style sweep — rate points x model variants (full / noWTA /
// MG1K) x SLA points over a heterogeneous 4-device cluster — on the
// calling thread, best of --repeat runs, checks that every repetition
// reproduces the first one's outputs bit for bit, and emits
// machine-readable BENCH_pipeline.json (see docs/PERFORMANCE.md for the
// field glossary).  Exit status: 0 ok, 1 a repetition's outputs differ,
// 3 JSON write/readback failure.
//
// Flags: --points=N  (rate points per sweep; default 6)
//        --repeat=R  (timing repetitions, best-of; default 3)
//        --out=PATH  (default BENCH_pipeline.json)
//        --trace-json=PATH  (enable observability; export the trace)
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "core/system_model.hpp"
#include "numerics/distribution.hpp"
#include "obs/obs.hpp"

namespace {

using cosm::core::DeviceParams;
using cosm::core::ModelOptions;
using cosm::core::SystemModel;
using cosm::core::SystemParams;

struct Config {
  int rate_points = 6;
  int repeat = 3;
  std::string out = "BENCH_pipeline.json";
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
      config.rate_points = std::stoi(value_of("--points="));
    } else if (arg.rfind("--repeat=", 0) == 0) {
      config.repeat = std::stoi(value_of("--repeat="));
    } else if (arg.rfind("--out=", 0) == 0) {
      config.out = value_of("--out=");
    } else if (arg.rfind("--trace-json=", 0) == 0) {
      config.trace_json = value_of("--trace-json=");
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      std::exit(3);
    }
  }
  config.rate_points = std::max(config.rate_points, 1);
  config.repeat = std::max(config.repeat, 1);
  return config;
}

constexpr unsigned kDevices = 4;
constexpr unsigned kProcesses = 4;

// A heterogeneous cluster: the same HDD profile on every device, aged
// to a different speed per device (disk service means scaled by 0.8,
// 0.9, 1.0 and 1.1), so every model builds 4 distinct devices.
SystemParams make_cluster(double system_rate) {
  using cosm::numerics::Degenerate;
  using cosm::numerics::Gamma;
  SystemParams params;
  params.frontend.arrival_rate = system_rate;
  params.frontend.processes = 3;
  params.frontend.frontend_parse = std::make_shared<Degenerate>(0.8e-3);
  for (unsigned d = 0; d < kDevices; ++d) {
    DeviceParams device;
    device.arrival_rate = system_rate / kDevices;
    device.data_read_rate = device.arrival_rate * 1.2;
    device.index_miss_ratio = 0.3;
    device.meta_miss_ratio = 0.3;
    device.data_miss_ratio = 0.7;
    const double slowdown = 0.8 + 0.1 * d;
    device.index_disk = std::make_shared<Gamma>(3.0, 300.0 / slowdown);
    device.meta_disk = std::make_shared<Gamma>(2.5, 312.5 / slowdown);
    device.data_disk = std::make_shared<Gamma>(2.8, 233.33 / slowdown);
    device.backend_parse = std::make_shared<Degenerate>(0.5e-3);
    device.processes = kProcesses;
    params.devices.push_back(device);
  }
  return params;
}

const std::vector<ModelOptions>& variants() {
  static const std::vector<ModelOptions> kVariants = [] {
    std::vector<ModelOptions> v(3);
    v[1].include_wta = false;                            // noWTA baseline
    v[2].disk_queue = ModelOptions::DiskQueue::kMG1K;    // exact-chain
    return v;
  }();
  return kVariants;
}

std::vector<double> rate_grid(int points) {
  // System rates spreading per-device load from light (~25 req/s) to busy
  // (~55 req/s), all inside stability for the slowest device above.
  const double lo = 100.0;
  const double hi = 220.0;
  std::vector<double> rates;
  rates.reserve(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i) {
    rates.push_back(points == 1 ? lo : lo + (hi - lo) * i / (points - 1));
  }
  return rates;
}

const std::vector<double>& slas() {
  static const std::vector<double> kSlas = {0.05, 0.075, 0.1, 0.15, 0.2};
  return kSlas;
}

// One full sweep: every (rate, variant) builds a model, every model
// answers every SLA point.  Outputs are appended in a fixed order so two
// sweeps can be compared element-for-element.
std::vector<double> run_sweep(const std::vector<double>& rates) {
  std::vector<double> outputs;
  outputs.reserve(rates.size() * variants().size() * slas().size());
  for (const double rate : rates) {
    for (const ModelOptions& options : variants()) {
      const SystemModel model(make_cluster(rate), options);
      const std::vector<double> percentiles =
          model.predict_sla_percentiles(slas());
      outputs.insert(outputs.end(), percentiles.begin(), percentiles.end());
    }
  }
  return outputs;
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
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());

  const std::vector<double> rates = rate_grid(config.rate_points);
  double wall_ms = 0.0;  // best over repetitions
  std::vector<double> first;
  bool identical = true;
  for (int rep = 0; rep < config.repeat; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<double> outputs = run_sweep(rates);
    const auto stop = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (rep == 0 || ms < wall_ms) wall_ms = ms;
    if (rep == 0) {
      first = std::move(outputs);
    } else {
      identical = identical && outputs == first;  // exact doubles
    }
  }
  const std::size_t models = rates.size() * variants().size();
  const double us_per_model = 1e3 * wall_ms / static_cast<double>(models);

  std::cout << "perf_pipeline: " << rates.size() << " rate points x "
            << variants().size() << " variants x " << slas().size()
            << " SLA points, " << kDevices << " distinct devices ("
            << kProcesses << " processes each), repeat=" << config.repeat
            << "\n\n"
            << "  serial  " << fmt(wall_ms, 3) << " ms per sweep, "
            << fmt(us_per_model, 1)
            << " us per model, repetitions bit-identical: "
            << (identical ? "yes" : "NO") << "\n";

  std::ostringstream json;
  json << "{\n"
       << "  \"benchmark\": \"perf_pipeline\",\n"
       << "  \"schema_version\": 2,\n"
       << "  \"config\": {\n"
       << "    \"rate_points\": " << rates.size() << ",\n"
       << "    \"sla_points\": " << slas().size() << ",\n"
       << "    \"variants\": " << variants().size() << ",\n"
       << "    \"devices_per_cluster\": " << kDevices << ",\n"
       << "    \"processes_per_device\": " << kProcesses << ",\n"
       << "    \"repeat\": " << config.repeat << ",\n"
       << "    \"hardware_threads\": " << hardware << "\n"
       << "  },\n"
       << "  \"modes\": [\n"
       << "    {\n"
       << "      \"name\": \"serial\",\n"
       << "      \"wall_ms\": " << fmt(wall_ms, 3) << ",\n"
       << "      \"models\": " << models << ",\n"
       << "      \"wall_us_per_model\": " << fmt(us_per_model, 3) << "\n"
       << "    }\n"
       << "  ],\n"
       << "  \"checks\": {\n"
       << "    \"bit_identical\": " << (identical ? "true" : "false") << "\n"
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
          config.out, 2,
          {"benchmark", "schema_version", "config", "modes", "checks"})) {
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

  if (!identical) {
    std::cerr << "FAIL: a repetition's outputs differ from the first\n";
    return 1;
  }
  return 0;
}
