// Perf-regression harness for the simulator hot path (the engine /
// request-pool / metrics overhaul) and for parallel replications.
//
// Runs the canonical throughput scenario — 4 devices x 4 backend
// processes, default HDD profile, 20k-object catalog, open-loop Poisson
// arrivals at --rate for 5 s warmup + --duration benchmark — in four
// modes:
//
//   sampled                one replication, per-request samples retained
//   streaming              one replication, constant-memory metrics
//   replications_serial    --reps replications, num_threads=1
//   replications_parallel  --reps replications, num_threads=--threads
//
// and verifies the determinism contract everywhere: a mode's fingerprint
// must be identical across timing repetitions, the parallel replication
// set must be bit-identical to the serial one, and streaming must agree
// with sampled on every counter (only the recording differs).
//
// A separate scaled scenario (the sharded-engine gate) runs 256 devices
// at --scaled-rate arrivals/s under the per-shard engines of
// sim/shard.hpp, at 1, 2, and 4 shards threaded plus 4 shards on the
// serial round-robin reference path.  Gates: the 4-shard threaded run
// must be bit-identical to its serial twin (always enforced), and with
// >= 4 hardware threads the 4-shard run must deliver >= 2x the 1-shard
// aggregate events/s; on smaller hosts the speedup gate is recorded as
// skipped ("skipped_single_hw_thread" / "skipped_hw_threads_below_4")
// instead of fabricating a parallelism number one core cannot show.
// Results land under the separate "scaled" JSON key so consumers of the
// canonical "modes" array are unaffected.
//
// Emits machine-readable BENCH_sim.json (field glossary in
// docs/PERFORMANCE.md).  Absolute throughput is a property of the host,
// so the artifact records it with the host's hardware threads and gates
// only on ratios measured in the same run.  Exit status: 0 ok,
// 1 determinism/bit-identity violation, 2 throughput regression
// (streaming slower than 1.5x sampled, or the scaled 4-shard speedup gate
// failing where enforced), 3 JSON write/readback failure.
//
// Flags: --rate=R      (system arrivals/s; default 150)
//        --duration=S  (benchmark phase seconds; default 115)
//        --reps=N      (replication count; default 4)
//        --threads=T   (parallel replication fan-out; 0 = hardware)
//        --repeat=K    (timing repetitions, best-of, after one discarded
//                       warm-up run per mode; default 3)
//        --scaled-rate=R     (scaled scenario arrivals/s; default 10000)
//        --scaled-duration=S (scaled benchmark seconds; default 3)
//        --out=PATH    (default BENCH_sim.json)
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "obs/obs.hpp"
#include "sim/replication.hpp"
#include "workload/catalog.hpp"

namespace {

using cosm::sim::ReplicationPlan;
using cosm::sim::ReplicationResult;
using cosm::sim::ReplicationSet;
using cosm::sim::run_replication;
using cosm::sim::run_replications;

constexpr std::uint64_t kSeed = 20170813;  // the figure benches' seed

struct Config {
  double rate = 150.0;
  double duration = 115.0;
  int reps = 4;
  unsigned threads = 0;  // 0 = all hardware threads
  int repeat = 3;
  double scaled_rate = 10000.0;
  double scaled_duration = 3.0;
  std::string out = "BENCH_sim.json";
  std::string trace_json;  // empty = observability stays disabled
};

Config parse_args(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    if (arg.rfind("--rate=", 0) == 0) {
      config.rate = std::stod(value_of("--rate="));
    } else if (arg.rfind("--duration=", 0) == 0) {
      config.duration = std::stod(value_of("--duration="));
    } else if (arg.rfind("--reps=", 0) == 0) {
      config.reps = std::stoi(value_of("--reps="));
    } else if (arg.rfind("--threads=", 0) == 0) {
      config.threads =
          static_cast<unsigned>(std::stoul(value_of("--threads=")));
    } else if (arg.rfind("--repeat=", 0) == 0) {
      config.repeat = std::stoi(value_of("--repeat="));
    } else if (arg.rfind("--scaled-rate=", 0) == 0) {
      config.scaled_rate = std::stod(value_of("--scaled-rate="));
    } else if (arg.rfind("--scaled-duration=", 0) == 0) {
      config.scaled_duration = std::stod(value_of("--scaled-duration="));
    } else if (arg.rfind("--out=", 0) == 0) {
      config.out = value_of("--out=");
    } else if (arg.rfind("--trace-json=", 0) == 0) {
      config.trace_json = value_of("--trace-json=");
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      std::exit(3);
    }
  }
  config.reps = std::max(config.reps, 1);
  config.repeat = std::max(config.repeat, 1);
  return config;
}

ReplicationPlan make_plan(const Config& config, bool streaming) {
  ReplicationPlan plan;
  plan.cluster.device_count = 4;
  plan.cluster.processes_per_device = 4;
  plan.cluster.request_timeout = 0.25;
  plan.catalog.object_count = 20000;
  plan.catalog.size_distribution =
      cosm::workload::default_size_distribution();
  plan.placement = {.partition_count = 1024,
                    .replica_count = 3,
                    .device_count = 4,
                    .seed = 0};
  plan.phases.warmup_rate = config.rate;
  plan.phases.warmup_duration = 5.0;
  plan.phases.transition_duration = 0.0;
  plan.phases.benchmark_start_rate = config.rate;
  plan.phases.benchmark_end_rate = config.rate;
  plan.phases.benchmark_step_duration = config.duration;
  plan.streaming = streaming;
  return plan;
}

// The scaled sharded scenario: 256 devices, 10k rps open-loop arrivals,
// streaming metrics (a quarter-million-request run would be wasteful to
// retain sample-by-sample).  Replica sets stay shard-local, so placement
// width (3) must fit the narrowest shard — 256/4 = 64 devices, ample.
ReplicationPlan make_scaled_plan(const Config& config, std::uint32_t shards,
                                 unsigned shard_threads) {
  ReplicationPlan plan;
  plan.cluster.device_count = 256;
  plan.cluster.frontend_processes = 16;
  plan.cluster.processes_per_device = 2;
  plan.cluster.request_timeout = 0.25;
  plan.cluster.shards = shards;
  plan.catalog.object_count = 20000;
  plan.catalog.size_distribution =
      cosm::workload::default_size_distribution();
  plan.placement = {.partition_count = 1024,
                    .replica_count = 3,
                    .device_count = 256,
                    .seed = 0};
  plan.phases.warmup_rate = config.scaled_rate;
  plan.phases.warmup_duration = 1.0;
  plan.phases.transition_duration = 0.0;
  plan.phases.benchmark_start_rate = config.scaled_rate;
  plan.phases.benchmark_end_rate = config.scaled_rate;
  plan.phases.benchmark_step_duration = config.scaled_duration;
  plan.streaming = true;
  plan.shard_threads = shard_threads;
  return plan;
}

struct ModeResult {
  std::string name;
  unsigned threads = 1;
  double wall_ms = 0.0;  // best over repetitions
  std::uint64_t events = 0;
  std::uint64_t requests = 0;
  std::uint64_t fingerprint = 0;
  bool deterministic = true;  // fingerprint stable across repetitions
};

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void fold_rep(ModeResult& result, int rep, double ms, std::uint64_t events,
              std::uint64_t requests, std::uint64_t fingerprint) {
  if (rep == 0 || ms < result.wall_ms) result.wall_ms = ms;
  if (rep == 0) {
    result.events = events;
    result.requests = requests;
    result.fingerprint = fingerprint;
  } else if (fingerprint != result.fingerprint ||
             events != result.events || requests != result.requests) {
    result.deterministic = false;
  }
}

// Every mode runs once, untimed and discarded, before its timed
// repetitions: the first run after an idle spell is the slow one on a
// shared host, and the gates compare best-of timings across modes.
ModeResult run_single(const std::string& name, const ReplicationPlan& plan,
                      int repeat) {
  ModeResult result;
  result.name = name;
  run_replication(plan, kSeed);  // warm-up, discarded
  for (int rep = 0; rep < repeat; ++rep) {
    // Engine-loop wall only (excludes catalog/placement construction).
    const ReplicationResult r = run_replication(plan, kSeed);
    fold_rep(result, rep, r.engine_wall_ms, r.events, r.completed,
             r.fingerprint);
  }
  return result;
}

ModeResult run_set(const std::string& name, const ReplicationPlan& plan,
                   unsigned threads, int repeat) {
  ModeResult result;
  result.name = name;
  result.threads = threads;
  run_replications(plan, threads);  // warm-up, discarded
  for (int rep = 0; rep < repeat; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const ReplicationSet set = run_replications(plan, threads);
    fold_rep(result, rep, ms_since(start), set.events, set.completed,
             set.fingerprint);
  }
  return result;
}

std::string fmt(double value, int precision) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(precision);
  out << value;
  return out.str();
}

std::string hex64(std::uint64_t v) {
  std::ostringstream out;
  out << "0x" << std::hex << v;
  return out.str();
}

double events_per_sec(const ModeResult& mode) {
  return static_cast<double>(mode.events) / (mode.wall_ms / 1e3);
}

double requests_per_sec(const ModeResult& mode) {
  return static_cast<double>(mode.requests) / (mode.wall_ms / 1e3);
}

void append_mode_json(std::ostringstream& json, const ModeResult& mode,
                      bool last) {
  json << "    {\n"
       << "      \"name\": \"" << mode.name << "\",\n"
       << "      \"threads\": " << mode.threads << ",\n"
       << "      \"wall_ms\": " << fmt(mode.wall_ms, 3) << ",\n"
       << "      \"events\": " << mode.events << ",\n"
       << "      \"requests\": " << mode.requests << ",\n"
       << "      \"events_per_sec\": " << fmt(events_per_sec(mode), 0)
       << ",\n"
       << "      \"requests_per_sec\": " << fmt(requests_per_sec(mode), 0)
       << ",\n"
       << "      \"fingerprint\": \"" << hex64(mode.fingerprint) << "\",\n"
       << "      \"deterministic\": "
       << (mode.deterministic ? "true" : "false") << "\n"
       << "    }" << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Config config = parse_args(argc, argv);
  if (!config.trace_json.empty()) cosm::obs::set_enabled(true);
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  const unsigned fanout = config.threads == 0 ? hardware : config.threads;

  const ReplicationPlan sampled_plan = make_plan(config, false);
  const ReplicationPlan streaming_plan = make_plan(config, true);
  ReplicationPlan set_plan = make_plan(config, true);
  for (int i = 0; i < config.reps; ++i) {
    set_plan.seeds.push_back(kSeed + 1000 * (static_cast<std::uint64_t>(i) + 1));
  }

  std::vector<ModeResult> modes;
  modes.push_back(run_single("sampled", sampled_plan, config.repeat));
  modes.push_back(run_single("streaming", streaming_plan, config.repeat));
  modes.push_back(
      run_set("replications_serial", set_plan, 1, config.repeat));
  modes.push_back(
      run_set("replications_parallel", set_plan, fanout, config.repeat));

  const ModeResult& sampled = modes[0];
  const ModeResult& streaming = modes[1];
  const ModeResult& serial_set = modes[2];
  const ModeResult& parallel_set = modes[3];

  // Scaled sharded scenario (separate "scaled" JSON key; see file header).
  // ModeResult.threads records each mode's resolved per-replication worker
  // thread count: S dedicated shard workers when threaded, 1 when serial
  // (and for the unsharded 1-shard reference).
  std::vector<ModeResult> scaled;
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    ModeResult mode =
        run_single("scaled_" + std::to_string(shards) + "shard",
                   make_scaled_plan(config, shards, 0), config.repeat);
    mode.threads = shards;
    scaled.push_back(mode);
  }
  {
    ModeResult mode = run_single(
        "scaled_4shard_serial", make_scaled_plan(config, 4, 1), config.repeat);
    mode.threads = 1;
    scaled.push_back(mode);
  }
  const ModeResult& scaled_1shard = scaled[0];
  const ModeResult& scaled_4shard = scaled[2];
  const ModeResult& scaled_4shard_serial = scaled[3];
  // Hard gate at every hardware size: the threaded window protocol must be
  // bit-identical to its serial round-robin reference.
  const bool scaled_bit_identical =
      scaled_4shard.fingerprint == scaled_4shard_serial.fingerprint &&
      scaled_4shard.events == scaled_4shard_serial.events &&
      scaled_4shard.requests == scaled_4shard_serial.requests;
  bool scaled_deterministic = true;
  for (const ModeResult& mode : scaled) {
    scaled_deterministic = scaled_deterministic && mode.deterministic;
  }
  const double scaled_speedup =
      events_per_sec(scaled_4shard) / events_per_sec(scaled_1shard);
  // The >= 2x speedup gate needs 4 real cores to mean anything.
  const std::string speedup_gate =
      hardware >= 4 ? "enforced"
      : hardware == 1 ? "skipped_single_hw_thread"
                      : "skipped_hw_threads_below_4";
  const bool scaled_speedup_ok =
      hardware < 4 || scaled_speedup >= 2.0;

  bool deterministic = true;
  for (const ModeResult& mode : modes) {
    deterministic = deterministic && mode.deterministic;
  }
  // Streaming and sampled run the same simulation; only recording differs.
  const bool modes_agree = sampled.events == streaming.events &&
                           sampled.requests == streaming.requests;
  const bool replications_identical =
      serial_set.fingerprint == parallel_set.fingerprint &&
      serial_set.events == parallel_set.events &&
      serial_set.requests == parallel_set.requests;
  // Constant-memory accounting must not cost wall time (generous band:
  // same process, same machine, so this check is portable).
  const bool streaming_ok = streaming.wall_ms <= 1.5 * sampled.wall_ms;

  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb =
      static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB

  std::cout << "perf_sim_scale: rate=" << fmt(config.rate, 0) << "/s, "
            << fmt(config.duration, 0) << " s benchmark, reps="
            << config.reps << ", repeat=" << config.repeat << ", fanout="
            << fanout << " thread(s)\n\n";
  std::cout << "  mode                     wall_ms     events/s   requests/s"
               "   deterministic\n";
  for (const ModeResult& mode : modes) {
    std::cout << "  " << mode.name
              << std::string(24 - mode.name.size(), ' ')
              << fmt(mode.wall_ms, 2) << "   " << fmt(events_per_sec(mode), 0)
              << "   " << fmt(requests_per_sec(mode), 0) << "   "
              << (mode.deterministic ? "yes" : "NO") << "\n";
  }
  std::cout << "\n  scaled scenario (256 devices, "
            << fmt(config.scaled_rate, 0) << " rps, streaming):\n";
  for (const ModeResult& mode : scaled) {
    std::cout << "  " << mode.name
              << std::string(24 - mode.name.size(), ' ')
              << fmt(mode.wall_ms, 2) << "   " << fmt(events_per_sec(mode), 0)
              << "   " << fmt(requests_per_sec(mode), 0) << "   "
              << (mode.deterministic ? "yes" : "NO") << "\n";
  }
  std::cout << "\n  parallel replications bit-identical to serial: "
            << (replications_identical ? "yes" : "NO") << "\n"
            << "  scaled 4-shard bit-identical to serial reference: "
            << (scaled_bit_identical ? "yes" : "NO") << "\n"
            << "  scaled 4-shard vs 1-shard events/s: "
            << fmt(scaled_speedup, 2) << "x (gate " << speedup_gate << ")\n"
            << "  peak RSS: " << fmt(peak_rss_mb, 1) << " MiB\n";

  std::ostringstream json;
  json << "{\n"
       << "  \"benchmark\": \"perf_sim_scale\",\n"
       << "  \"schema_version\": 1,\n"
       << "  \"config\": {\n"
       << "    \"rate\": " << fmt(config.rate, 1) << ",\n"
       << "    \"duration_s\": " << fmt(config.duration, 1) << ",\n"
       << "    \"warmup_s\": 5.0,\n"
       << "    \"devices\": 4,\n"
       << "    \"processes_per_device\": 4,\n"
       << "    \"replications\": " << config.reps << ",\n"
       << "    \"repeat\": " << config.repeat << ",\n"
       << "    \"requested_threads\": " << config.threads << ",\n"
       << "    \"resolved_threads\": " << fanout << ",\n"
       << "    \"hardware_threads\": " << hardware << ",\n"
       << "    \"seed\": " << kSeed << "\n"
       << "  },\n"
       << "  \"modes\": [\n";
  for (std::size_t i = 0; i < modes.size(); ++i) {
    append_mode_json(json, modes[i], i + 1 == modes.size());
  }
  json << "  ],\n"
       << "  \"scaled\": {\n"
       << "    \"config\": {\n"
       << "      \"rate\": " << fmt(config.scaled_rate, 1) << ",\n"
       << "      \"duration_s\": " << fmt(config.scaled_duration, 1) << ",\n"
       << "      \"warmup_s\": 1.0,\n"
       << "      \"devices\": 256,\n"
       << "      \"frontend_processes\": 16,\n"
       << "      \"processes_per_device\": 2,\n"
       << "      \"streaming\": true,\n"
       << "      \"seed\": " << kSeed << "\n"
       << "    },\n"
       << "    \"modes\": [\n";
  for (std::size_t i = 0; i < scaled.size(); ++i) {
    append_mode_json(json, scaled[i], i + 1 == scaled.size());
  }
  json << "    ],\n"
       << "    \"speedup_4shard_vs_1shard\": " << fmt(scaled_speedup, 3)
       << ",\n"
       << "    \"speedup_gate\": \"" << speedup_gate << "\",\n"
       << "    \"checks\": {\n"
       << "      \"deterministic\": "
       << (scaled_deterministic ? "true" : "false") << ",\n"
       << "      \"bit_identical_serial_vs_threaded\": "
       << (scaled_bit_identical ? "true" : "false") << "\n"
       << "    }\n"
       << "  },\n"
       << "  \"parallel_speedup_vs_serial\": "
       << fmt(serial_set.wall_ms / parallel_set.wall_ms, 3) << ",\n"
       << "  \"peak_rss_mb\": " << fmt(peak_rss_mb, 1) << ",\n"
       << "  \"checks\": {\n"
       << "    \"deterministic\": " << (deterministic ? "true" : "false")
       << ",\n"
       << "    \"streaming_matches_sampled\": "
       << (modes_agree ? "true" : "false") << ",\n"
       << "    \"replications_bit_identical\": "
       << (replications_identical ? "true" : "false") << ",\n"
       << "    \"streaming_within_1p5x_of_sampled\": "
       << (streaming_ok ? "true" : "false") << "\n"
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
          {"benchmark", "schema_version", "config", "modes", "scaled",
           "parallel_speedup_vs_serial", "peak_rss_mb", "checks"})) {
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

  if (!deterministic || !modes_agree || !replications_identical ||
      !scaled_deterministic || !scaled_bit_identical) {
    std::cerr << "FAIL: determinism contract violated (repeat fingerprints, "
                 "streaming/sampled agreement, serial/parallel replication "
                 "identity, or sharded serial/threaded identity)\n";
    return 1;
  }
  if (!scaled_speedup_ok) {
    std::cerr << "FAIL: scaled 4-shard speedup " << fmt(scaled_speedup, 2)
              << "x below the 2x gate (" << hardware
              << " hardware threads)\n";
    return 2;
  }
  if (!streaming_ok) {
    std::cerr << "FAIL: streaming metrics cost more than 1.5x sampled wall "
                 "time\n";
    return 2;
  }
  return 0;
}
