// perfbench: the repository benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (each a closed loop with one caller: the next operation is
// issued when the previous one has returned):
//
//   service_hit   What-if service, cache-resident.  Eight tenant clusters
//                 are registered and their 96 baseline what-ifs (three
//                 query shapes at four operating points each) answered
//                 once during set-up; the measured loop then replays those
//                 same requests in a seeded shuffled order, so every
//                 answer comes from the shared PredictionCache.  Checks:
//                 each replayed response is byte-identical to the answer
//                 computed cold during set-up.
//   service_miss  What-if service, cache-missing.  Same set-up, but every
//                 measured request asks about a fresh operating point (a
//                 seeded random arrival rate and device count), so each
//                 one builds, compiles and inverts its models from
//                 scratch.  Checks: every answer is a valid percentile
//                 ladder or latency, and a sample of them recomputed by a
//                 freshly started service is byte-identical.
//   sim_sharded   Sharded discrete-event simulator.  Each operation is one
//                 seeded replication of a 256-device cluster split into
//                 two shards, run window by window in round-robin on the
//                 calling thread (the serial reference path: the same
//                 windows, mailboxes and merge as the threaded one).
//                 Checks: no request fails or times out, and the first
//                 replication rerun on one thread per shard is
//                 bit-identical to its serial run.
//
// Inputs come only from --seed; the measured phase lasts --seconds.  The
// end-to-end metrics are median and 99th-percentile operation latency,
// work completed per second of operation time, and the median set-up time,
// all timed against a reference kernel (see the measurement notes below).
//
// With --trace 0 the metrics are the end-to-end ones (observability off);
// with --trace 1 observability is enabled and the metrics are the
// per-layer ones, rolled up from the program's own counters and spans.
// The last line of standard output is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "obs/obs.hpp"
#include "service/service.hpp"
#include "sim/replication.hpp"
#include "workload/catalog.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// SplitMix64: the benchmark's only source of input randomness, so the
// same seed yields the same inputs on any standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

std::string number(double value) {
  char buffer[32];
  const auto end = std::to_chars(buffer, buffer + sizeof(buffer), value).ptr;
  return std::string(buffer, end);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

// ---------------------------------------------------------------------------
// Measurement.
//
// Every workload runs its operations on the calling thread alone, so each
// is timed on that thread's CPU clock: the hypervisor and other tenants of
// a shared host take a CPU away for milliseconds at a time, and wall-clock
// latency would measure that rather than the program (a 10 ms operation is
// hit often enough to move its 99th percentile threefold).  CPU time still
// runs 20-60% slower while a co-tenant contends for the core's caches and
// execution units, in episodes lasting seconds to tens of minutes.  So
// every 100 ms window first times a fixed reference kernel (below) on the
// CPU it is about to use, and each operation's time in that window is
// divided by the kernel's: latencies are reported in milliseconds on a
// host where the kernel takes one millisecond.  Windows pin the caller to
// the next allowed CPU in turn, so one run samples every CPU.

double thread_cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

// The reference kernel: a fixed mix of the kinds of work the library does
// (a table walk in cache, transcendental math, small allocations and a
// balanced-tree build), so contention slows it about as much as it slows
// the workloads.  It calls nothing in the library, so a change to the
// library never changes it.  Returns its CPU time in seconds.
volatile double reference_sink = 0.0;

double reference_seconds() {
  static std::vector<std::uint32_t> table(1 << 16);
  const double start = thread_cpu_seconds();
  for (std::size_t i = 0; i < table.size(); ++i) {
    table[i] = static_cast<std::uint32_t>(i * 2654435761u);
  }
  std::uint32_t x = 12345;
  std::uint64_t walk = 0;
  for (int i = 0; i < 100000; ++i) {
    x = table[x & 0xffff] ^ (x * 1664525u + 1013904223u);
    walk += x;
  }
  double math = 0.0;
  for (int i = 1; i < 20000; ++i) {
    math += std::exp(-1.0 / i) * std::log(1.0 + i) / std::sqrt(i + 0.5);
  }
  std::vector<std::vector<int>> vectors;
  for (int i = 0; i < 2000; ++i) vectors.emplace_back(16 + i % 32, i);
  std::map<int, int> tree;
  for (int i = 0; i < 3000; ++i) tree[(i * 7919) % 5003] = i;
  reference_sink = math + static_cast<double>(walk) +
                   static_cast<double>(vectors.size() + tree.size());
  return thread_cpu_seconds() - start;
}

class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
    reference_seconds();  // first touch of the kernel's table, untimed
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  // Pins the caller to the step'th allowed CPU (cyclically) and returns
  // the reference kernel's time there.
  double pin(std::size_t step) {
    if (cpus_.size() > 1) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpus_[step % cpus_.size()], &set);
      sched_setaffinity(0, sizeof(set), &set);
    }
    return reference_seconds();
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
};

constexpr double kWindowSeconds = 0.1;

struct Measured {
  std::vector<double> latency_ms;  // every operation, in order, normalized
  double work = 0.0;               // units of work completed
  double busy_s = 0.0;             // summed normalized operation latency
  double wall_s = 0.0;             // summed operation wall time
};

// Runs `op` back to back for `seconds` of wall time.  `op` returns the
// units of work it completed (requests answered, requests simulated).
// `after(reference_s)` runs untimed after each operation (output checks,
// trace folding), given the window's reference kernel time.
template <typename Op, typename After>
Measured measure(double seconds, Op&& op, After&& after) {
  Measured measured;
  CpuRotation rotation;
  const int windows =
      std::max(1, static_cast<int>(std::lround(seconds / kWindowSeconds)));
  const Clock::time_point begin = Clock::now();
  for (int w = 0; w < windows; ++w) {
    const double reference_s = rotation.pin(static_cast<std::size_t>(w));
    const double window_end = seconds * (w + 1) / windows;
    while (seconds_since(begin) < window_end) {
      const Clock::time_point wall_start = Clock::now();
      const double start = thread_cpu_seconds();
      measured.work += op();
      const double latency = (thread_cpu_seconds() - start) / reference_s;
      measured.wall_s += seconds_since(wall_start);
      measured.latency_ms.push_back(latency);
      measured.busy_s += latency * 1e-3;
      after(reference_s);
    }
  }
  return measured;
}

// ---------------------------------------------------------------------------
// Per-layer ledger: folds the program's obs counters and span self times
// (span duration minus the durations of its direct children on the same
// thread).  Folded between operations, when no span is open, and the obs
// state is reset after each fold so the span ring never overflows.

class Ledger {
 public:
  void fold() {
    for (const auto& [name, value] : cosm::obs::snapshot_counters()) {
      counters_[std::string(name)] += value;
    }
    std::vector<cosm::obs::SpanRecord> spans = cosm::obs::snapshot_spans();
    std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
      if (a.thread != b.thread) return a.thread < b.thread;
      if (a.start_us != b.start_us) return a.start_us < b.start_us;
      return a.depth < b.depth;
    });
    std::vector<const cosm::obs::SpanRecord*> stack;
    std::uint32_t thread = 0;
    for (const cosm::obs::SpanRecord& span : spans) {
      if (stack.empty() || span.thread != thread) {
        stack.clear();
        thread = span.thread;
      }
      while (!stack.empty() && stack.back()->depth >= span.depth) {
        stack.pop_back();
      }
      if (!stack.empty() && stack.back()->depth + 1 == span.depth) {
        self_us_[stack.back()->name] -= span.dur_us;
      }
      self_us_[span.name] += span.dur_us;
      stack.push_back(&span);
    }
    cosm::obs::reset();
  }

  double count(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : static_cast<double>(it->second);
  }
  double self_s(const std::string& name) const {
    const auto it = self_us_.find(name);
    return it == self_us_.end() ? 0.0 : it->second * 1e-6;
  }

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> self_us_;
};

double share_pct(double part, double whole) {
  return whole > 0.0 ? 100.0 * part / whole : 0.0;
}

// ---------------------------------------------------------------------------
// Results.

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), {value, std::move(unit)}});
  }
};

// Every workload reports every metric; the layers a workload does not
// exercise report zero.
struct LayerInputs {
  const Ledger* ledger = nullptr;
  double wall_s = 0.0;         // summed operation wall time
  double ops = 0.0;
  bool service = false;        // operations were what-if requests
  double engine_s = 0.0;       // simulator event-loop wall time
};

void add_layer_metrics(Result& result, const LayerInputs& in) {
  const Ledger& l = *in.ledger;
  const double backend_hits = l.count("cache.backend.hit");
  const double backend_lookups = backend_hits + l.count("cache.backend.miss");
  const double cdf_hits = l.count("cache.cdf.hit");
  const double cdf_lookups = cdf_hits + l.count("cache.cdf.miss");
  const double windows = l.count("sim.shard.windows");
  const double per_op = in.ops > 0 ? 1.0 / in.ops : 0.0;
  // Shares are of operation wall time, the clock spans are timed on.
  // Model layers, as self time: building device models (backend from the
  // cache or solved), compiling their response tapes, evaluating CDFs
  // (cache lookups, tape evaluation and Euler inversion), and the
  // bracketing search of quantile queries.  The rest of a request —
  // protocol parsing, spec lookup, serialization — is the service's own.
  const double build = l.self_s("core.device_build");
  const double compile = l.self_s("tape.compile");
  const double eval = l.self_s("core.predict_sla") +
                      l.self_s("core.predict_sla_sweep") +
                      l.self_s("numerics.cdf_many");
  const double search = l.self_s("core.latency_quantile");
  const double service =
      in.service ? in.wall_s - build - compile - eval - search : 0.0;
  result.add("backend_cache_hit_pct", share_pct(backend_hits, backend_lookups),
             "%");
  result.add("cdf_cache_hit_pct", share_pct(cdf_hits, cdf_lookups), "%");
  result.add("tape_compiles_per_op", l.count("tape.compiles") * per_op,
             "count");
  result.add("inversions_per_op", l.count("inversion.calls") * per_op,
             "count");
  result.add("device_build_pct", share_pct(build, in.wall_s), "%");
  result.add("tape_compile_pct", share_pct(compile, in.wall_s), "%");
  result.add("cdf_eval_pct", share_pct(eval, in.wall_s), "%");
  result.add("quantile_search_pct", share_pct(search, in.wall_s), "%");
  result.add("service_other_pct", share_pct(service, in.wall_s), "%");
  // Simulator layers: event dispatch rate inside the event loops, windows
  // a shard crossed with nothing to do, and the replication's set-up share.
  result.add("sim_events_per_engine_s",
             in.engine_s > 0 ? l.count("sim.events") / in.engine_s : 0.0,
             "1/s");
  result.add("shard_empty_window_pct",
             share_pct(l.count("sim.shard.empty_windows"), windows), "%");
  result.add("sim_setup_pct",
             in.engine_s > 0 ? share_pct(in.wall_s - in.engine_s, in.wall_s)
                             : 0.0, "%");
}

void add_end_to_end_metrics(Result& result, const Measured& measured,
                            double setup_s) {
  result.add("p50_ms", quantile(measured.latency_ms, 0.5), "ms");
  result.add("p99_ms", quantile(measured.latency_ms, 0.99), "ms");
  result.add("throughput", measured.work / measured.busy_s, "1/s");
  result.add("setup_s", setup_s, "s");
}

// ---------------------------------------------------------------------------
// What-if service workloads.

struct Tenant {
  std::string name;
  double rate = 0.0;  // total arrival rate, req/s
  unsigned devices = 0;
  double data_miss = 0.0;
};

// Eight tenants with distinct model parameters.  Device counts are fixed
// per slot, so the work per request is the same for every seed; rates and
// miss ratios are seeded, kept at 30-45 req/s per device (disk
// utilization well below saturation, so no what-if is overloaded).
std::vector<Tenant> make_tenants(Rng& rng) {
  std::vector<Tenant> tenants;
  for (unsigned t = 0; t < 8; ++t) {
    Tenant tenant;
    tenant.name = "tenant-" + std::to_string(t);
    tenant.devices = 6 + t % 4;
    tenant.rate = tenant.devices * (30.0 + 15.0 * rng.uniform());
    tenant.data_miss = 0.55 + 0.2 * rng.uniform();
    tenants.push_back(tenant);
  }
  return tenants;
}

std::string register_line(const Tenant& t) {
  return "{\"op\":\"register\",\"cluster\":\"" + t.name + "\",\"rate\":" +
         number(t.rate) + ",\"devices\":" + std::to_string(t.devices) +
         ",\"data_miss\":" + number(t.data_miss) + "}";
}

// The three query shapes an operator asks: a percentile ladder, a single
// SLA attainment, and the p95 latency bound.
std::string query_line(const Tenant& t, int shape, double rate,
                       unsigned devices) {
  const std::string point = ",\"rate\":" + number(rate) +
                            ",\"devices\":" + std::to_string(devices) + "}";
  const std::string head = "{\"op\":\"";
  switch (shape) {
    case 0:
      return head + "sla\",\"cluster\":\"" + t.name +
             "\",\"slas\":[0.05,0.1,0.15,0.25]" + point;
    case 1:
      return head + "sla\",\"cluster\":\"" + t.name + "\",\"sla\":0.1" + point;
    default:
      return head + "quantile\",\"cluster\":\"" + t.name + "\",\"p\":0.95" +
             point;
  }
}

// Baseline what-ifs per tenant: as registered, at 1.2x and 0.8x load, and
// with two more devices — each in all three shapes.
std::vector<std::string> baseline_queries(const std::vector<Tenant>& tenants) {
  std::vector<std::string> queries;
  for (const Tenant& t : tenants) {
    const std::pair<double, unsigned> points[] = {
        {t.rate, t.devices},
        {t.rate * 1.2, t.devices},
        {t.rate * 0.8, t.devices},
        {t.rate, t.devices + 2}};
    for (const auto& [rate, devices] : points) {
      for (int shape = 0; shape < 3; ++shape) {
        queries.push_back(query_line(t, shape, rate, devices));
      }
    }
  }
  return queries;
}

// A valid answer: ok, not overloaded, percentiles in [0, 1] and
// nondecreasing along the ladder, latency bound positive and finite.
bool valid_answer(const std::string& line) {
  const cosm::common::JsonParseResult parsed = cosm::common::json_parse(line);
  if (!parsed.ok) return false;
  const cosm::common::JsonValue& v = parsed.value;
  const cosm::common::JsonValue* ok = v.find("ok");
  const cosm::common::JsonValue* overloaded = v.find("overloaded");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) return false;
  if (overloaded == nullptr || !overloaded->is_bool() ||
      overloaded->as_bool()) {
    return false;
  }
  const auto probability = [](const cosm::common::JsonValue* p) {
    return p != nullptr && p->is_number() && p->as_number() >= 0.0 &&
           p->as_number() <= 1.0;
  };
  if (const auto* ladder = v.find("percentiles")) {
    if (!ladder->is_array() || ladder->items().size() != 4) return false;
    double previous = 0.0;
    for (const auto& p : ladder->items()) {
      if (!probability(&p) || p.as_number() < previous) return false;
      previous = p.as_number();
    }
    return true;
  }
  if (const auto* p = v.find("percentile")) return probability(p);
  const cosm::common::JsonValue* latency = v.find("latency");
  return latency != nullptr && latency->is_number() &&
         std::isfinite(latency->as_number()) && latency->as_number() > 0.0;
}

struct ServiceSetup {
  std::unique_ptr<cosm::service::WhatIfService> service;
  std::vector<std::string> answers;  // cold answers, one per query
  bool ok = true;
};

// Service start-up: a fresh service, every tenant registered, and every
// baseline what-if answered once (cold).
ServiceSetup start_service(const std::vector<Tenant>& tenants,
                           const std::vector<std::string>& queries) {
  ServiceSetup setup;
  setup.service = std::make_unique<cosm::service::WhatIfService>();
  for (const Tenant& t : tenants) {
    const std::string reply = setup.service->handle_line(register_line(t));
    setup.ok = setup.ok && reply.find("\"ok\":true") != std::string::npos;
  }
  for (const std::string& query : queries) {
    setup.answers.push_back(setup.service->handle_line(query));
    setup.ok = setup.ok && valid_answer(setup.answers.back());
  }
  return setup;
}

// Set-up runs this many times, each pinned to the next CPU in turn and
// timed like an operation (CPU time over the reference kernel's, in
// seconds on a host where the kernel takes one millisecond); the median
// is reported and the last one serves the measured phase.
constexpr int kSetupRepeats = 32;

Result run_service(bool hit, std::uint64_t seed, double seconds,
                   bool trace) {
  Rng rng(seed);
  const std::vector<Tenant> tenants = make_tenants(rng);
  const std::vector<std::string> queries = baseline_queries(tenants);

  Result result;
  std::vector<double> setup_times;
  ServiceSetup setup;
  {
    CpuRotation rotation;
    for (int i = 0; i < kSetupRepeats; ++i) {
      setup = ServiceSetup{};  // tear the previous one down untimed
      const double reference_s = rotation.pin(static_cast<std::size_t>(i));
      const double start = thread_cpu_seconds();
      setup = start_service(tenants, queries);
      setup_times.push_back((thread_cpu_seconds() - start) / reference_s *
                            1e-3);
      result.correct = result.correct && setup.ok;
    }
  }

  std::vector<std::size_t> order(queries.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }

  Ledger ledger;
  if (trace) {
    cosm::obs::reset();
    cosm::obs::set_enabled(true);
  }
  std::size_t next = 0;
  std::uint64_t ops = 0;
  std::vector<std::pair<std::string, std::string>> sampled;  // miss recheck
  std::string reply;
  std::string query;
  std::size_t index = 0;
  const auto op = [&] {
    if (hit) {
      index = order[next];
      next = (next + 1) % order.size();
      reply = setup.service->handle_line(queries[index]);
    } else {
      const Tenant& t = tenants[rng.below(tenants.size())];
      const double rate = t.rate * (0.8 + 0.4 * rng.uniform());
      const unsigned devices = t.devices + static_cast<unsigned>(rng.below(3));
      query = query_line(t, static_cast<int>(ops % 3), rate, devices);
      reply = setup.service->handle_line(query);
    }
    return 1.0;
  };
  const auto check = [&](double) {
    ++ops;
    const bool good = hit ? reply == setup.answers[index] : valid_answer(reply);
    if (!good) ++result.failed;
    if (!hit && ops % 64 == 1) sampled.emplace_back(query, reply);
    if (trace && ops % 64 == 0) ledger.fold();
  };
  const Measured measured = measure(seconds, op, check);
  if (trace) {
    ledger.fold();
    cosm::obs::set_enabled(false);
  }

  if (!hit) {
    // Recompute the sampled answers on a freshly started service: the
    // cache-missing path must be deterministic and cache-independent.
    cosm::service::WhatIfService fresh;
    for (const Tenant& t : tenants) fresh.handle_line(register_line(t));
    for (const auto& [q, a] : sampled) {
      if (fresh.handle_line(q) != a) {
        ++result.failed;
        std::cerr << "perfbench: recomputed answer differs for " << q << "\n";
      }
    }
  }

  result.attempted = measured.latency_ms.size();
  result.correct = result.correct && result.failed == 0;
  if (trace) {
    add_layer_metrics(result, {.ledger = &ledger,
                               .wall_s = measured.wall_s,
                               .ops = static_cast<double>(result.attempted),
                               .service = true});
  } else {
    add_end_to_end_metrics(result, measured, median(setup_times));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Sharded simulator workload.

constexpr std::uint32_t kShards = 2;

// The repository's scaled sharding scenario: 256 devices behind 16
// frontend processes, 3-way replicated placement, open-loop Poisson
// arrivals at 10000 req/s (about 40 req/s per device, far from
// saturation, so no request times out): 0.05 s warmup then 0.25 s
// measured, streaming metrics.
cosm::sim::ReplicationPlan sim_plan(unsigned shard_threads) {
  constexpr double kRate = 10000.0;
  cosm::sim::ReplicationPlan plan;
  plan.cluster.device_count = 256;
  plan.cluster.frontend_processes = 16;
  plan.cluster.processes_per_device = 2;
  plan.cluster.shards = kShards;
  plan.catalog.object_count = 20000;
  plan.catalog.size_distribution =
      cosm::workload::default_size_distribution();
  plan.placement = {.partition_count = 1024,
                    .replica_count = 3,
                    .device_count = 256,
                    .seed = 0};
  plan.phases.warmup_rate = kRate;
  plan.phases.warmup_duration = 0.05;
  plan.phases.transition_duration = 0.0;
  plan.phases.benchmark_start_rate = kRate;
  plan.phases.benchmark_end_rate = kRate;
  plan.phases.benchmark_step_duration = 0.25;
  plan.streaming = true;
  plan.shard_threads = shard_threads;
  return plan;
}

bool valid_replication(const cosm::sim::ReplicationResult& r) {
  return r.completed > 0 && r.failures == 0 && r.timeouts == 0 &&
         r.latency_count > 0 && r.q50 > 0.0 && r.q99 >= r.q50;
}

Result run_sim(std::uint64_t seed, double seconds, bool trace) {
  Rng rng(seed);
  const cosm::sim::ReplicationPlan serial = sim_plan(1);

  Result result;
  Ledger ledger;
  if (trace) {
    cosm::obs::reset();
    cosm::obs::set_enabled(true);
  }
  std::vector<double> setup_times;
  double engine_s = 0.0;
  std::uint64_t first_seed = 0;
  std::uint64_t first_fingerprint = 0;
  bool first = true;
  std::uint64_t replication_seed = 0;
  cosm::sim::ReplicationResult r;
  double wall_s = 0.0;
  const auto op = [&] {
    replication_seed = rng.next();
    const Clock::time_point start = Clock::now();
    r = cosm::sim::run_replication(serial, replication_seed);
    wall_s = seconds_since(start);
    return static_cast<double>(r.completed);
  };
  const auto check = [&](double reference_s) {
    // Set-up of a replication: everything but its event loop (catalog,
    // placement, per-shard clusters, and the final metrics merge), as
    // wall time, the clock the event loop is timed on, normalized like
    // an operation.
    const double loop_s = r.engine_wall_ms * 1e-3;
    setup_times.push_back((wall_s - loop_s) / reference_s * 1e-3);
    engine_s += loop_s;
    if (!valid_replication(r)) ++result.failed;
    if (first) {
      first = false;
      first_seed = replication_seed;
      first_fingerprint = r.fingerprint;
    }
    if (trace) ledger.fold();
  };
  const Measured measured = measure(seconds, op, check);
  if (trace) cosm::obs::set_enabled(false);

  const cosm::sim::ReplicationResult threaded =
      cosm::sim::run_replication(sim_plan(0), first_seed);
  if (threaded.fingerprint != first_fingerprint) {
    ++result.failed;
    std::cerr << "perfbench: threaded replication differs from serial\n";
  }

  result.attempted = measured.latency_ms.size();
  result.correct = result.failed == 0;
  if (trace) {
    add_layer_metrics(result, {.ledger = &ledger,
                               .wall_s = measured.wall_s,
                               .ops = static_cast<double>(result.attempted),
                               .engine_s = engine_s});
  } else {
    add_end_to_end_metrics(result, measured, median(setup_times));
  }
  return result;
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value);
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0 &&
         (args.trace == 0 || args.trace == 1);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload <service_hit|service_miss|"
                 "sim_sharded> --seed <n> --seconds <s> --trace <0|1>\n";
    return 2;
  }
  const bool trace = args.trace == 1;
  Result result;
  if (args.workload == "service_hit" || args.workload == "service_miss") {
    result = run_service(args.workload == "service_hit", args.seed,
                         args.seconds, trace);
  } else if (args.workload == "sim_sharded") {
    result = run_sim(args.seed, args.seconds, trace);
  } else {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }

  std::string line = std::string("{\"correct\": ") +
                     (result.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& [name, metric] = result.metrics[i];
    line += (i ? ", \"" : "\"") + name + "\": {\"value\": " +
            number(metric.first) + ", \"unit\": \"" + metric.second + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return 0;
}
