// Golden-trace guard for the simulator hot path.
//
// The engine / request-pool / callback overhaul must not change *any*
// simulated behaviour: for a fixed seed, the per-request latency samples
// (and their companion fields) have to stay bit-identical to the pre-
// overhaul simulator.  This test replays scaled-down versions of the
// figure/table bench scenarios — same seed derivation as
// bench/common/experiment.cpp's run_point (cluster seed s, catalog s+1,
// placement s+2, source s+3), same S1/S16 process counts, same timeout —
// and folds every retained RequestSample into a 64-bit fingerprint that
// was generated from the seed-state build of this repository.
//
// If an engine or entity change breaks a fingerprint, event order (and
// therefore the validation data behind every figure and table) changed.
// Regenerate only for *intentional* semantic changes:
//   g++ -O2 -std=c++20 -DCOSM_GOLDEN_GENERATE -I src
//       tests/sim/test_golden_trace.cpp <cosm libs>   (one command line)
#include <bit>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/source.hpp"

#ifndef COSM_GOLDEN_GENERATE
#include <gtest/gtest.h>
#endif

namespace {

// SplitMix64 finalizer as an order-sensitive fold; self-contained so the
// generator and the test cannot drift apart.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t z = h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

struct GoldenScenario {
  const char* name;
  std::uint32_t processes_per_device;  // 1 = S1, 16 = S16
  double rate;                         // system arrivals/s
  std::uint64_t seed;                  // run_point's derived bench seed
  std::uint64_t expected;              // fingerprint from the seed build
};

// Seeds follow the figure-bench formula config.seed + 1000 * (i + 1) with
// the ICPP'17 base seed, plus the ClusterConfig default seed 42.  Dwell is
// scaled (5 s warmup + 20 s measure) so the whole suite stays fast; any
// event-order change shows up within a few thousand requests.
std::uint64_t golden_fingerprint(const GoldenScenario& scenario) {
  cosm::sim::ClusterConfig config;
  config.device_count = 4;
  config.processes_per_device = scenario.processes_per_device;
  config.request_timeout = 0.25;
  config.seed = scenario.seed;
  cosm::sim::Cluster cluster(config);

  cosm::workload::CatalogConfig cat_config;
  cat_config.object_count = 20000;
  cat_config.size_distribution = cosm::workload::default_size_distribution();
  cat_config.seed = scenario.seed + 1;
  const cosm::workload::ObjectCatalog catalog(cat_config);
  const cosm::workload::Placement placement({.partition_count = 1024,
                                             .replica_count = 3,
                                             .device_count = 4,
                                             .seed = scenario.seed + 2});

  cosm::workload::PhasePlan plan;
  plan.warmup_rate = scenario.rate;
  plan.warmup_duration = 5.0;
  plan.transition_duration = 0.0;
  plan.benchmark_start_rate = scenario.rate;
  plan.benchmark_end_rate = scenario.rate;
  plan.benchmark_step_duration = 20.0;

  cosm::sim::OpenLoopSource source(cluster, catalog, placement, plan,
                                   cosm::Rng(scenario.seed + 3));
  cluster.metrics().sample_start_time = source.benchmark_start_time();
  source.start();
  cluster.engine().run_until(source.horizon());
  cluster.engine().run_all();

  std::uint64_t h = 0x243F6A8885A308D3ULL;  // pi, for no reason but fixity
  for (const auto& sample : cluster.metrics().requests()) {
    h = mix(h, bits(sample.response_latency));
    h = mix(h, bits(sample.backend_latency));
    h = mix(h, bits(sample.accept_wait));
    h = mix(h, bits(sample.frontend_arrival));
    h = mix(h, (static_cast<std::uint64_t>(sample.device) << 32) |
                   (static_cast<std::uint64_t>(sample.chunks) << 8) |
                   (sample.timed_out ? 2u : 0u) | (sample.failed ? 1u : 0u));
  }
  h = mix(h, cluster.metrics().requests().size());
  h = mix(h, cluster.metrics().timeouts());
  return h;
}

constexpr std::uint64_t kBase = 20170813;  // the figure benches' seed

GoldenScenario golden_scenarios[] = {
    {"S1_light", 1, 80.0, kBase + 1000, 0x47a38b674b526642ULL},
    {"S1_busy", 1, 200.0, kBase + 2000, 0x6db672698f5c3631ULL},
    {"S16_mid", 16, 150.0, kBase + 3000, 0xff51f280ea63e2f5ULL},
    {"default_seed", 4, 150.0, 42, 0xb22837c70cf8bf1eULL},
};

}  // namespace

#ifdef COSM_GOLDEN_GENERATE
int main() {
  for (auto& scenario : golden_scenarios) {
    std::printf("    {\"%s\", %u, %.1f, %lluULL, 0x%016llxULL},\n",
                scenario.name, scenario.processes_per_device, scenario.rate,
                static_cast<unsigned long long>(scenario.seed),
                static_cast<unsigned long long>(golden_fingerprint(scenario)));
  }
  return 0;
}
#else
namespace {

// gtest copies the printed parameter into each ctest name; the default
// byte dump would carry the name pointer, which moves with address-space
// randomisation, so print the scenario name.
void PrintTo(const GoldenScenario& scenario, std::ostream* os) {
  *os << scenario.name;
}

}  // namespace

class GoldenTrace : public ::testing::TestWithParam<GoldenScenario> {};

TEST_P(GoldenTrace, LatencySamplesBitIdenticalToSeedBuild) {
  const GoldenScenario& scenario = GetParam();
  EXPECT_EQ(golden_fingerprint(scenario), scenario.expected)
      << "scenario " << scenario.name
      << ": per-request latency samples diverged from the seed build; "
         "the engine/request-pool overhaul changed simulated behaviour";
}

INSTANTIATE_TEST_SUITE_P(Scenarios, GoldenTrace,
                         ::testing::ValuesIn(golden_scenarios),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });
#endif
