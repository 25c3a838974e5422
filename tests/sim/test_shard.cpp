// Sharded simulation: the conservative window protocol must be
// bit-identical between its serial round-robin and its one-thread-per-
// shard execution for a fixed shard count and seed set (the hard gate),
// deterministic across repeats, and its cross-shard metric merge must
// agree with the per-shard aggregates exactly.  Shard-count invariance is
// explicitly NOT promised (docs/PERFORMANCE.md) — different shard counts
// are different, equally valid samples of the same scenario.
#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/obs.hpp"
#include "sim/cluster.hpp"
#include "sim/metrics.hpp"
#include "sim/replication.hpp"
#include "sim/shard.hpp"
#include "workload/catalog.hpp"

namespace {

using cosm::sim::ClusterConfig;
using cosm::sim::ReplicationPlan;
using cosm::sim::ReplicationResult;
using cosm::sim::ReplicationSet;
using cosm::sim::run_replication;
using cosm::sim::run_replications;
using cosm::sim::run_sharded_replication;
using cosm::sim::shard_of_object;
using cosm::sim::shard_window_length;
using cosm::sim::ShardTopology;
using cosm::sim::SimMetrics;

ReplicationPlan sharded_plan(std::uint32_t shards, bool streaming) {
  ReplicationPlan plan;
  plan.seeds = {42, 1042};
  plan.cluster.device_count = 8;
  plan.cluster.frontend_processes = 4;
  plan.cluster.processes_per_device = 2;
  plan.cluster.request_timeout = 0.25;
  plan.cluster.shards = shards;
  plan.catalog.object_count = 2000;
  plan.catalog.size_distribution =
      cosm::workload::default_size_distribution();
  plan.placement = {.partition_count = 256,
                    .replica_count = 2,
                    .device_count = 8,
                    .seed = 0};
  plan.phases.warmup_rate = 60.0;
  plan.phases.warmup_duration = 2.0;
  plan.phases.transition_duration = 0.0;
  plan.phases.benchmark_start_rate = 80.0;
  plan.phases.benchmark_end_rate = 80.0;
  plan.phases.benchmark_step_duration = 8.0;
  plan.streaming = streaming;
  return plan;
}

void expect_identical(const ReplicationResult& a,
                      const ReplicationResult& b) {
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.latency_count, b.latency_count);
  EXPECT_EQ(a.moments.mean(), b.moments.mean());
  EXPECT_EQ(a.moments.variance(), b.moments.variance());
  EXPECT_EQ(a.latencies, b.latencies);
}

TEST(ShardTopology, BalancedContiguousSplit) {
  ClusterConfig config;
  config.device_count = 10;
  config.frontend_processes = 6;
  config.shards = 4;
  const ShardTopology topo = ShardTopology::build(config);
  // 10 devices over 4 shards: earlier shards take the remainder.
  EXPECT_EQ(topo.devices_of(0), 3u);
  EXPECT_EQ(topo.devices_of(1), 3u);
  EXPECT_EQ(topo.devices_of(2), 2u);
  EXPECT_EQ(topo.devices_of(3), 2u);
  EXPECT_EQ(topo.device_offset(0), 0u);
  EXPECT_EQ(topo.device_offset(3), 8u);
  EXPECT_EQ(topo.device_offsets.back(), 10u);
  EXPECT_EQ(topo.min_devices(), 2u);
  EXPECT_EQ(topo.frontends_of(0) + topo.frontends_of(1) +
                topo.frontends_of(2) + topo.frontends_of(3),
            6u);
}

TEST(ShardTopology, ObjectRoutingIsDeterministicAndRoughlyUniform) {
  std::vector<std::uint64_t> counts(4, 0);
  for (std::uint64_t id = 0; id < 40000; ++id) {
    const std::uint32_t owner = shard_of_object(id, 1234567, 4);
    ASSERT_LT(owner, 4u);
    EXPECT_EQ(owner, shard_of_object(id, 1234567, 4));
    ++counts[owner];
  }
  for (const std::uint64_t count : counts) {
    EXPECT_GT(count, 9000u);  // 10000 expected per shard
    EXPECT_LT(count, 11000u);
  }
}

TEST(ShardWindow, DerivationAndOverride) {
  ClusterConfig config;
  config.network_latency = 100e-6;
  // Auto: the 2.5 ms floor dominates a 100 us network hop.
  EXPECT_DOUBLE_EQ(shard_window_length(config), 2.5e-3);
  // A slower network raises the window with it.
  config.network_latency = 5e-3;
  EXPECT_DOUBLE_EQ(shard_window_length(config), 5e-3);
  // An explicit window always wins.
  config.shard_window = 1e-3;
  EXPECT_DOUBLE_EQ(shard_window_length(config), 1e-3);
}

TEST(Shard, SerialBitIdenticalToThreadedSampled) {
  ReplicationPlan plan = sharded_plan(2, /*streaming=*/false);
  plan.shard_threads = 1;
  const ReplicationResult serial = run_replication(plan, 42);
  ASSERT_GT(serial.completed, 100u);
  ASSERT_GT(serial.latency_count, 0u);
  plan.shard_threads = 0;
  expect_identical(serial, run_replication(plan, 42));
}

TEST(Shard, SerialBitIdenticalToThreadedStreaming) {
  ReplicationPlan plan = sharded_plan(2, /*streaming=*/true);
  plan.shard_threads = 1;
  const ReplicationResult serial = run_replication(plan, 42);
  ASSERT_GT(serial.latency_count, 0u);
  EXPECT_TRUE(serial.latencies.empty());
  plan.shard_threads = 0;
  expect_identical(serial, run_replication(plan, 42));
}

TEST(Shard, RepeatRunsAreBitIdenticalPerShardCount) {
  for (const std::uint32_t shards : {2u, 4u}) {
    ReplicationPlan plan = sharded_plan(shards, /*streaming=*/false);
    const ReplicationResult first = run_replication(plan, 42);
    const ReplicationResult second = run_replication(plan, 42);
    ASSERT_GT(first.completed, 0u) << shards << " shards";
    expect_identical(first, second);
  }
}

// Golden fingerprints of sharded runs (sampled mode, serial round-robin,
// seed 42), recorded before the sharded arrival path was folded into
// OpenLoopSource.  Serial == threaded and repeat determinism only compare
// a build with itself; these pin the sharded bits across changes to the
// arrival stream, the window hand-off and the per-shard set-up.  Both
// submit paths are covered: single-device (the plan's defaults) and the
// replica list (retries failing over around an outage of global device 5,
// which sits past shard 0's device range, or a hedge).
struct ShardGoldenScenario {
  const char* name;
  std::uint32_t shards;
  std::uint32_t max_retries;  // > 0 with failover: replica-list submit
  double hedge_delay;         // > 0: replica-list submit
  std::uint64_t expected;
};

// gtest copies the printed parameter into each ctest name; print the
// scenario name, never the struct's bytes (the name pointer moves).
void PrintTo(const ShardGoldenScenario& scenario, std::ostream* os) {
  *os << scenario.name;
}

const ShardGoldenScenario shard_golden_scenarios[] = {
    {"two_shards_single_device", 2, 0, 0.0, 0x77ce18587f5a7077ULL},
    {"four_shards_single_device", 4, 0, 0.0, 0x072d09e0e65b7ef5ULL},
    {"two_shards_failover_list", 2, 1, 0.0, 0xdcc1920583aed2f9ULL},
    {"four_shards_failover_list", 4, 1, 0.0, 0xa2c5ab822714992aULL},
    {"four_shards_hedged_list", 4, 0, 0.04, 0x8c7c95457c0f086bULL},
};

class ShardGolden : public ::testing::TestWithParam<ShardGoldenScenario> {};

TEST_P(ShardGolden, SampledFingerprintMatchesRecording) {
  const ShardGoldenScenario& scenario = GetParam();
  ReplicationPlan plan = sharded_plan(scenario.shards, /*streaming=*/false);
  plan.cluster.max_retries = scenario.max_retries;
  plan.cluster.failover = true;
  plan.cluster.hedge_delay = scenario.hedge_delay;
  if (scenario.max_retries > 0) {
    plan.cluster.faults.device_outage(/*device=*/5, /*start=*/3.0,
                                      /*duration=*/2.0);
  }
  plan.shard_threads = 1;
  const ReplicationResult result = run_sharded_replication(plan, 42);
  ASSERT_GT(result.completed, 100u);
  EXPECT_EQ(result.fingerprint, scenario.expected)
      << scenario.name << ": 0x" << std::hex << result.fingerprint;
}

INSTANTIATE_TEST_SUITE_P(Scenarios, ShardGolden,
                         ::testing::ValuesIn(shard_golden_scenarios),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

TEST(Shard, StreamingMatchesSampledUnderSharding) {
  // Same seeds, same sharded simulation — only the recording differs, so
  // counters and moments (both merged in shard order) agree exactly.
  const ReplicationResult sampled =
      run_replication(sharded_plan(2, /*streaming=*/false), 42);
  const ReplicationResult streaming =
      run_replication(sharded_plan(2, /*streaming=*/true), 42);
  EXPECT_EQ(sampled.completed, streaming.completed);
  EXPECT_EQ(sampled.timeouts, streaming.timeouts);
  EXPECT_EQ(sampled.events, streaming.events);
  EXPECT_EQ(sampled.latency_count, streaming.latency_count);
  EXPECT_EQ(sampled.moments.count(), streaming.moments.count());
  EXPECT_EQ(sampled.moments.mean(), streaming.moments.mean());
  EXPECT_EQ(sampled.moments.variance(), streaming.moments.variance());
}

TEST(Shard, ShardCountsAgreeStatistically) {
  // 1-shard and 4-shard runs are different samples of the same scenario:
  // no bit-identity across shard counts, but the latency distribution
  // must agree within sampling error (the documented invariance story).
  const ReplicationResult one =
      run_replication(sharded_plan(1, /*streaming=*/false), 42);
  const ReplicationResult four =
      run_replication(sharded_plan(4, /*streaming=*/false), 42);
  ASSERT_GT(one.latency_count, 300u);
  ASSERT_GT(four.latency_count, 300u);
  EXPECT_NEAR(four.moments.mean(), one.moments.mean(),
              0.25 * one.moments.mean());
  EXPECT_NEAR(four.q99, one.q99, 0.5 * one.q99);
}

TEST(Shard, RedundancyAndTieringRunUnderSharding) {
  // Hedged requests, power-of-two replica choice, retries, and the SSD
  // tier are all shard-local machinery; under sharding they must keep the
  // serial == threaded bit-identity gate.
  ReplicationPlan plan = sharded_plan(2, /*streaming=*/false);
  plan.cluster.max_retries = 1;
  plan.cluster.retry_jitter = 0.3;
  plan.cluster.hedge_delay = 0.04;
  plan.cluster.replica_choice = ClusterConfig::ReplicaChoice::kPowerOfTwo;
  plan.cluster.tier.enabled = true;
  plan.cluster.tier.capacity_chunks = 4096;
  plan.shard_threads = 1;
  const ReplicationResult serial = run_replication(plan, 42);
  ASSERT_GT(serial.completed, 100u);
  plan.shard_threads = 0;
  expect_identical(serial, run_replication(plan, 42));
}

TEST(Shard, FanoutRunsUnderSharding) {
  ReplicationPlan plan = sharded_plan(2, /*streaming=*/false);
  plan.cluster.fanout_n = 2;
  plan.cluster.fanout_k = 1;
  plan.shard_threads = 1;
  const ReplicationResult serial = run_replication(plan, 42);
  ASSERT_GT(serial.completed, 100u);
  plan.shard_threads = 0;
  expect_identical(serial, run_replication(plan, 42));
}

TEST(Shard, ReplicationSetFanOutMatchesSerial) {
  // shards × replications on the pool: the set-level reduction stays
  // bit-identical to the fully serial path.
  ReplicationPlan plan = sharded_plan(2, /*streaming=*/true);
  plan.shard_threads = 1;
  const ReplicationSet serial = run_replications(plan, 1);
  plan.shard_threads = 0;
  const ReplicationSet threaded = run_replications(plan, 4);
  EXPECT_EQ(serial.fingerprint, threaded.fingerprint);
  EXPECT_EQ(serial.completed, threaded.completed);
  EXPECT_EQ(serial.events, threaded.events);
  EXPECT_EQ(serial.moments.mean(), threaded.moments.mean());
}

TEST(Shard, ObsCountersAccountForWindowsAndCrossTraffic) {
  cosm::obs::reset();
  cosm::obs::set_enabled(true);
  ReplicationPlan plan = sharded_plan(2, /*streaming=*/false);
  const ReplicationResult result = run_replication(plan, 42);
  cosm::obs::set_enabled(false);
  ASSERT_GT(result.completed, 0u);
  // Horizon 10 s at the 2.5 ms default window ~= 4000 windows per shard
  // (float fence accumulation may add one window per shard).
  const std::uint64_t windows =
      cosm::obs::counter_value(cosm::obs::Counter::kSimShardWindows);
  EXPECT_GE(windows, 8000u);
  EXPECT_LE(windows, 8004u);
  // With 2000 objects hash-routed over 2 shards, roughly half of each
  // shard's arrivals cross; the exact count is deterministic, nonzero.
  EXPECT_GT(cosm::obs::counter_value(
                cosm::obs::Counter::kSimShardCrossMessages),
            100u);
  // Warmup+benchmark arrivals at 60-80 rps leave many 2.5 ms windows
  // empty on each shard — the wasted-lookahead signal.
  EXPECT_GT(cosm::obs::counter_value(
                cosm::obs::Counter::kSimShardEmptyWindows),
            0u);
  cosm::obs::reset();
}

TEST(ShardMetrics, MergeFromRemapsDevicesAndSumsCounters) {
  SimMetrics merged(4);
  SimMetrics shard0(2);
  SimMetrics shard1(2);
  cosm::sim::RequestSample sample;
  sample.device = 1;
  sample.response_latency = 0.010;
  shard0.on_request_complete(sample);
  sample.response_latency = 0.020;
  sample.timed_out = true;
  shard1.on_request_complete(sample);
  shard1.on_attempt(0, /*is_retry=*/true, /*is_failover=*/false);
  shard1.on_disk_op(1, cosm::sim::AccessKind::kData, 0.004);

  merged.merge_from(shard0, 0);
  merged.merge_from(shard1, 2);
  EXPECT_EQ(merged.completed_requests(), 2u);
  EXPECT_EQ(merged.timeouts(), 1u);
  EXPECT_EQ(merged.latency_count(), 1u);
  // Device ids remap by each shard's offset: shard1's device 1 -> 3.
  EXPECT_EQ(merged.device(1).requests, 1u);
  EXPECT_EQ(merged.device(3).requests, 1u);
  EXPECT_EQ(merged.device(2).attempts, 1u);
  EXPECT_DOUBLE_EQ(merged.mean_disk_service(3, cosm::sim::AccessKind::kData),
                   0.004);
  ASSERT_EQ(merged.requests().size(), 2u);
  EXPECT_EQ(merged.requests()[0].device, 1u);
  EXPECT_EQ(merged.requests()[1].device, 3u);
}

TEST(ShardMetrics, MergeFromRejectsMismatchedModesAndRanges) {
  SimMetrics sampled(2);
  SimMetrics streaming(2);
  streaming.enable_streaming();
  EXPECT_THROW(sampled.merge_from(streaming, 0), std::invalid_argument);
  SimMetrics small(2);
  SimMetrics wide(4);
  EXPECT_THROW(small.merge_from(wide, 0), std::invalid_argument);
  EXPECT_THROW(small.merge_from(small, 1), std::invalid_argument);
}

// ----- ClusterConfig::validate coverage for the shard topology fields -----

TEST(ShardValidate, RejectsMoreShardsThanDevices) {
  ClusterConfig config;
  config.device_count = 4;
  config.frontend_processes = 8;
  config.shards = 8;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(ShardValidate, RejectsMoreShardsThanFrontends) {
  ClusterConfig config;
  config.device_count = 16;
  config.frontend_processes = 3;
  config.shards = 4;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(ShardValidate, RejectsZeroLookahead) {
  ClusterConfig config;
  config.device_count = 8;
  config.frontend_processes = 4;
  config.shards = 2;
  config.network_latency = 0.0;
  config.shard_window = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  // Either a network hop or an explicit window restores a valid lookahead.
  config.shard_window = 1e-3;
  EXPECT_NO_THROW(config.validate());
  config.shard_window = 0.0;
  config.network_latency = 100e-6;
  EXPECT_NO_THROW(config.validate());
}

TEST(ShardValidate, RejectsShardCountBeyondSeedLanes) {
  ClusterConfig config;
  config.device_count = 256;
  config.frontend_processes = 128;
  config.shards = 65;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.shards = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(ShardValidate, AcceptsTieredHedgedFanoutTopologies) {
  // The redundancy and tiering knobs stay shard-local, so sharded configs
  // accept them; hedging and fan-out remain mutually exclusive exactly as
  // in the unsharded validate.
  ClusterConfig config;
  config.device_count = 8;
  config.frontend_processes = 4;
  config.shards = 2;
  config.hedge_delay = 0.05;
  config.tier.enabled = true;
  config.tier.capacity_chunks = 1024;
  EXPECT_NO_THROW(config.validate());
  config.hedge_delay = 0.0;
  config.fanout_n = 2;
  config.fanout_k = 1;
  EXPECT_NO_THROW(config.validate());
  config.hedge_delay = 0.05;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(ShardValidate, ClusterItselfRejectsShardedConfigs) {
  ClusterConfig config;
  config.device_count = 8;
  config.frontend_processes = 4;
  config.shards = 2;
  EXPECT_THROW(cosm::sim::Cluster cluster(config), std::invalid_argument);
}

TEST(ShardValidate, RejectsReplicaSetsWiderThanAShard) {
  // 8 devices over 4 shards = 2 devices per shard; a 3-replica set cannot
  // stay shard-local.
  ReplicationPlan plan = sharded_plan(4, /*streaming=*/false);
  plan.placement.replica_count = 3;
  EXPECT_THROW(run_sharded_replication(plan, 42), std::invalid_argument);
}

}  // namespace
