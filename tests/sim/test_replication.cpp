// Parallel replications must be BIT-identical to the serial path for any
// thread count: every replication owns its cluster and result slot, and
// reductions run in plan order on the caller.  This test runs the same
// plan serially and with 2 and 8 threads and compares fingerprints and
// merged statistics exactly.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "sim/replication.hpp"
#include "workload/catalog.hpp"

namespace {

using cosm::sim::ReplicationPlan;
using cosm::sim::ReplicationSet;
using cosm::sim::run_replication;
using cosm::sim::run_replications;

ReplicationPlan small_plan(bool streaming) {
  ReplicationPlan plan;
  plan.seeds = {42, 1042, 2042, 3042, 4042, 5042};
  plan.cluster.device_count = 2;
  plan.cluster.processes_per_device = 2;
  plan.cluster.request_timeout = 0.25;
  plan.catalog.object_count = 2000;
  plan.catalog.size_distribution =
      cosm::workload::default_size_distribution();
  plan.placement = {.partition_count = 256,
                    .replica_count = 2,
                    .device_count = 2,
                    .seed = 0};
  plan.phases.warmup_rate = 60.0;
  plan.phases.warmup_duration = 2.0;
  plan.phases.transition_duration = 0.0;
  plan.phases.benchmark_start_rate = 60.0;
  plan.phases.benchmark_end_rate = 60.0;
  plan.phases.benchmark_step_duration = 8.0;
  plan.streaming = streaming;
  return plan;
}

void expect_identical(const ReplicationSet& a, const ReplicationSet& b) {
  ASSERT_EQ(a.replications.size(), b.replications.size());
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.latency_count, b.latency_count);
  // Merged moments are float reductions; plan-order merging makes even
  // their rounding error identical.
  EXPECT_EQ(a.moments.count(), b.moments.count());
  EXPECT_EQ(a.moments.mean(), b.moments.mean());
  EXPECT_EQ(a.moments.variance(), b.moments.variance());
  for (std::size_t i = 0; i < a.replications.size(); ++i) {
    EXPECT_EQ(a.replications[i].fingerprint, b.replications[i].fingerprint)
        << "replication " << i;
    EXPECT_EQ(a.replications[i].seed, b.replications[i].seed);
    EXPECT_EQ(a.replications[i].latencies, b.replications[i].latencies);
  }
}

TEST(Replication, ParallelBitIdenticalToSerialSampled) {
  const ReplicationPlan plan = small_plan(/*streaming=*/false);
  const ReplicationSet serial = run_replications(plan, 1);
  ASSERT_GT(serial.completed, 0u);
  ASSERT_GT(serial.latency_count, 0u);
  expect_identical(serial, run_replications(plan, 2));
  expect_identical(serial, run_replications(plan, 8));
}

TEST(Replication, ParallelBitIdenticalToSerialStreaming) {
  const ReplicationPlan plan = small_plan(/*streaming=*/true);
  const ReplicationSet serial = run_replications(plan, 1);
  ASSERT_GT(serial.latency_count, 0u);
  // Streaming drops raw samples but its fingerprint still pins the run.
  EXPECT_TRUE(serial.replications.front().latencies.empty());
  expect_identical(serial, run_replications(plan, 2));
  expect_identical(serial, run_replications(plan, 8));
}

TEST(Replication, HedgedParallelBitIdenticalToSerial) {
  // Redundancy extension: hedged GETs + power-of-two replica choice +
  // jittered retries exercise the cancel-on-first-complete machinery in
  // every replication.  Bit-identity across {1, 2, 8} threads must hold
  // exactly as it does for the plain plan.
  ReplicationPlan plan = small_plan(/*streaming=*/false);
  plan.cluster.request_timeout = 0.25;
  plan.cluster.max_retries = 1;
  plan.cluster.retry_jitter = 0.3;
  plan.cluster.hedge_delay = 0.04;
  plan.cluster.replica_choice =
      cosm::sim::ClusterConfig::ReplicaChoice::kPowerOfTwo;
  const ReplicationSet serial = run_replications(plan, 1);
  ASSERT_GT(serial.completed, 0u);
  ASSERT_GT(serial.latency_count, 0u);
  expect_identical(serial, run_replications(plan, 2));
  expect_identical(serial, run_replications(plan, 8));
}

TEST(Replication, SingleReplicationMatchesSetSlot) {
  const ReplicationPlan plan = small_plan(/*streaming=*/false);
  const ReplicationSet set = run_replications(plan, 2);
  const auto solo = run_replication(plan, plan.seeds[3]);
  EXPECT_EQ(solo.fingerprint, set.replications[3].fingerprint);
  EXPECT_EQ(solo.latencies, set.replications[3].latencies);
}

TEST(Replication, StreamingAndSampledAgreeOnCounters) {
  const ReplicationSet sampled =
      run_replications(small_plan(/*streaming=*/false), 1);
  const ReplicationSet streaming =
      run_replications(small_plan(/*streaming=*/true), 1);
  // Same seeds, same simulation — only the recording differs.
  EXPECT_EQ(sampled.completed, streaming.completed);
  EXPECT_EQ(sampled.timeouts, streaming.timeouts);
  EXPECT_EQ(sampled.events, streaming.events);
  EXPECT_EQ(sampled.latency_count, streaming.latency_count);
  EXPECT_EQ(sampled.moments.count(), streaming.moments.count());
  EXPECT_EQ(sampled.moments.mean(), streaming.moments.mean());
}

// A plan with the popularity key (object_count, zipf_skew) and shard
// count given; everything else is small_plan's.
ReplicationPlan keyed_plan(std::uint64_t object_count, double zipf_skew,
                           std::uint32_t shards) {
  ReplicationPlan plan = small_plan(/*streaming=*/false);
  plan.seeds = {42};
  plan.catalog.object_count = object_count;
  plan.catalog.zipf_skew = zipf_skew;
  plan.cluster.device_count = 4;
  plan.cluster.frontend_processes = 2;
  plan.cluster.shards = shards;
  plan.placement.device_count = 4;
  return plan;
}

// The popularity memo keeps one key at a time; plans with other keys in
// between (a different size, then only a different skew) must leave plan
// B's result untouched.
TEST(Replication, PopularityMemoFollowsPlanKey) {
  for (const std::uint32_t shards : {1u, 2u}) {
    const ReplicationPlan b = keyed_plan(3000, 1.1, shards);
    const auto first = run_replication(b, 42);
    const auto other_size = run_replication(keyed_plan(2000, 0.9, shards), 42);
    const auto other_skew = run_replication(keyed_plan(3000, 0.9, shards), 42);
    const auto again = run_replication(b, 42);
    EXPECT_EQ(again.fingerprint, first.fingerprint) << shards << " shards";
    EXPECT_EQ(again.latencies, first.latencies) << shards << " shards";
    EXPECT_NE(other_size.fingerprint, first.fingerprint);
    EXPECT_NE(other_skew.fingerprint, first.fingerprint);
  }
}

TEST(Replication, PopularityMemoHoldsOneTable) {
  using cosm::sim::detail::shared_popularity;
  const auto table = shared_popularity(3000, 1.1);
  EXPECT_EQ(table->size(), 3000u);
  EXPECT_EQ(table->skew(), 1.1);
  EXPECT_EQ(shared_popularity(3000, 1.1), table);  // a hit shares it
  EXPECT_EQ(table.use_count(), 2);                 // this test + the memo
  const auto other = shared_popularity(3000, 0.9);
  EXPECT_NE(other, table);
  EXPECT_EQ(table.use_count(), 1);  // a new key released the old table
  EXPECT_EQ(other.use_count(), 2);
}

}  // namespace
