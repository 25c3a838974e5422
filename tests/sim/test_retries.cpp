// Retry / failover semantics (robustness extension): a retried request is
// counted exactly once with its total latency, the retry budget is
// respected, backoff is deterministic for a fixed seed, and failover moves
// the next attempt to a different replica device.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/cluster.hpp"

namespace cosm::sim {
namespace {

// Same deterministic single-path cluster as the timeout tests: a healthy
// request takes 1 + 0.5 + 10 + 8 + 12 ms ~ 31.5 ms end to end.
ClusterConfig fault_config(std::uint32_t devices) {
  ClusterConfig config;
  config.frontend_processes = 1;
  config.device_count = devices;
  config.processes_per_device = 1;
  config.frontend_parse = std::make_shared<numerics::Degenerate>(0.001);
  config.backend_parse = std::make_shared<numerics::Degenerate>(0.0005);
  config.accept_cost = 0.0;
  config.network_latency = 0.0;
  config.disk = {std::make_shared<numerics::Degenerate>(0.010),
                 std::make_shared<numerics::Degenerate>(0.008),
                 std::make_shared<numerics::Degenerate>(0.012),
                 nullptr, nullptr};
  config.cache.index_miss_ratio = 1.0;
  config.cache.meta_miss_ratio = 1.0;
  config.cache.data_miss_ratio = 1.0;
  return config;
}

TEST(Retries, FailoverCountsOnceWithTotalLatency) {
  // Device 0 is out for the whole run; the first attempt's connection is
  // refused, the retry fails over to device 1 and succeeds.
  ClusterConfig config = fault_config(2);
  config.max_retries = 2;
  config.retry_backoff_base = 0.05;
  config.faults.device_outage(0, 0.0, 10.0);
  Cluster cluster(config);
  cluster.engine().schedule_at(1.0, [&] {
    cluster.submit_request(1, 1000, std::vector<std::uint32_t>{0, 1}, 0);
  });
  cluster.engine().run_all();

  ASSERT_EQ(cluster.metrics().completed_requests(), 1u);
  ASSERT_EQ(cluster.metrics().requests().size(), 1u);
  const RequestSample& sample = cluster.metrics().requests().front();
  EXPECT_FALSE(sample.timed_out);
  EXPECT_FALSE(sample.failed);
  EXPECT_EQ(sample.attempts, 2u);
  EXPECT_EQ(sample.failovers, 1u);
  EXPECT_EQ(sample.device, 1u);  // landed on the replica
  // Total latency spans both attempts: ~1 ms to the refused connection,
  // 50 ms backoff, then the healthy 31.5 ms service.
  EXPECT_NEAR(sample.response_latency, 0.001 + 0.05 + 0.0315, 0.002);

  const OutcomeCounts outcomes = cluster.metrics().outcomes();
  EXPECT_EQ(outcomes.ok, 0u);
  EXPECT_EQ(outcomes.ok_retried, 1u);
  EXPECT_EQ(outcomes.failed, 0u);
  EXPECT_EQ(outcomes.retry_attempts, 1u);
  EXPECT_EQ(outcomes.failover_attempts, 1u);
}

TEST(Retries, BudgetRespectedThenFailedSample) {
  // Single device, permanently out: 1 + max_retries attempts, then one
  // failed sample (counted once, never as a success).
  ClusterConfig config = fault_config(1);
  config.max_retries = 2;
  config.retry_backoff_base = 0.05;
  config.retry_backoff_cap = 1.0;
  config.faults.device_outage(0, 0.0, 100.0);
  Cluster cluster(config);
  cluster.engine().schedule_at(0.0, [&] {
    cluster.submit_request(1, 1000, 0);
  });
  cluster.engine().run_all();

  ASSERT_EQ(cluster.metrics().completed_requests(), 1u);
  const RequestSample& sample = cluster.metrics().requests().front();
  EXPECT_TRUE(sample.failed);
  EXPECT_FALSE(sample.timed_out);
  EXPECT_EQ(sample.attempts, 3u);  // 1 try + 2 retries, budget exhausted
  // Backoffs 50 ms + 100 ms plus three 1 ms frontend parses.
  EXPECT_NEAR(sample.response_latency, 0.003 + 0.05 + 0.1, 0.002);
  EXPECT_EQ(cluster.metrics().failures(), 1u);
  // The retry-inflated arrival accounting saw every attempt.
  EXPECT_EQ(cluster.metrics().device(0).attempts, 3u);
  EXPECT_EQ(cluster.metrics().outcomes().failed, 1u);
  EXPECT_EQ(cluster.metrics().outcomes().retry_attempts, 2u);
}

TEST(Retries, TimeoutTriggeredRetrySucceeds) {
  // A disk slowdown makes the first attempt miss an 80 ms deadline; the
  // retry runs against the healed disk and completes.  The one sample is
  // a success whose latency spans both attempts (> the timeout alone).
  ClusterConfig config = fault_config(1);
  config.request_timeout = 0.080;
  config.max_retries = 2;
  config.retry_backoff_base = 0.05;
  config.faults.disk_slowdown(0, 0.0, 0.01, 10.0);
  Cluster cluster(config);
  cluster.engine().schedule_at(0.0, [&] {
    cluster.submit_request(1, 1000, 0);
  });
  cluster.engine().run_all();

  ASSERT_EQ(cluster.metrics().completed_requests(), 1u);
  const RequestSample& sample = cluster.metrics().requests().front();
  EXPECT_FALSE(sample.timed_out);
  EXPECT_FALSE(sample.failed);
  EXPECT_EQ(sample.attempts, 2u);
  EXPECT_GT(sample.response_latency, config.request_timeout);
  EXPECT_EQ(cluster.metrics().timeouts(), 0u);  // the request recovered
  EXPECT_EQ(cluster.metrics().outcomes().ok_retried, 1u);
}

TEST(Retries, DeterministicForFixedSeed) {
  // Two identical faulted runs (slowdown-driven timeouts, retries,
  // failover) must produce bit-identical samples.
  struct RunResult {
    std::vector<RequestSample> samples;
    std::uint64_t completed = 0;
    std::uint64_t retry_attempts = 0;
  };
  const auto run = [] {
    ClusterConfig config = fault_config(2);
    config.request_timeout = 0.060;
    config.max_retries = 2;
    config.retry_backoff_base = 0.02;
    config.seed = 2024;
    config.faults.disk_slowdown(0, 0.3, 0.5, 8.0);
    Cluster cluster(config);
    cosm::Rng arrivals(9);
    double t = 0.0;
    for (int i = 0; i < 200; ++i) {
      t += arrivals.exponential(50.0);
      const std::uint32_t primary = i % 2 == 0 ? 0u : 1u;
      cluster.engine().schedule_at(t, [&cluster, primary] {
        cluster.submit_request(
            1, 20000, std::vector<std::uint32_t>{0u, 1u}, primary);
      });
    }
    cluster.engine().run_all();
    return RunResult{cluster.metrics().requests(),
                     cluster.metrics().completed_requests(),
                     cluster.metrics().outcomes().retry_attempts};
  };
  const RunResult a = run();
  const RunResult b = run();

  ASSERT_EQ(a.completed, 200u);
  ASSERT_EQ(b.completed, 200u);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].response_latency,
              b.samples[i].response_latency);  // bitwise
    EXPECT_EQ(a.samples[i].attempts, b.samples[i].attempts);
    EXPECT_EQ(a.samples[i].device, b.samples[i].device);
    EXPECT_EQ(a.samples[i].timed_out, b.samples[i].timed_out);
  }
  // The fault actually exercised the retry path in this workload.
  EXPECT_GT(a.retry_attempts, 0u);
}

TEST(Retries, JitteredBackoffStaysInBandAndIsSeedDeterministic) {
  // retry_jitter = 0.5 scales each backoff by a per-seed uniform factor
  // in [0.5, 1]: the two backoffs of this run (bases 50 ms and 100 ms)
  // land in [75 ms, 150 ms] total, and the draw is a pure function of
  // the seed — same seed bit-identical, different seed different.
  const auto run = [](std::uint64_t seed) {
    ClusterConfig config = fault_config(1);
    config.max_retries = 2;
    config.retry_backoff_base = 0.05;
    config.retry_jitter = 0.5;
    config.seed = seed;
    config.faults.device_outage(0, 0.0, 100.0);
    Cluster cluster(config);
    cluster.engine().schedule_at(0.0, [&] {
      cluster.submit_request(1, 1000, 0);
    });
    cluster.engine().run_all();
    return cluster.metrics().requests().front().response_latency;
  };
  const double latency = run(2024);
  // Three 1 ms parses plus the jittered backoffs.
  EXPECT_GE(latency, 0.003 + 0.5 * (0.05 + 0.1) - 1e-9);
  EXPECT_LE(latency, 0.003 + (0.05 + 0.1) + 1e-9);
  EXPECT_EQ(run(2024), latency);  // bitwise reproducible
  EXPECT_NE(run(77), latency);    // the seed actually feeds the jitter
}

TEST(Retries, ZeroJitterKeepsTheExactDeterministicDelays) {
  // jitter = 0 must not draw any RNG: the backoffs are exactly the
  // capped-exponential ladder, bit-identical to a config that never
  // mentions retry_jitter (the legacy runs stay pinned).
  const auto run = [](bool mention_jitter) {
    ClusterConfig config = fault_config(1);
    config.max_retries = 2;
    config.retry_backoff_base = 0.05;
    if (mention_jitter) config.retry_jitter = 0.0;
    config.faults.device_outage(0, 0.0, 100.0);
    Cluster cluster(config);
    cluster.engine().schedule_at(0.0, [&] {
      cluster.submit_request(1, 1000, 0);
    });
    cluster.engine().run_all();
    return cluster.metrics().requests().front().response_latency;
  };
  const double latency = run(true);
  EXPECT_EQ(latency, run(false));  // bitwise
  EXPECT_NEAR(latency, 0.003 + 0.05 + 0.1, 0.002);
}

TEST(Retries, BackoffIsCappedExponential) {
  ClusterConfig config = fault_config(1);
  config.max_retries = 4;
  config.retry_backoff_base = 0.01;
  config.retry_backoff_cap = 0.03;
  config.faults.device_outage(0, 0.0, 100.0);
  Cluster cluster(config);
  cluster.engine().schedule_at(0.0, [&] {
    cluster.submit_request(1, 1000, 0);
  });
  cluster.engine().run_all();
  const RequestSample& sample = cluster.metrics().requests().front();
  EXPECT_EQ(sample.attempts, 5u);
  // Backoffs 10 + 20 + 30 + 30 ms (capped) plus five 1 ms parses.
  EXPECT_NEAR(sample.response_latency, 0.005 + 0.01 + 0.02 + 0.03 + 0.03,
              0.002);
}

}  // namespace
}  // namespace cosm::sim
