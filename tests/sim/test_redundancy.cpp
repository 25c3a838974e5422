// Redundancy semantics (tail-tolerance extension): hedged GETs, (n,k)
// fan-out reads completing on the k-th arrival, replica-choice
// scheduling, cancel-on-first-complete accounting, and the RequestPool
// refcount/epoch machinery the cancel path leans on.  Suite names carry
// "Redundancy" / "RequestPool" so the TSan CI lane picks them up.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "sim/cluster.hpp"
#include "sim/request.hpp"

namespace cosm::sim {
namespace {

// Deterministic single-path cluster (same shape as the retry tests): a
// healthy request takes 1 + 0.5 + 10 + 8 + 12 ms ~ 31.5 ms end to end.
ClusterConfig redundancy_config(std::uint32_t devices) {
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

TEST(Redundancy, HedgedAttemptWinsAgainstSlowPrimary) {
  // Device 0's disk is 10x slow for the whole run: the primary attempt
  // would respond after ~301.5 ms, the hedge (fired at 50 ms against the
  // healthy replica) after ~81.5 ms.  The hedge must win, the primary
  // must be cancelled, and exactly one sample must be recorded.
  ClusterConfig config = redundancy_config(2);
  config.hedge_delay = 0.05;
  config.faults.disk_slowdown(0, 0.0, 10.0, 10.0);
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
  EXPECT_FALSE(sample.retried);  // a hedge is not a retry
  EXPECT_EQ(sample.device, 1u);  // the hedge's replica won
  EXPECT_EQ(sample.attempts, 2u);
  EXPECT_EQ(sample.hedges, 1u);
  // ~50 ms hedge deadline + the healthy 31.5 ms service.
  EXPECT_NEAR(sample.response_latency, 0.05 + 0.0315, 0.004);

  const OutcomeCounts outcomes = cluster.metrics().outcomes();
  EXPECT_EQ(outcomes.ok, 1u);
  EXPECT_EQ(outcomes.hedge_attempts, 1u);
  EXPECT_EQ(outcomes.hedge_wins, 1u);
  EXPECT_EQ(outcomes.cancelled_attempts, 1u);
  EXPECT_EQ(outcomes.fanout_groups, 0u);  // hedges are lazy groups
  // Attempt accounting: the cancelled primary still counted as load its
  // device saw — the arrival inflation the degraded what-if consumes.
  EXPECT_EQ(cluster.metrics().device(0).attempts, 1u);
  EXPECT_EQ(cluster.metrics().device(1).attempts, 1u);
}

TEST(Redundancy, HedgeDoesNotFireWhenPrimaryMeetsDeadline) {
  // Healthy primary responds in ~31.5 ms, under the 50 ms deadline: no
  // hedge is dispatched and the legacy single-attempt sample shape holds.
  ClusterConfig config = redundancy_config(2);
  config.hedge_delay = 0.05;
  Cluster cluster(config);
  cluster.engine().schedule_at(0.0, [&] {
    cluster.submit_request(1, 1000, std::vector<std::uint32_t>{0, 1}, 0);
  });
  cluster.engine().run_all();

  ASSERT_EQ(cluster.metrics().requests().size(), 1u);
  const RequestSample& sample = cluster.metrics().requests().front();
  EXPECT_EQ(sample.attempts, 1u);
  EXPECT_EQ(sample.hedges, 0u);
  EXPECT_NEAR(sample.response_latency, 0.0315, 0.002);
  const OutcomeCounts outcomes = cluster.metrics().outcomes();
  EXPECT_EQ(outcomes.hedge_attempts, 0u);
  EXPECT_EQ(outcomes.cancelled_attempts, 0u);
  EXPECT_EQ(cluster.metrics().device(1).attempts, 0u);
}

TEST(Redundancy, FanoutCompletesOnKthArrival) {
  // (3,2) coded read over one slow and two healthy replicas: the request
  // completes on the SECOND response, without waiting for the straggler,
  // which is cancelled.
  ClusterConfig config = redundancy_config(3);
  config.fanout_n = 3;
  config.fanout_k = 2;
  config.faults.disk_slowdown(2, 0.0, 10.0, 10.0);
  Cluster cluster(config);
  cluster.engine().schedule_at(0.0, [&] {
    cluster.submit_request(1, 1000, std::vector<std::uint32_t>{0, 1, 2}, 0);
  });
  cluster.engine().run_all();

  ASSERT_EQ(cluster.metrics().completed_requests(), 1u);
  ASSERT_EQ(cluster.metrics().requests().size(), 1u);
  const RequestSample& sample = cluster.metrics().requests().front();
  EXPECT_FALSE(sample.timed_out);
  EXPECT_FALSE(sample.failed);
  EXPECT_FALSE(sample.retried);
  EXPECT_EQ(sample.attempts, 3u);
  EXPECT_EQ(sample.hedges, 0u);
  // The single frontend process serializes the three 1 ms parses; the
  // second healthy replica responds ~2 + 0.5 + 30 ms after arrival —
  // nowhere near the ~302 ms straggler.
  EXPECT_NEAR(sample.response_latency, 0.0325, 0.003);

  const OutcomeCounts outcomes = cluster.metrics().outcomes();
  EXPECT_EQ(outcomes.fanout_groups, 1u);
  EXPECT_EQ(outcomes.cancelled_attempts, 1u);
  EXPECT_EQ(outcomes.hedge_attempts, 0u);
  for (std::uint32_t d = 0; d < 3; ++d) {
    EXPECT_EQ(cluster.metrics().device(d).attempts, 1u) << d;
  }
}

TEST(Redundancy, FanoutGroupFailureIsOneFailedSample) {
  // Every replica is out: both coded attempts die and the group must
  // collapse into exactly one failed sample (never zero, never two).
  ClusterConfig config = redundancy_config(2);
  config.fanout_n = 2;
  config.fanout_k = 1;
  config.faults.device_outage(0, 0.0, 10.0);
  config.faults.device_outage(1, 0.0, 10.0);
  Cluster cluster(config);
  cluster.engine().schedule_at(1.0, [&] {
    cluster.submit_request(1, 1000, std::vector<std::uint32_t>{0, 1}, 0);
  });
  cluster.engine().run_all();

  ASSERT_EQ(cluster.metrics().completed_requests(), 1u);
  ASSERT_EQ(cluster.metrics().requests().size(), 1u);
  const RequestSample& sample = cluster.metrics().requests().front();
  EXPECT_TRUE(sample.failed);
  EXPECT_FALSE(sample.timed_out);
  EXPECT_EQ(sample.attempts, 2u);
  EXPECT_EQ(cluster.metrics().failures(), 1u);
  const OutcomeCounts outcomes = cluster.metrics().outcomes();
  EXPECT_EQ(outcomes.failed, 1u);
  EXPECT_EQ(outcomes.fanout_groups, 1u);
}

TEST(Redundancy, LeastOutstandingSpreadsAcrossReplicas) {
  // Four simultaneous reads, all listing device 0 first.  kPrimary would
  // send all four to device 0; least-outstanding alternates because each
  // dispatch bumps the chosen device's in-flight count.
  ClusterConfig config = redundancy_config(2);
  config.replica_choice = ClusterConfig::ReplicaChoice::kLeastOutstanding;
  Cluster cluster(config);
  cluster.engine().schedule_at(0.0, [&] {
    for (int i = 0; i < 4; ++i) {
      cluster.submit_request(static_cast<std::uint64_t>(i), 1000,
                             std::vector<std::uint32_t>{0, 1}, 0);
    }
  });
  cluster.engine().run_all();

  ASSERT_EQ(cluster.metrics().completed_requests(), 4u);
  EXPECT_EQ(cluster.metrics().device(0).attempts, 2u);
  EXPECT_EQ(cluster.metrics().device(1).attempts, 2u);
  // Everything settled: no attempt left in flight on either device.
  EXPECT_EQ(cluster.outstanding(0), 0u);
  EXPECT_EQ(cluster.outstanding(1), 0u);
}

// Shared bit-determinism harness: run the same seeded faulted workload
// twice and require sample-for-sample bitwise equality.
struct RunResult {
  std::vector<RequestSample> samples;
  std::uint64_t completed = 0;
  OutcomeCounts outcomes;
  std::vector<std::uint64_t> device_attempts;
};

template <typename Configure>
RunResult run_seeded(Configure&& configure) {
  ClusterConfig config = redundancy_config(2);
  config.seed = 2024;
  config.request_timeout = 0.25;
  config.max_retries = 1;
  config.retry_backoff_base = 0.02;
  config.faults.disk_slowdown(0, 0.3, 0.5, 8.0);
  configure(config);
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
  RunResult result;
  result.samples = cluster.metrics().requests();
  result.completed = cluster.metrics().completed_requests();
  result.outcomes = cluster.metrics().outcomes();
  for (std::uint32_t d = 0; d < 2; ++d) {
    result.device_attempts.push_back(cluster.metrics().device(d).attempts);
  }
  return result;
}

void expect_bit_identical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.completed, b.completed);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].response_latency,
              b.samples[i].response_latency)  // bitwise
        << i;
    EXPECT_EQ(a.samples[i].attempts, b.samples[i].attempts) << i;
    EXPECT_EQ(a.samples[i].hedges, b.samples[i].hedges) << i;
    EXPECT_EQ(a.samples[i].device, b.samples[i].device) << i;
  }
  EXPECT_EQ(a.outcomes.hedge_attempts, b.outcomes.hedge_attempts);
  EXPECT_EQ(a.outcomes.cancelled_attempts, b.outcomes.cancelled_attempts);
  EXPECT_EQ(a.outcomes.fanout_groups, b.outcomes.fanout_groups);
  EXPECT_EQ(a.device_attempts, b.device_attempts);
}

TEST(Redundancy, HedgedRunIsBitDeterministicForFixedSeed) {
  const auto configure = [](ClusterConfig& config) {
    config.hedge_delay = 0.04;
    config.replica_choice = ClusterConfig::ReplicaChoice::kPowerOfTwo;
  };
  const RunResult a = run_seeded(configure);
  const RunResult b = run_seeded(configure);
  ASSERT_EQ(a.completed, 200u);
  // The slowdown window actually produced hedges and cancellations, and
  // power-of-two routing touched both devices.
  EXPECT_GT(a.outcomes.hedge_attempts, 0u);
  EXPECT_GT(a.outcomes.cancelled_attempts, 0u);
  EXPECT_GT(a.device_attempts[0], 0u);
  EXPECT_GT(a.device_attempts[1], 0u);
  expect_bit_identical(a, b);
}

TEST(Redundancy, FanoutRunIsBitDeterministicForFixedSeed) {
  const auto configure = [](ClusterConfig& config) {
    config.fanout_n = 2;
    config.fanout_k = 1;
  };
  const RunResult a = run_seeded(configure);
  const RunResult b = run_seeded(configure);
  ASSERT_EQ(a.completed, 200u);
  EXPECT_EQ(a.outcomes.fanout_groups, 200u);
  EXPECT_GT(a.outcomes.cancelled_attempts, 0u);
  expect_bit_identical(a, b);
}

TEST(RequestPool, WeakRefExpiresOnRecycleAndNeverResurrects) {
  RequestPool pool;
  RequestPtr strong = pool.acquire();
  strong->id = 7;
  const Request* slot = strong.get();
  WeakRequestRef weak(strong);
  EXPECT_FALSE(weak.expired());
  {
    const RequestPtr locked = weak.lock();
    ASSERT_TRUE(static_cast<bool>(locked));
    EXPECT_EQ(locked->id, 7u);
  }
  // Dropping the last strong ref recycles the slot; the weak ref must
  // expire with it.
  strong = nullptr;
  EXPECT_TRUE(weak.expired());
  EXPECT_EQ(weak.lock(), nullptr);
  // The slot is re-issued to a NEW request: the stale weak ref must not
  // resurrect it even though the address matches.
  RequestPtr fresh = pool.acquire();
  ASSERT_EQ(fresh.get(), slot);  // the free list reused the slab
  EXPECT_EQ(fresh->id, 0u);      // fields were reset
  EXPECT_TRUE(weak.expired());
  EXPECT_EQ(weak.lock(), nullptr);
  // A weak ref against the new occupant works normally.
  WeakRequestRef current(fresh);
  EXPECT_FALSE(current.expired());
  EXPECT_EQ(current.lock().get(), fresh.get());
}

TEST(RequestPool, LockExtendsLifetimeAcrossLastExternalRelease) {
  // The cancel path's race in miniature: a timer locks its weak ref just
  // as the owner drops the last strong ref.  The locked pointer must keep
  // the request alive (no recycle mid-use), and the recycle must happen
  // exactly once when the lock goes away.
  RequestPool pool;
  RequestPtr strong = pool.acquire();
  strong->id = 11;
  WeakRequestRef weak(strong);
  RequestPtr locked = weak.lock();
  strong = nullptr;  // timer's lock is now the only ref
  ASSERT_TRUE(static_cast<bool>(locked));
  EXPECT_EQ(locked->id, 11u);
  EXPECT_FALSE(weak.expired());  // still the same generation: not recycled
  EXPECT_EQ(pool.idle(), 0u);
  locked = nullptr;
  EXPECT_TRUE(weak.expired());
  EXPECT_EQ(pool.idle(), 1u);  // recycled exactly once
}

TEST(RequestPool, RefcountSurvivesCopyMoveChurn) {
  // Adversarial churn over a small pool: copies, moves, self-assignment,
  // and interleaved weak refs across many recycle generations.  The pool
  // must end balanced (every slot idle, nothing leaked or double-freed)
  // and every weak ref from an earlier generation must be expired.
  RequestPool pool;
  std::vector<WeakRequestRef> stale;
  for (int round = 0; round < 200; ++round) {
    std::vector<RequestPtr> strongs;
    for (int i = 0; i < 8; ++i) {
      strongs.push_back(pool.acquire());
      strongs.back()->id = static_cast<std::uint64_t>(round * 8 + i);
    }
    // Copy churn: duplicate refs, drop originals, keep the copies.
    std::vector<RequestPtr> copies(strongs);
    for (auto& ptr : strongs) ptr = nullptr;
    for (const auto& ptr : copies) {
      stale.emplace_back(ptr);
      EXPECT_FALSE(stale.back().expired());
    }
    // Move churn, including moves onto live slots.
    std::vector<RequestPtr> moved;
    for (auto& ptr : copies) moved.push_back(std::move(ptr));
    moved.front() = moved.back();            // copy-assign over a live ref
    moved.back() = std::move(moved.front()); // move-assign back
    // Releasing everything recycles all 8 slots.
    moved.clear();
    copies.clear();
  }
  EXPECT_EQ(pool.allocated(), 8u);  // the free list was reused every round
  EXPECT_EQ(pool.idle(), 8u);
  for (const auto& weak : stale) {
    EXPECT_TRUE(weak.expired());
    EXPECT_EQ(weak.lock(), nullptr);
  }
}

}  // namespace
}  // namespace cosm::sim
