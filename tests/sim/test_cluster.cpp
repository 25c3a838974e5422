// End-to-end cluster tests.
//
// The deterministic timing test is the anchor: with Degenerate parse and
// disk distributions and a single request, the exact response latency is a
// pencil-and-paper sum of the configured constants, so any drift in the
// request pipeline (missing latency hop, wrong blocking semantics, chunk
// pacing bug) shows up as an exact-value failure.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/source.hpp"

namespace cosm::sim {
namespace {

ClusterConfig deterministic_config() {
  ClusterConfig config;
  config.frontend_processes = 1;
  config.device_count = 1;
  config.processes_per_device = 1;
  config.frontend_parse = std::make_shared<numerics::Degenerate>(0.001);
  config.backend_parse = std::make_shared<numerics::Degenerate>(0.0005);
  config.accept_cost = 0.0001;
  config.network_latency = 0.0002;
  config.network_bandwidth_bytes_per_sec = 1e8;
  config.chunk_bytes = 65536;
  config.disk = {std::make_shared<numerics::Degenerate>(0.010),
                 std::make_shared<numerics::Degenerate>(0.008),
                 std::make_shared<numerics::Degenerate>(0.012),
                 nullptr, nullptr};
  config.cache.mode = CacheBankConfig::Mode::kProbabilistic;
  config.cache.index_miss_ratio = 1.0;  // every op hits the disk
  config.cache.meta_miss_ratio = 1.0;
  config.cache.data_miss_ratio = 1.0;
  return config;
}

TEST(Cluster, SingleRequestDeterministicTimeline) {
  Cluster cluster(deterministic_config());
  cluster.engine().schedule_at(0.0, [&] {
    cluster.submit_request(/*object_id=*/1, /*size_bytes=*/1000,
                           /*device=*/0);
  });
  cluster.engine().run_all();
  ASSERT_EQ(cluster.metrics().completed_requests(), 1u);
  const RequestSample& sample = cluster.metrics().requests().front();
  // Timeline: frontend parse (1 ms) + connect latency (0.2 ms)
  //   -> pool; idle process accepts immediately (wait 0)
  //   -> 2 network latencies (0.4 ms) to deliver the HTTP request
  //   -> backend parse (0.5 ms) + index (10 ms) + meta (8 ms)
  //      + first-chunk read (12 ms)
  //   -> response start + network latency (0.2 ms) back to the frontend.
  const double expected = 0.001 + 0.0002 + 0.0004 + 0.0005 + 0.010 + 0.008 +
                          0.012 + 0.0002;
  EXPECT_NEAR(sample.response_latency, expected, 1e-9);
  EXPECT_NEAR(sample.accept_wait, 0.0, 1e-9);
  EXPECT_NEAR(sample.backend_latency, 0.0005 + 0.010 + 0.008 + 0.012, 1e-9);
  EXPECT_EQ(sample.chunks, 1u);
}

TEST(Cluster, ChunkedObjectIssuesOneDataReadPerChunk) {
  ClusterConfig config = deterministic_config();
  Cluster cluster(config);
  // 150 KB at 64 KiB chunks => 3 chunks.
  cluster.engine().schedule_at(0.0, [&] {
    cluster.submit_request(1, 150 * 1000, 0);
  });
  cluster.engine().run_all();
  const auto& device = cluster.metrics().device(0);
  EXPECT_EQ(device.data_reads, 3u);
  EXPECT_EQ(device.accesses[0], 1u);  // one index lookup
  EXPECT_EQ(device.accesses[1], 1u);  // one metadata read
  EXPECT_EQ(device.accesses[2], 3u);  // three data reads
  ASSERT_EQ(cluster.metrics().requests().size(), 1u);
  EXPECT_EQ(cluster.metrics().requests().front().chunks, 3u);
}

TEST(Cluster, ChunkReadsArePacedByTransmission) {
  // With a slow link the second chunk read cannot start before the first
  // chunk's transfer completes: total busy-time separation shows up in the
  // final clock.
  ClusterConfig config = deterministic_config();
  config.network_bandwidth_bytes_per_sec = 65536.0;  // 1 chunk/second
  Cluster cluster(config);
  cluster.engine().schedule_at(0.0, [&] {
    cluster.submit_request(1, 2 * 65536, 0);  // exactly 2 chunks
  });
  cluster.engine().run_all();
  // The run cannot end before the first transfer (1 s) plus the second
  // chunk's disk read and transfer (1 s).
  EXPECT_GT(cluster.engine().now(), 2.0);
  EXPECT_EQ(cluster.metrics().device(0).data_reads, 2u);
}

TEST(Cluster, AllCacheHitsSkipTheDisk) {
  ClusterConfig config = deterministic_config();
  config.cache.index_miss_ratio = 0.0;
  config.cache.meta_miss_ratio = 0.0;
  config.cache.data_miss_ratio = 0.0;
  Cluster cluster(config);
  for (int i = 0; i < 10; ++i) {
    cluster.engine().schedule_at(0.1 * i, [&] {
      cluster.submit_request(1, 1000, 0);
    });
  }
  cluster.engine().run_all();
  EXPECT_EQ(cluster.metrics().completed_requests(), 10u);
  EXPECT_EQ(cluster.device(0).disk().ops_completed(), 0u);
  // Response = parse costs + network only: well under a millisecond budget
  // of 2.5 ms.
  for (const auto& sample : cluster.metrics().requests()) {
    EXPECT_LT(sample.response_latency, 0.0025);
  }
}

TEST(Cluster, AcceptWaitGrowsWhenProcessIsBusy) {
  // Saturate the single process with a long first request, then send a
  // second: its connection sits in the pool until the op queue drains the
  // accept (paper Sec. III-C).
  Cluster cluster(deterministic_config());
  cluster.engine().schedule_at(0.0, [&] {
    cluster.submit_request(1, 65536 * 2, 0);
  });
  cluster.engine().schedule_at(0.005, [&] {
    cluster.submit_request(2, 1000, 0);
  });
  cluster.engine().run_all();
  ASSERT_EQ(cluster.metrics().completed_requests(), 2u);
  // The second-arriving request is the one with nonzero accept wait.
  double max_wait = 0.0;
  for (const auto& sample : cluster.metrics().requests()) {
    max_wait = std::max(max_wait, sample.accept_wait);
  }
  // It must wait at least for the in-flight disk op to finish.
  EXPECT_GT(max_wait, 0.005);
}

TEST(Cluster, MultiProcessDeviceAllowsConcurrentDiskWaiters) {
  // With N_be = 4 and all-miss caches, four requests should overlap their
  // disk queueing: the makespan is far below the serial sum, but the disk
  // itself still serializes (FCFS) so it is at least the busy time.
  ClusterConfig config = deterministic_config();
  config.processes_per_device = 4;
  Cluster cluster(config);
  cluster.engine().schedule_at(0.0, [&] {
    for (int i = 0; i < 4; ++i) cluster.submit_request(i, 1000, 0);
  });
  cluster.engine().run_all();
  EXPECT_EQ(cluster.metrics().completed_requests(), 4u);
  // Serial execution would need 4 * 30 ms of disk plus overheads; the
  // pipelined disk queue finishes the last *response* once its first
  // chunk is read.  All 4 requests' 12 ops serialize on the disk: total
  // busy 120 ms; but responses complete by then.
  EXPECT_NEAR(cluster.device(0).disk().busy_time(), 0.120, 1e-9);
  // With one process they could not have overlapped: check the makespan
  // is clearly below serial end-to-end (4 * ~31 ms sequential with no
  // overlap between queueing and disk).
  EXPECT_LT(cluster.engine().now(), 0.125 + 0.01);
}

TEST(Cluster, OpenLoopSourceDrivesExpectedThroughput) {
  ClusterConfig config = deterministic_config();
  config.cache.index_miss_ratio = 0.2;
  config.cache.meta_miss_ratio = 0.2;
  config.cache.data_miss_ratio = 0.4;
  Cluster cluster(config);

  workload::CatalogConfig cat_config;
  cat_config.object_count = 2000;
  cat_config.size_distribution = workload::default_size_distribution();
  cat_config.seed = 3;
  const workload::ObjectCatalog catalog(cat_config);
  const workload::Placement placement({.partition_count = 64,
                                       .replica_count = 1,
                                       .device_count = 1,
                                       .seed = 9});
  workload::PhasePlan plan;
  plan.warmup_rate = 10.0;
  plan.warmup_duration = 5.0;
  plan.transition_duration = 0.0;
  plan.benchmark_start_rate = 20.0;
  plan.benchmark_end_rate = 20.0;
  plan.benchmark_step_duration = 20.0;

  OpenLoopSource source(cluster, catalog, placement, plan, cosm::Rng(5));
  cluster.metrics().sample_start_time = source.benchmark_start_time();
  source.start();
  cluster.engine().run_until(source.horizon());
  cluster.engine().run_all();  // drain in-flight requests

  // ~ 10*5 + 20*20 = 450 arrivals.
  EXPECT_NEAR(static_cast<double>(source.arrivals()), 450.0, 70.0);
  EXPECT_EQ(cluster.metrics().completed_requests(), source.arrivals());
  // Only benchmark-phase samples were retained.
  for (const auto& sample : cluster.metrics().requests()) {
    EXPECT_GE(sample.frontend_arrival, 5.0);
  }
  EXPECT_GT(cluster.metrics().requests().size(), 250u);
}

TEST(Cluster, LruModeProducesEmergentMissRatios) {
  ClusterConfig config = deterministic_config();
  config.cache.mode = CacheBankConfig::Mode::kLru;
  config.cache.index_entries = 200;
  config.cache.meta_entries = 200;
  config.cache.data_chunks = 100;
  Cluster cluster(config);

  workload::CatalogConfig cat_config;
  cat_config.object_count = 2000;
  cat_config.zipf_skew = 1.1;
  cat_config.size_distribution = workload::default_size_distribution();
  cat_config.seed = 3;
  const workload::ObjectCatalog catalog(cat_config);
  const workload::Placement placement({.partition_count = 64,
                                       .replica_count = 1,
                                       .device_count = 1,
                                       .seed = 9});
  workload::PhasePlan plan;
  plan.warmup_rate = 20.0;
  plan.warmup_duration = 30.0;
  plan.transition_duration = 0.0;
  plan.benchmark_start_rate = 10.0;
  plan.benchmark_end_rate = 10.0;
  plan.benchmark_step_duration = 30.0;

  OpenLoopSource source(cluster, catalog, placement, plan, cosm::Rng(5));
  source.start();
  cluster.engine().run_until(source.horizon());
  cluster.engine().run_all();

  const double index_miss =
      cluster.metrics().miss_ratio(0, AccessKind::kIndex);
  // The cache holds 10% of objects but Zipf skew concentrates traffic, so
  // the emergent miss ratio must be strictly between the extremes.
  EXPECT_GT(index_miss, 0.05);
  EXPECT_LT(index_miss, 0.95);
}

TEST(Cluster, DeterministicAcrossRuns) {
  auto run_once = [] {
    Cluster cluster(deterministic_config());
    workload::CatalogConfig cat_config;
    cat_config.object_count = 500;
    cat_config.size_distribution = workload::default_size_distribution();
    cat_config.seed = 3;
    const workload::ObjectCatalog catalog(cat_config);
    const workload::Placement placement({.partition_count = 16,
                                         .replica_count = 1,
                                         .device_count = 1,
                                         .seed = 9});
    workload::PhasePlan plan;
    plan.warmup_duration = 0.0;
    plan.transition_duration = 0.0;
    plan.benchmark_start_rate = 15.0;
    plan.benchmark_end_rate = 15.0;
    plan.benchmark_step_duration = 20.0;
    OpenLoopSource source(cluster, catalog, placement, plan, cosm::Rng(5));
    source.start();
    cluster.engine().run_until(source.horizon());
    cluster.engine().run_all();
    double checksum = 0.0;
    for (const auto& sample : cluster.metrics().requests()) {
      checksum += sample.response_latency;
    }
    return std::make_pair(cluster.metrics().completed_requests(), checksum);
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);  // bitwise-identical latencies
}

// OpenLoopSource hands a replica list to the cluster when retries may fail
// over, and a single device otherwise.  Both paths make the same draws (one
// replica index, then the write bit), so with nothing to fail over from
// (no faults, no timeouts) the two runs see the same arrivals land on the
// same devices — the invariant that lets one source serve both paths.
TEST(Cluster, ReplicaListSubmitDrawsLikeSingleDevice) {
  const auto run = [](std::uint32_t max_retries) {
    ClusterConfig config;
    config.device_count = 4;
    config.request_timeout = 30.0;  // armed, but nothing runs this long
    config.max_retries = max_retries;
    config.failover = true;
    config.seed = 11;
    Cluster cluster(config);
    workload::CatalogConfig cat_config;
    cat_config.object_count = 1000;
    cat_config.size_distribution = workload::default_size_distribution();
    cat_config.seed = 12;
    const workload::ObjectCatalog catalog(cat_config);
    const workload::Placement placement({.partition_count = 64,
                                         .replica_count = 3,
                                         .device_count = 4,
                                         .seed = 13});
    workload::PhasePlan plan;
    plan.warmup_duration = 0.0;
    plan.transition_duration = 0.0;
    plan.benchmark_start_rate = 60.0;
    plan.benchmark_end_rate = 60.0;
    plan.benchmark_step_duration = 10.0;
    OpenLoopSource source(cluster, catalog, placement, plan, cosm::Rng(14),
                          /*write_fraction=*/0.2);
    source.start();
    cluster.engine().run_until(source.horizon());
    cluster.engine().run_all();
    EXPECT_GT(source.write_arrivals(), 0u);
    EXPECT_EQ(cluster.metrics().timeouts(), 0u);
    EXPECT_EQ(cluster.metrics().failures(), 0u);
    std::vector<std::pair<double, std::uint32_t>> seen;
    for (const auto& sample : cluster.metrics().requests()) {
      seen.emplace_back(sample.frontend_arrival, sample.device);
    }
    return seen;
  };
  const auto single_device = run(0);
  ASSERT_GT(single_device.size(), 400u);
  EXPECT_EQ(run(1), single_device);
}

TEST(Cluster, ValidatesConfiguration) {
  ClusterConfig config = deterministic_config();
  config.device_count = 0;
  EXPECT_THROW(Cluster{config}, std::invalid_argument);
  ClusterConfig config2 = deterministic_config();
  config2.chunk_bytes = 0;
  EXPECT_THROW(Cluster{config2}, std::invalid_argument);
  Cluster ok(deterministic_config());
  EXPECT_THROW(ok.submit_request(1, 100, 5), std::invalid_argument);
  const std::vector<std::uint32_t> ring = {0, 1};
  EXPECT_THROW(ok.submit_request(1, 100, ring, 2), std::invalid_argument);
  EXPECT_THROW(ok.submit_request(1, 100, std::vector<std::uint32_t>{}, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace cosm::sim
