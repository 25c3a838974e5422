// Workload substrate tests: catalog statistics, Swift-style placement
// invariants, trace generation phase structure, and CSV round-tripping.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <vector>

#include "workload/catalog.hpp"
#include "workload/placement.hpp"
#include "workload/trace.hpp"

namespace cosm::workload {
namespace {

CatalogConfig small_catalog_config() {
  CatalogConfig config;
  config.object_count = 5000;
  config.zipf_skew = 0.9;
  config.size_distribution = default_size_distribution();
  config.seed = 11;
  return config;
}

TEST(ObjectCatalog, MeanSizeNearConfiguredMean) {
  CatalogConfig config = small_catalog_config();
  config.object_count = 50000;
  const ObjectCatalog catalog(config);
  double total = 0.0;
  for (ObjectId id = 0; id < catalog.object_count(); ++id) {
    total += static_cast<double>(catalog.size_of(id));
  }
  // Lognormal mean 32KB; the max-size clamp trims the far tail slightly.
  EXPECT_NEAR(total / static_cast<double>(catalog.object_count()),
              32.0 * 1024, 4000.0);
}

TEST(ObjectCatalog, SizesAreStableAndBounded) {
  const ObjectCatalog catalog(small_catalog_config());
  for (ObjectId id = 0; id < 100; ++id) {
    const auto size = catalog.size_of(id);
    EXPECT_GE(size, 256u);
    EXPECT_LE(size, 64ull << 20);
    EXPECT_EQ(size, catalog.size_of(id));  // deterministic per object
  }
  EXPECT_THROW(catalog.size_of(catalog.object_count()),
               std::invalid_argument);
}

TEST(ObjectCatalog, PopularObjectsDominateSamples) {
  const ObjectCatalog catalog(small_catalog_config());
  cosm::Rng rng(2);
  std::uint64_t top_decile = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    if (catalog.sample_object(rng) < catalog.object_count() / 10) {
      ++top_decile;
    }
  }
  // With skew 0.9 over 5000 objects the top 10% of ranks draw well over
  // half the traffic — the long-tail property the paper relies on.
  EXPECT_GT(static_cast<double>(top_decile) / kN, 0.5);
}

TEST(ObjectCatalog, SharedPopularityTableMatchesPrivateOne) {
  const CatalogConfig config = small_catalog_config();
  const ObjectCatalog fresh(config);
  const ObjectCatalog shared(
      config, std::make_shared<const cosm::ZipfSampler>(config.object_count,
                                                        config.zipf_skew));
  // Both follow the Zipf law bit for bit: weight 1 / (rank + 1)^skew,
  // normalized by the in-order sum.
  std::vector<double> weights(config.object_count);
  double norm = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), config.zipf_skew);
    norm += weights[i];
  }
  ASSERT_EQ(shared.object_count(), fresh.object_count());
  for (ObjectId id = 0; id < fresh.object_count(); ++id) {
    EXPECT_EQ(shared.size_of(id), fresh.size_of(id));
    EXPECT_EQ(fresh.popularity(id), weights[id] / norm);
    EXPECT_EQ(shared.popularity(id), fresh.popularity(id));
  }
  cosm::Rng a(7);
  cosm::Rng b(7);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(shared.sample_object(a), fresh.sample_object(b)) << "draw " << i;
  }
}

TEST(ObjectCatalog, RejectsMismatchedPopularityTable) {
  const CatalogConfig config = small_catalog_config();
  EXPECT_THROW(ObjectCatalog(config, std::make_shared<const cosm::ZipfSampler>(
                                         config.object_count + 1,
                                         config.zipf_skew)),
               std::invalid_argument);
  EXPECT_THROW(ObjectCatalog(config, std::make_shared<const cosm::ZipfSampler>(
                                         config.object_count, 1.1)),
               std::invalid_argument);
  EXPECT_THROW(ObjectCatalog(config, nullptr), std::invalid_argument);
}

TEST(Placement, ReplicasAreDistinctDevices) {
  Placement placement({.partition_count = 1024,
                       .replica_count = 3,
                       .device_count = 4,
                       .seed = 5});
  for (std::uint32_t p = 0; p < placement.partition_count(); ++p) {
    const auto& replicas = placement.replicas_of_partition(p);
    ASSERT_EQ(replicas.size(), 3u);
    EXPECT_NE(replicas[0], replicas[1]);
    EXPECT_NE(replicas[1], replicas[2]);
    EXPECT_NE(replicas[0], replicas[2]);
    for (const DeviceId d : replicas) EXPECT_LT(d, 4u);
  }
}

TEST(Placement, PartitionAssignmentIsDeterministicAndUniform) {
  Placement placement({.partition_count = 64,
                       .replica_count = 1,
                       .device_count = 4,
                       .seed = 5});
  std::vector<int> counts(64, 0);
  for (ObjectId id = 0; id < 64000; ++id) {
    const auto p = placement.partition_of(id);
    EXPECT_EQ(p, placement.partition_of(id));
    ++counts[p];
  }
  for (const int c : counts) EXPECT_NEAR(c, 1000, 200);
}

TEST(Placement, TrafficShareSumsToOneAndIsBalanced) {
  const ObjectCatalog catalog(small_catalog_config());
  Placement placement({.partition_count = 1024,
                       .replica_count = 3,
                       .device_count = 4,
                       .seed = 5});
  const auto share = placement.traffic_share(catalog);
  ASSERT_EQ(share.size(), 4u);
  double total = 0.0;
  for (const double s : share) {
    total += s;
    // Even distribution over 4 devices => ~0.25 each; hashing noise and
    // Zipf head objects leave a few percent of imbalance.
    EXPECT_NEAR(s, 0.25, 0.08);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Placement, ChooseReplicaCoversAllReplicas) {
  Placement placement({.partition_count = 16,
                       .replica_count = 3,
                       .device_count = 5,
                       .seed = 1});
  cosm::Rng rng(3);
  const ObjectId id = 7;
  const auto& replicas =
      placement.replicas_of_partition(placement.partition_of(id));
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 3000; ++i) ++seen[placement.choose_replica(id, rng)];
  for (const DeviceId d : replicas) EXPECT_GT(seen[d], 800);
}

TEST(Placement, Validation) {
  EXPECT_THROW(Placement({.partition_count = 0}), std::invalid_argument);
  EXPECT_THROW(Placement({.partition_count = 8,
                          .replica_count = 5,
                          .device_count = 4}),
               std::invalid_argument);
}

TEST(ExpandPhases, PaperStructure) {
  PhasePlan plan;  // paper defaults: 3h warmup, 1h transition, 10..350 by 5
  const auto segments = expand_phases(plan);
  ASSERT_GE(segments.size(), 3u);
  EXPECT_FALSE(segments[0].is_benchmark);
  EXPECT_EQ(segments[0].rate, 300.0);
  EXPECT_EQ(segments[0].duration, 10800.0);
  EXPECT_FALSE(segments[1].is_benchmark);
  EXPECT_EQ(segments[1].rate, 10.0);
  // Benchmark segments: rates 10, 15, ..., 350 => 69 segments.
  std::size_t benchmark_count = 0;
  for (const auto& s : segments) benchmark_count += s.is_benchmark ? 1 : 0;
  EXPECT_EQ(benchmark_count, 69u);
  EXPECT_EQ(segments.back().rate, 350.0);
  // Segments tile the timeline with no gaps.
  for (std::size_t i = 1; i < segments.size(); ++i) {
    EXPECT_NEAR(segments[i].start_time,
                segments[i - 1].start_time + segments[i - 1].duration,
                1e-9);
  }
}

TEST(GenerateTrace, RatesMatchPlan) {
  PhasePlan plan;
  plan.warmup_rate = 100.0;
  plan.warmup_duration = 50.0;
  plan.transition_rate = 10.0;
  plan.transition_duration = 20.0;
  plan.benchmark_start_rate = 50.0;
  plan.benchmark_end_rate = 50.0;
  plan.benchmark_rate_step = 5.0;
  plan.benchmark_step_duration = 40.0;
  const ObjectCatalog catalog(small_catalog_config());
  cosm::Rng rng(17);
  const auto trace = generate_trace_vector(plan, catalog, rng);
  // Expected 100*50 + 10*20 + 50*40 = 7200 requests.
  EXPECT_NEAR(static_cast<double>(trace.size()), 7200.0, 300.0);
  // Timestamps are sorted and within the plan horizon.
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i - 1].timestamp, trace[i].timestamp);
  }
  EXPECT_LT(trace.back().timestamp, 110.0);
  // Count arrivals inside the warmup window only.
  std::size_t warmup_arrivals = 0;
  for (const auto& rec : trace) {
    if (rec.timestamp < 50.0) ++warmup_arrivals;
  }
  EXPECT_NEAR(static_cast<double>(warmup_arrivals), 5000.0, 250.0);
}

TEST(GenerateTrace, RecordsCarryCatalogSizes) {
  PhasePlan plan;
  plan.warmup_duration = 0.0;
  plan.transition_duration = 0.0;
  plan.benchmark_start_rate = 20.0;
  plan.benchmark_end_rate = 20.0;
  plan.benchmark_step_duration = 10.0;
  const ObjectCatalog catalog(small_catalog_config());
  cosm::Rng rng(23);
  const auto trace = generate_trace_vector(plan, catalog, rng);
  ASSERT_FALSE(trace.empty());
  for (const auto& rec : trace) {
    EXPECT_EQ(rec.size_bytes, catalog.size_of(rec.object_id));
  }
}

TEST(TraceCsv, RoundTrips) {
  const std::vector<TraceRecord> trace = {
      {0.5, 42, 1024}, {1.25, 7, 65536}, {2.0, 42, 1024}};
  std::stringstream buffer;
  write_trace_csv(buffer, trace);
  const auto parsed = read_trace_csv(buffer);
  ASSERT_EQ(parsed.size(), 3u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(parsed[i].timestamp, trace[i].timestamp);
    EXPECT_EQ(parsed[i].object_id, trace[i].object_id);
    EXPECT_EQ(parsed[i].size_bytes, trace[i].size_bytes);
  }
}

TEST(TraceCsv, RejectsGarbage) {
  std::istringstream bad_header("time,oid\n1,2,3\n");
  EXPECT_THROW(read_trace_csv(bad_header), std::invalid_argument);
  std::istringstream bad_line(
      "timestamp,object_id,size_bytes\nnot,a,number\n");
  EXPECT_THROW(read_trace_csv(bad_line), std::invalid_argument);
}

}  // namespace
}  // namespace cosm::workload
