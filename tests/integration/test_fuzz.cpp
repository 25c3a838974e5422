// Randomized invariant tests ("fuzz") over the simulator and the model.
//
// Each seed generates a random-but-valid configuration and workload; the
// assertions are structural invariants that must hold for EVERY such
// configuration, so a failure pinpoints a real bug rather than a
// tolerance choice:
//   simulator — every arrival completes exactly once, latencies exceed
//               the irreducible path minimum, cache/disk accounting is
//               conserved (read disk ops == read misses);
//   model     — CDFs are monotone proper distributions, percentiles fall
//               with load, the union-operation mean matches the paper's
//               closed form.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/backend_model.hpp"
#include "core/system_model.hpp"
#include "sim/cluster.hpp"
#include "sim/source.hpp"

namespace cosm {
namespace {

class SimFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimFuzz, ConservationInvariantsHoldForRandomConfigs) {
  cosm::Rng meta_rng(GetParam());
  sim::ClusterConfig config;
  config.frontend_processes = 1 + meta_rng.uniform_index(4);
  config.device_count = 1 + meta_rng.uniform_index(4);
  config.processes_per_device =
      meta_rng.bernoulli(0.5) ? 1 : 1 + meta_rng.uniform_index(8);
  config.cache.index_miss_ratio = meta_rng.uniform();
  config.cache.meta_miss_ratio = meta_rng.uniform();
  config.cache.data_miss_ratio = meta_rng.uniform();
  config.accept_strategy = meta_rng.bernoulli(0.5)
                               ? sim::AcceptStrategy::kAcceptOne
                               : sim::AcceptStrategy::kBatchDrain;
  config.defer_accepts = meta_rng.bernoulli(0.5);
  config.service_order = meta_rng.bernoulli(0.5)
                             ? sim::ClusterConfig::ServiceOrder::kFifo
                             : sim::ClusterConfig::ServiceOrder::kSiro;
  config.seed = meta_rng.next_u64();
  sim::Cluster cluster(config);

  workload::CatalogConfig cat_config;
  cat_config.object_count = 500 + meta_rng.uniform_index(3000);
  cat_config.zipf_skew = meta_rng.uniform(0.0, 1.2);
  cat_config.size_distribution = workload::default_size_distribution();
  cat_config.seed = meta_rng.next_u64();
  const workload::ObjectCatalog catalog(cat_config);
  const workload::Placement placement(
      {.partition_count = 64,
       .replica_count = 1,
       .device_count = config.device_count,
       .seed = meta_rng.next_u64()});

  // Light load so even unlucky configurations drain quickly.
  workload::PhasePlan plan;
  plan.warmup_duration = 0.0;
  plan.transition_duration = 0.0;
  plan.benchmark_start_rate =
      5.0 * config.device_count * (1.0 + meta_rng.uniform());
  plan.benchmark_end_rate = plan.benchmark_start_rate;
  plan.benchmark_step_duration = 60.0;
  const double write_fraction =
      meta_rng.bernoulli(0.3) ? meta_rng.uniform(0.0, 0.2) : 0.0;
  sim::OpenLoopSource source(cluster, catalog, placement, plan,
                             cosm::Rng(meta_rng.next_u64()),
                             write_fraction);
  source.start();
  cluster.engine().run_until(source.horizon());
  cluster.engine().run_all();

  // 1. Every arrival completes exactly once.
  EXPECT_EQ(cluster.metrics().completed_requests(), source.arrivals());
  EXPECT_EQ(cluster.metrics().requests().size(), source.arrivals());

  // 2. Latencies exceed the irreducible path minimum (parse costs + 4
  //    network hops) and are finite.
  const double floor = cluster.config().frontend_parse->mean() +
                       cluster.config().backend_parse->mean() +
                       3.0 * cluster.config().network_latency;
  for (const auto& sample : cluster.metrics().requests()) {
    ASSERT_GT(sample.response_latency, floor * 0.99);
    ASSERT_LT(sample.response_latency, 3600.0);
    ASSERT_GE(sample.accept_wait, 0.0);
  }

  // 3. Accounting conservation per device: read-path disk ops == read
  //    misses, and accesses >= misses.
  for (std::uint32_t d = 0; d < config.device_count; ++d) {
    const auto& counters = cluster.metrics().device(d);
    for (const auto kind : {sim::AccessKind::kIndex, sim::AccessKind::kMeta,
                            sim::AccessKind::kData}) {
      const auto k = static_cast<int>(kind);
      EXPECT_EQ(counters.disk_ops[k], counters.misses[k])
          << "device " << d << " kind " << k;
      EXPECT_GE(counters.accesses[k], counters.misses[k]);
    }
    // One index + one meta access per read request handled here.
    EXPECT_EQ(counters.accesses[0], counters.accesses[1]);
    // Data reads >= read requests (chunking only adds).
    EXPECT_GE(counters.data_reads + 1, counters.accesses[0]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

class ModelFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModelFuzz, ModelOutputsAreProperForRandomParameters) {
  cosm::Rng rng(GetParam() * 7919);
  core::DeviceParams device;
  device.index_miss_ratio = rng.uniform();
  device.meta_miss_ratio = rng.uniform();
  device.data_miss_ratio = rng.uniform(0.05, 1.0);
  device.index_disk =
      std::make_shared<numerics::Gamma>(rng.uniform(0.5, 6.0),
                                        rng.uniform(100.0, 600.0));
  device.meta_disk =
      std::make_shared<numerics::Gamma>(rng.uniform(0.5, 6.0),
                                        rng.uniform(100.0, 600.0));
  device.data_disk =
      std::make_shared<numerics::Gamma>(rng.uniform(0.5, 6.0),
                                        rng.uniform(100.0, 600.0));
  device.backend_parse =
      std::make_shared<numerics::Degenerate>(rng.uniform(1e-4, 2e-3));
  device.processes = rng.bernoulli(0.5) ? 1 : 1 + rng.uniform_index(16);

  // Pick a rate safely inside the stability region.  Two bounds matter:
  // the per-process union queue (scales with N_be) and the shared disk
  // (does not scale with N_be) — and for N_be > 1 the M/M/1/K sojourn
  // inflates the union mean well beyond the raw service times, so stay
  // conservative.
  const double disk_work =
      device.index_miss_ratio * device.index_disk->mean() +
      device.meta_miss_ratio * device.meta_disk->mean() +
      1.3 * device.data_miss_ratio * device.data_disk->mean();
  const double probe_mean = device.backend_parse->mean() + disk_work;
  const double capacity =
      std::min(static_cast<double>(device.processes) / probe_mean,
               1.0 / disk_work);
  device.arrival_rate = rng.uniform(0.1, 0.4) * capacity;
  device.data_read_rate = device.arrival_rate * rng.uniform(1.0, 1.3);

  core::SystemParams params;
  params.frontend.arrival_rate = device.arrival_rate;
  params.frontend.processes = 3;
  params.frontend.frontend_parse =
      std::make_shared<numerics::Degenerate>(0.8e-3);
  params.devices.push_back(device);

  const core::SystemModel model(params);
  // Union-operation mean matches the paper's closed form.
  const core::BackendModel backend(device);
  if (device.processes == 1) {
    const double p = (device.data_read_rate - device.arrival_rate) /
                     device.arrival_rate;
    const double expected =
        device.backend_parse->mean() +
        device.index_miss_ratio * device.index_disk->mean() +
        device.meta_miss_ratio * device.meta_disk->mean() +
        (1.0 + p) * device.data_miss_ratio * device.data_disk->mean();
    EXPECT_NEAR(backend.union_service()->mean(), expected, 1e-9);
  }
  // The percentile curve is a proper monotone CDF.
  double prev = 0.0;
  for (double sla : {0.005, 0.02, 0.05, 0.1, 0.3, 1.0, 4.0, 10.0}) {
    const double c = model.predict_sla_percentile(sla);
    ASSERT_GE(c, prev - 1e-7) << "sla=" << sla;
    ASSERT_GE(c, -1e-9);
    ASSERT_LE(c, 1.0 + 1e-9);
    prev = c;
  }
  EXPECT_GT(prev, 0.97);
  // More load, lower percentile.
  core::SystemParams heavier = params;
  heavier.devices[0].arrival_rate *= 1.4;
  heavier.devices[0].data_read_rate *= 1.4;
  heavier.frontend.arrival_rate *= 1.4;
  const core::SystemModel heavy(heavier);
  EXPECT_LE(heavy.predict_sla_percentile(0.05),
            model.predict_sla_percentile(0.05) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelFuzz,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace cosm
