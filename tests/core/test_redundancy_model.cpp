// Redundancy-aware model surface (tail-tolerance extension): the
// order-statistic response wrap in DeviceModel, the arrival-inflation
// helpers, the self-consistent hedged percentile, and the policy search.
#include "core/whatif.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/system_model.hpp"

namespace cosm::core {
namespace {

using numerics::Degenerate;
using numerics::Gamma;

FrontendParams redundancy_frontend(double rate) {
  FrontendParams params;
  params.arrival_rate = rate;
  params.processes = 3;
  params.frontend_parse = std::make_shared<Degenerate>(0.0008);
  return params;
}

DeviceParams redundancy_device(double rate) {
  DeviceParams params;
  params.arrival_rate = rate;
  params.data_read_rate = rate * 1.2;
  params.index_miss_ratio = 0.3;
  params.meta_miss_ratio = 0.3;
  params.data_miss_ratio = 0.7;
  params.index_disk = std::make_shared<Gamma>(3.0, 300.0);
  params.meta_disk = std::make_shared<Gamma>(2.5, 312.5);
  params.data_disk = std::make_shared<Gamma>(2.8, 233.33);
  params.backend_parse = std::make_shared<Degenerate>(0.0005);
  params.processes = 1;
  return params;
}

SystemParams redundancy_system(double per_device_rate, unsigned devices) {
  SystemParams params;
  params.frontend =
      redundancy_frontend(per_device_rate * static_cast<double>(devices));
  for (unsigned d = 0; d < devices; ++d) {
    params.devices.push_back(redundancy_device(per_device_rate));
  }
  return params;
}

TEST(RedundancyModel, MinOfNImprovesTailAtFixedLoad) {
  const SystemParams params = redundancy_system(40.0, 3);
  const SystemModel baseline(params);
  ModelOptions redundant;
  redundant.redundancy.mode = RedundancyOptions::Mode::kMinOfN;
  redundant.redundancy.n = 2;
  const SystemModel min_of_two(params, redundant);
  // At identical offered load (inflation applied separately) the min of
  // two attempts dominates the single attempt at every SLA point.
  for (const double sla : {0.02, 0.05, 0.1}) {
    EXPECT_GE(min_of_two.predict_sla_percentile(sla),
              baseline.predict_sla_percentile(sla) - 1e-9)
        << sla;
  }
  EXPECT_LT(min_of_two.mean_response_latency(),
            baseline.mean_response_latency());
}

TEST(RedundancyModel, HedgeHelpsOnlyPastTheDeadline) {
  const SystemParams params = redundancy_system(40.0, 2);
  const SystemModel baseline(params);
  ModelOptions hedged_options;
  hedged_options.redundancy.mode = RedundancyOptions::Mode::kHedge;
  hedged_options.redundancy.hedge_delay = 0.03;
  const SystemModel hedged(params, hedged_options);
  // Below the deadline the hedge cannot have fired: distributions agree
  // to grid accuracy.
  EXPECT_NEAR(hedged.predict_sla_percentile(0.01),
              baseline.predict_sla_percentile(0.01), 5e-3);
  // Past it the hedge must help (here: p at twice the deadline).
  EXPECT_GT(hedged.predict_sla_percentile(0.08),
            baseline.predict_sla_percentile(0.08));
}

TEST(RedundancyModel, ForkJoinCorrectionIsPessimisticVsIndependence) {
  const SystemParams params = redundancy_system(45.0, 3);
  ModelOptions independent;
  independent.redundancy.mode = RedundancyOptions::Mode::kMinOfN;
  independent.redundancy.n = 3;
  independent.redundancy.fork_join_correction = false;
  ModelOptions corrected = independent;
  corrected.redundancy.fork_join_correction = true;
  const SystemModel ind_model(params, independent);
  const SystemModel cor_model(params, corrected);
  for (const double sla : {0.02, 0.05, 0.1}) {
    EXPECT_LE(cor_model.predict_sla_percentile(sla),
              ind_model.predict_sla_percentile(sla) + 1e-9)
        << sla;
  }
}

TEST(RedundancyModel, FingerprintSeparatesRedundancyOptions) {
  const SystemParams params = redundancy_system(40.0, 1);
  ModelOptions a;
  ModelOptions b;
  b.redundancy.mode = RedundancyOptions::Mode::kMinOfN;
  b.redundancy.n = 2;
  ModelOptions c = b;
  c.redundancy.n = 3;
  const SystemModel ma(params, a);
  const SystemModel mb(params, b);
  const SystemModel mc(params, c);
  // The CDF cache keys on the device fingerprint: redundancy variants
  // must never share entries.
  EXPECT_NE(ma.devices()[0].fingerprint(), mb.devices()[0].fingerprint());
  EXPECT_NE(mb.devices()[0].fingerprint(), mc.devices()[0].fingerprint());
}

TEST(RedundancyWhatIf, InflationFactorsMatchTheArithmetic) {
  RedundancyOptions none;
  EXPECT_EQ(redundancy_arrival_inflation(none), 1.0);
  EXPECT_EQ(redundancy_data_inflation(none), 1.0);

  RedundancyOptions hedge;
  hedge.mode = RedundancyOptions::Mode::kHedge;
  hedge.hedge_delay = 0.02;
  EXPECT_EQ(redundancy_arrival_inflation(hedge, 0.0), 2.0);
  EXPECT_NEAR(redundancy_arrival_inflation(hedge, 0.75), 1.25, 1e-15);

  RedundancyOptions coded;
  coded.mode = RedundancyOptions::Mode::kKthOfN;
  coded.n = 3;
  coded.k = 2;
  EXPECT_EQ(redundancy_arrival_inflation(coded), 3.0);
  EXPECT_NEAR(redundancy_data_inflation(coded), 1.5, 1e-15);
}

TEST(RedundancyWhatIf, ApplyLoadInflatesEveryRate) {
  const SystemParams healthy = redundancy_system(40.0, 2);
  RedundancyOptions coded;
  coded.mode = RedundancyOptions::Mode::kKthOfN;
  coded.n = 3;
  coded.k = 2;
  const SystemParams inflated = apply_redundancy_load(healthy, coded);
  EXPECT_NEAR(inflated.frontend.arrival_rate,
              3.0 * healthy.frontend.arrival_rate, 1e-9);
  for (std::size_t d = 0; d < healthy.devices.size(); ++d) {
    EXPECT_NEAR(inflated.devices[d].arrival_rate,
                3.0 * healthy.devices[d].arrival_rate, 1e-9);
    EXPECT_NEAR(inflated.devices[d].data_read_rate,
                std::max(1.5 * healthy.devices[d].data_read_rate,
                         inflated.devices[d].arrival_rate),
                1e-9);
  }
}

TEST(RedundancyWhatIf, SaturatingRedundancyReturnsZero) {
  // The healthy system is stable, but tripling the arrivals overloads
  // it: the percentile must come back 0 (the "hurt" side), not throw.
  const SystemParams healthy = redundancy_system(50.0, 2);
  ModelOptions options;
  options.redundancy.mode = RedundancyOptions::Mode::kMinOfN;
  options.redundancy.n = 3;
  const Attainment attained = attainment(healthy, {0.1}, options);
  EXPECT_EQ(attained.percentiles.front(), 0.0);
  EXPECT_TRUE(attained.overloaded);
}

TEST(RedundancyWhatIf, HedgedFixedPointStaysBetweenBounds) {
  // Load low enough that even the factor-2 worst case stays stable, so
  // both bounding models build.
  const SystemParams healthy = redundancy_system(25.0, 2);
  ModelOptions options;
  options.redundancy.mode = RedundancyOptions::Mode::kHedge;
  options.redundancy.hedge_delay = 0.03;
  const double hedged =
      attainment(healthy, {0.1}, options).percentiles.front();
  // Worst case: doubled arrivals with the hedged response.
  const SystemModel doubled(
      apply_redundancy_load(healthy, options.redundancy, 0.0), options);
  // Best case: healthy load with the hedged response.
  const SystemModel best(healthy, options);
  EXPECT_GE(hedged, doubled.predict_sla_percentile(0.1) - 1e-9);
  EXPECT_LE(hedged, best.predict_sla_percentile(0.1) + 1e-9);
}

TEST(RedundancyWhatIf, PolicySearchFindsAHelpfulPolicyAtLowLoad) {
  // 8 req/s per device leaves ample headroom: the attempt inflation is
  // cheap, so the order-statistic help wins (the "help" side of the
  // crossover the extension_redundancy bench sweeps).
  const SystemParams healthy = redundancy_system(8.0, 3);
  std::vector<RedundancyOptions> candidates;
  RedundancyOptions hedge;
  hedge.mode = RedundancyOptions::Mode::kHedge;
  hedge.hedge_delay = 0.03;
  candidates.push_back(hedge);
  RedundancyOptions min2;
  min2.mode = RedundancyOptions::Mode::kMinOfN;
  min2.n = 2;
  candidates.push_back(min2);
  RedundancyOptions coded;
  coded.mode = RedundancyOptions::Mode::kKthOfN;
  coded.n = 3;
  coded.k = 2;
  candidates.push_back(coded);

  const auto best = best_redundancy_policy(healthy, candidates, 0.05);
  // At 25 req/s per device there is ample headroom: at least one policy
  // must beat the single-attempt baseline.
  ASSERT_TRUE(best.has_value());
  // The argmax: no candidate attains more at the target.
  for (const RedundancyOptions& candidate : candidates) {
    ModelOptions options;
    options.redundancy = candidate;
    EXPECT_LE(attainment(healthy, {0.05}, options).percentiles.front(),
              best->percentile + 1e-12);
  }
}

TEST(RedundancyWhatIf, PolicySearchRejectsNothingHelpfulWhenSaturated) {
  // Near saturation every redundant policy floods the cluster; the
  // search must return nullopt rather than a policy that "wins" at 0.
  const SystemParams healthy = redundancy_system(55.0, 2);
  RedundancyOptions min3;
  min3.mode = RedundancyOptions::Mode::kMinOfN;
  min3.n = 3;
  const auto best = best_redundancy_policy(healthy, {min3}, 0.1);
  EXPECT_FALSE(best.has_value());
}

}  // namespace
}  // namespace cosm::core
