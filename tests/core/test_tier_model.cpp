// Model side of the tiering extension: the TieredService composition in
// BackendModel, TierOptions validation, prediction-cache fingerprinting
// of tiered parameters, and the tier-capacity what-if sweep.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/backend_model.hpp"
#include "core/system_model.hpp"
#include "core/whatif.hpp"

namespace cosm::core {
namespace {

using numerics::Degenerate;
using numerics::DistPtr;
using numerics::Gamma;

DeviceParams tiered_params(double hit_ratio) {
  DeviceParams params;
  params.arrival_rate = 30.0;
  params.data_read_rate = 36.0;
  params.index_miss_ratio = 0.3;
  params.meta_miss_ratio = 0.3;
  params.data_miss_ratio = 0.7;
  params.index_disk = std::make_shared<Gamma>(3.0, 300.0);
  params.meta_disk = std::make_shared<Gamma>(2.5, 312.5);
  params.data_disk = std::make_shared<Gamma>(2.8, 233.33);
  params.backend_parse = std::make_shared<Degenerate>(0.0005);
  params.processes = 1;
  params.tier.enabled = true;
  params.tier.hit_ratio = hit_ratio;
  params.tier.read_service = std::make_shared<Gamma>(4.0, 4000.0);  // 1 ms
  params.tier.write_service = std::make_shared<Gamma>(3.0, 2000.0);
  return params;
}

SystemParams tiered_system(double hit_ratio, unsigned processes) {
  SystemParams params;
  params.frontend.arrival_rate = 30.0;
  params.frontend.processes = 2;
  params.frontend.frontend_parse = std::make_shared<Degenerate>(0.001);
  DeviceParams device = tiered_params(hit_ratio);
  device.processes = processes;
  params.devices.push_back(device);
  return params;
}

TEST(TierModel, ZeroHitRatioMatchesUntieredModel) {
  // h = 0 routes every data miss to the capacity disk: the tiered tree
  // must predict exactly what the untiered one does.
  DeviceParams untiered = tiered_params(0.0);
  untiered.tier = TierOptions{};
  const BackendModel baseline(untiered);
  const BackendModel tiered(tiered_params(0.0));
  EXPECT_DOUBLE_EQ(tiered.response_time()->mean(),
                   baseline.response_time()->mean());
  for (double sla : {0.020, 0.060, 0.150}) {
    EXPECT_DOUBLE_EQ(tiered.response_time()->cdf(sla),
                     baseline.response_time()->cdf(sla));
  }
}

TEST(TierModel, HigherHitRatioImprovesPercentiles) {
  double last = 0.0;
  for (double h : {0.0, 0.4, 0.8}) {
    const BackendModel model(tiered_params(h));
    const double percentile = model.response_time()->cdf(0.060);
    EXPECT_GT(percentile, last);
    last = percentile;
  }
}

TEST(TierModel, FullHitRatioReplacesDataReadsWithSsd) {
  // h = 1: the data branch mean is the SSD service mean (times the cache
  // miss ratio), independent of the capacity-disk data distribution.
  const BackendModel model(tiered_params(1.0));
  const double expected_op = 0.0005 + 0.3 * 0.010 + 0.3 * 0.008 +
                             1.2 * 0.7 * 0.001;
  EXPECT_NEAR(model.union_service()->mean(), expected_op, 1e-6);
}

TEST(TierModel, SharedSsdQueueKicksInWithMultipleProcesses) {
  // With N_be > 1 the SSD gets its own finite-queue substitution, so its
  // effective service is slower than the raw SSD law — but a busy tier
  // must still beat the untiered disk path at the same load.
  const SystemModel untiered(tiered_system(0.0, 4));
  const SystemModel tiered(tiered_system(0.7, 4));
  EXPECT_GT(tiered.predict_sla_percentile(0.060),
            untiered.predict_sla_percentile(0.060));
}

TEST(TierModel, FingerprintSeparatesTierParameters) {
  // The prediction cache must not serve a tiered build for an untiered
  // request (or for a different hit ratio).
  PredictionCache cache;
  const PredictOptions predict{1, &cache};
  const SystemModel a(tiered_system(0.5, 1), {}, predict);
  EXPECT_EQ(cache.devices.stats().misses, 1u);
  const SystemModel b(tiered_system(0.6, 1), {}, predict);
  EXPECT_EQ(cache.devices.stats().misses, 2u);  // new tier => new build
  SystemParams untiered = tiered_system(0.6, 1);
  untiered.devices[0].tier = TierOptions{};
  const SystemModel c(untiered, {}, predict);
  EXPECT_EQ(cache.devices.stats().misses, 3u);  // tier off => new build
  const SystemModel twin(tiered_system(0.6, 1), {}, predict);
  EXPECT_EQ(cache.devices.stats().misses, 3u);  // identical tier => hit
  EXPECT_DOUBLE_EQ(twin.predict_sla_percentile(0.060),
                   b.predict_sla_percentile(0.060));
}

TEST(TierModel, ValidationRejectsBadTierOptions) {
  DeviceParams params = tiered_params(0.5);
  params.tier.hit_ratio = 1.5;
  EXPECT_THROW(BackendModel{params}, std::invalid_argument);
  params = tiered_params(0.5);
  params.tier.read_service = nullptr;
  EXPECT_THROW(BackendModel{params}, std::invalid_argument);
  params = tiered_params(0.5);
  params.tier.write_service = nullptr;  // required with promote_on_read
  EXPECT_THROW(BackendModel{params}, std::invalid_argument);
  params.tier.promote_on_read = false;  // ...but only then
  EXPECT_NO_THROW(BackendModel{params});
}

TEST(TierWhatIf, SweepAndMinCapacityPickSmallestCompliantTier) {
  const TierFactory factory = [](const TierCandidate& candidate) {
    return tiered_system(candidate.hit_ratio, 1);
  };
  // Hit ratios as a capacity-planning curve (monotone in capacity, the
  // way calibration::predict_tier_hit_ratio produces them).
  const std::vector<TierCandidate> candidates = {
      {0, 0.0}, {1024, 0.35}, {4096, 0.65}, {16384, 0.9}};
  const SlaTarget target{0.060, 0.93};
  const auto points = tier_capacity_sweep(factory, candidates, target);
  ASSERT_EQ(points.size(), candidates.size());
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].percentile, points[i - 1].percentile);
  }
  const auto best = min_tier_capacity_for(factory, candidates, target);
  ASSERT_TRUE(best.has_value());
  // The smallest compliant capacity, not merely the best percentile.
  for (const auto& point : points) {
    if (point.meets_target) {
      EXPECT_EQ(best->candidate.capacity_chunks,
                point.candidate.capacity_chunks);
      break;
    }
  }
  // An unreachable target reports nullopt.
  const SlaTarget impossible{0.0001, 0.999};
  EXPECT_FALSE(
      min_tier_capacity_for(factory, candidates, impossible).has_value());
}

}  // namespace
}  // namespace cosm::core
