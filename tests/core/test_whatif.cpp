// What-if analysis tests: the searches must agree with brute-force
// evaluation of the underlying model, and degrade gracefully at the
// overload boundary.
#include "core/whatif.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

namespace cosm::core {
namespace {

using numerics::Degenerate;
using numerics::Gamma;

SystemParams even_cluster(double total_rate, unsigned devices) {
  SystemParams params;
  params.frontend.arrival_rate = total_rate;
  params.frontend.processes = 3;
  params.frontend.frontend_parse = std::make_shared<Degenerate>(0.8e-3);
  for (unsigned d = 0; d < devices; ++d) {
    DeviceParams device;
    device.arrival_rate = total_rate / devices;
    device.data_read_rate = device.arrival_rate * 1.2;
    device.index_miss_ratio = 0.3;
    device.meta_miss_ratio = 0.3;
    device.data_miss_ratio = 0.7;
    device.index_disk = std::make_shared<Gamma>(3.0, 300.0);
    device.meta_disk = std::make_shared<Gamma>(2.5, 312.5);
    device.data_disk = std::make_shared<Gamma>(2.8, 233.33);
    device.backend_parse = std::make_shared<Degenerate>(0.5e-3);
    device.processes = 1;
    params.devices.push_back(device);
  }
  return params;
}

const ClusterFactory kFactory = [](double rate, unsigned devices) {
  return even_cluster(rate, devices);
};

TEST(SlaTarget, Validation) {
  EXPECT_THROW(SlaTarget({.sla = 0.0}).validate(), std::invalid_argument);
  EXPECT_THROW(SlaTarget({.sla = 0.1, .percentile = 1.0}).validate(),
               std::invalid_argument);
  EXPECT_NO_THROW(SlaTarget({.sla = 0.1, .percentile = 0.95}).validate());
}

TEST(MeetsTarget, OverloadCountsAsMiss) {
  const SlaTarget target{.sla = 0.1, .percentile = 0.9};
  EXPECT_TRUE(meets_target(even_cluster(80.0, 4), target));
  // 400 req/s over 4 devices saturates the union queue: no exception,
  // just "not met".
  EXPECT_FALSE(meets_target(even_cluster(400.0, 4), target));
}

TEST(MinDevicesFor, MatchesBruteForce) {
  const SlaTarget target{.sla = 0.1, .percentile = 0.95};
  const double rate = 300.0;
  const auto result = min_devices_for(kFactory, rate, target, 2, 24);
  ASSERT_TRUE(result.has_value());
  // Brute force cross-check.
  unsigned expected = 0;
  for (unsigned devices = 2; devices <= 24; ++devices) {
    if (meets_target(kFactory(rate, devices), target)) {
      expected = devices;
      break;
    }
  }
  EXPECT_EQ(*result, expected);
  // One fewer device must miss the target.
  EXPECT_FALSE(meets_target(kFactory(rate, *result - 1), target));
}

TEST(MinDevicesFor, ReturnsNulloptWhenImpossible) {
  const SlaTarget harsh{.sla = 0.001, .percentile = 0.99};
  EXPECT_FALSE(min_devices_for(kFactory, 300.0, harsh, 1, 16).has_value());
}

TEST(MaxAdmissionRate, BracketsTheComplianceBoundary) {
  const SlaTarget target{.sla = 0.05, .percentile = 0.9};
  const double threshold =
      max_admission_rate(kFactory, 4, target, 500.0, 0.25);
  ASSERT_GT(threshold, 0.0);
  ASSERT_LT(threshold, 500.0);
  EXPECT_TRUE(meets_target(kFactory(threshold - 0.5, 4), target));
  EXPECT_FALSE(meets_target(kFactory(threshold + 1.0, 4), target));
}

TEST(MaxAdmissionRate, StopsAtAdjacentDoublesBelowTheirSpacing) {
  // A tolerance finer than the spacing of doubles near the answer used
  // to bisect forever; the search now ends on two adjacent doubles.
  const SlaTarget target{.sla = 0.05, .percentile = 0.9};
  const double coarse = max_admission_rate(kFactory, 4, target, 500.0, 0.25);
  const double fine = max_admission_rate(kFactory, 4, target, 500.0, 1e-300);
  EXPECT_NEAR(fine, coarse, 0.25);
  EXPECT_TRUE(meets_target(kFactory(fine, 4), target));
  EXPECT_FALSE(meets_target(kFactory(std::nextafter(fine, 1e9), 4), target));
}

TEST(MaxAdmissionRate, ReturnsLimitWhenAlwaysCompliant) {
  const SlaTarget lax{.sla = 5.0, .percentile = 0.5};
  EXPECT_EQ(max_admission_rate(kFactory, 8, lax, 100.0), 100.0);
}

TEST(MaxAdmissionRate, ReturnsZeroWhenNeverCompliant) {
  const SlaTarget impossible{.sla = 1e-6, .percentile = 0.99};
  EXPECT_EQ(max_admission_rate(kFactory, 4, impossible, 100.0), 0.0);
}

TEST(ElasticSchedule, TracksTheLoadCurve) {
  const SlaTarget target{.sla = 0.1, .percentile = 0.95};
  const std::vector<double> curve = {60.0, 150.0, 300.0, 150.0};
  const auto schedule = elastic_schedule(kFactory, curve, target, 24);
  ASSERT_EQ(schedule.size(), 4u);
  for (const auto& entry : schedule) ASSERT_TRUE(entry.has_value());
  // More load never needs fewer devices; the symmetric curve gives a
  // symmetric schedule.
  EXPECT_LE(*schedule[0], *schedule[1]);
  EXPECT_LE(*schedule[1], *schedule[2]);
  EXPECT_EQ(*schedule[1], *schedule[3]);
}

TEST(SlaMissContributions, BlamesTheSlowAndHotDevices) {
  SystemParams params = even_cluster(120.0, 4);
  // Device 2 hot (double traffic), device 3 degraded (slow disk).
  params.devices[2].arrival_rate *= 2.0;
  params.devices[2].data_read_rate *= 2.0;
  params.frontend.arrival_rate += 30.0;
  params.devices[3].data_disk = std::make_shared<Gamma>(2.8, 116.7);
  const SystemModel model(params);
  const auto blame = sla_miss_contributions(model, 0.1);
  ASSERT_EQ(blame.size(), 4u);
  // Contributions sum to 1 and are descending.
  double total = 0.0;
  for (std::size_t i = 0; i < blame.size(); ++i) {
    total += blame[i].second;
    if (i > 0) {
      EXPECT_LE(blame[i].second, blame[i - 1].second);
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  // The two culprits outrank the two healthy devices.
  EXPECT_TRUE(blame[0].first == 2 || blame[0].first == 3);
  EXPECT_TRUE(blame[1].first == 2 || blame[1].first == 3);
}

TEST(DegradedWhatIf, ScenarioValidation) {
  const SystemParams healthy = even_cluster(80.0, 4);
  DegradedScenario bad;
  bad.slow_device = 99;
  EXPECT_THROW(degrade(healthy, bad), std::invalid_argument);
  bad = {};
  bad.service_inflation = 0.5;  // < 1 is a speedup, not a degradation
  EXPECT_THROW(degrade(healthy, bad), std::invalid_argument);
  bad = {};
  bad.retry_rate_factor = std::nan("");
  EXPECT_THROW(degrade(healthy, bad), std::invalid_argument);
  bad = {};
  bad.slow_device = 1;
  bad.failed_device = 1;
  EXPECT_THROW(degrade(healthy, bad), std::invalid_argument);
}

TEST(DegradedWhatIf, SlowDeviceLowersOnlyItsCompliance) {
  const SystemParams healthy = even_cluster(80.0, 4);
  DegradedScenario scenario;
  scenario.slow_device = 2;
  scenario.service_inflation = 3.0;
  const SystemParams degraded = degrade(healthy, scenario);
  ASSERT_EQ(degraded.devices.size(), 4u);
  EXPECT_NEAR(degraded.devices[2].data_disk->mean(),
              3.0 * healthy.devices[2].data_disk->mean(), 1e-12);
  const SystemModel healthy_model(healthy);
  const SystemModel degraded_model(degraded);
  // System-wide compliance drops, driven by device 2 alone.
  EXPECT_LT(degraded_model.predict_sla_percentile(0.1),
            healthy_model.predict_sla_percentile(0.1));
  EXPECT_LT(degraded_model.predict_sla_percentile_device(2, 0.1),
            healthy_model.predict_sla_percentile_device(2, 0.1) - 0.05);
  EXPECT_NEAR(degraded_model.predict_sla_percentile_device(0, 0.1),
              healthy_model.predict_sla_percentile_device(0, 0.1), 1e-6);
}

TEST(DegradedWhatIf, FailedDeviceRedistributesItsTraffic) {
  const SystemParams healthy = even_cluster(80.0, 4);
  DegradedScenario scenario;
  scenario.failed_device = 1;
  const SystemParams degraded = degrade(healthy, scenario);
  ASSERT_EQ(degraded.devices.size(), 3u);
  double total_rate = 0.0;
  for (const auto& device : degraded.devices) {
    total_rate += device.arrival_rate;
    EXPECT_NEAR(device.arrival_rate, 80.0 / 3.0, 1e-9);
  }
  EXPECT_NEAR(total_rate, 80.0, 1e-9);  // no traffic lost
  // The survivors run hotter, so compliance falls.
  EXPECT_LT(SystemModel(degraded).predict_sla_percentile(0.1),
            SystemModel(healthy).predict_sla_percentile(0.1));
}

TEST(DegradedWhatIf, RetryInflationAndOverloadMapToZero) {
  EXPECT_EQ(retry_arrival_inflation(0.0, 3), 1.0);
  EXPECT_EQ(retry_arrival_inflation(0.5, 0), 1.0);
  // p = 0.5, R = 2: 1 + 0.5 + 0.25 attempts.
  EXPECT_NEAR(retry_arrival_inflation(0.5, 2), 1.75, 1e-12);
  EXPECT_THROW(retry_arrival_inflation(1.0, 2), std::invalid_argument);

  const SystemParams healthy = even_cluster(80.0, 4);
  DegradedScenario mild;
  mild.retry_rate_factor = 1.1;
  EXPECT_LT(degraded_sla_percentile(healthy, mild, 0.1),
            SystemModel(healthy).predict_sla_percentile(0.1));
  // Retry storm beyond saturation: reported as certainly-missing, not as
  // an exception.
  DegradedScenario storm;
  storm.retry_rate_factor = 20.0;
  EXPECT_EQ(degraded_sla_percentile(healthy, storm, 0.1), 0.0);
}

}  // namespace
}  // namespace cosm::core
