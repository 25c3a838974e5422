#include "core/mean_value_baseline.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

namespace cosm::core {
namespace {

using numerics::Degenerate;
using numerics::Gamma;

SystemParams simple_params(double rate) {
  SystemParams params;
  params.frontend.arrival_rate = rate;
  params.frontend.processes = 2;
  params.frontend.frontend_parse = std::make_shared<Degenerate>(0.001);
  DeviceParams device;
  device.arrival_rate = rate;
  device.data_read_rate = rate * 1.5;
  device.index_miss_ratio = 0.2;
  device.meta_miss_ratio = 0.1;
  device.data_miss_ratio = 0.5;
  device.index_disk = std::make_shared<Gamma>(3.0, 300.0);
  device.meta_disk = std::make_shared<Gamma>(2.5, 312.5);
  device.data_disk = std::make_shared<Gamma>(2.8, 233.33);
  device.backend_parse = std::make_shared<Degenerate>(0.0005);
  device.processes = 1;
  params.devices.push_back(std::move(device));
  return params;
}

TEST(MeanValueBaseline, HandComputedMean) {
  const double rate = 40.0;
  const MeanValueBaseline baseline(simple_params(rate));
  // Frontend M/M/1: lambda = 20/s, mu = 1000/s -> 1/980 s.
  const double frontend = 1.0 / (1000.0 - 20.0);
  // Union mean: 0.0005 + 0.2*0.010 + 0.1*0.008 + 1.5*0.5*0.012.
  const double union_mean =
      0.0005 + 0.2 * 0.010 + 0.1 * 0.008 + 1.5 * 0.5 * (2.8 / 233.33);
  const double backend = 1.0 / (1.0 / union_mean - rate);
  EXPECT_NEAR(baseline.mean_response_latency(), frontend + backend, 1e-12);
}

TEST(MeanValueBaseline, ExponentialTailPercentile) {
  const MeanValueBaseline baseline(simple_params(40.0));
  const double mean = baseline.mean_response_latency();
  for (double sla : {0.01, 0.05, 0.2}) {
    EXPECT_NEAR(baseline.predict_sla_percentile(sla),
                1.0 - std::exp(-sla / mean), 1e-12)
        << sla;
  }
  EXPECT_THROW(baseline.predict_sla_percentile(0.0), std::invalid_argument);
}

TEST(MeanValueBaseline, PercentileMonotoneInLoad) {
  const MeanValueBaseline light(simple_params(20.0));
  const MeanValueBaseline heavy(simple_params(60.0));
  for (double sla : {0.02, 0.1}) {
    EXPECT_LT(heavy.predict_sla_percentile(sla),
              light.predict_sla_percentile(sla))
        << sla;
  }
}

TEST(MeanValueBaseline, RejectsOverloadedStations) {
  // Backend saturates near 1/union_mean ~ 81/s for this mix.
  EXPECT_THROW(MeanValueBaseline{simple_params(90.0)},
               std::invalid_argument);
}

TEST(MeanValueBaseline, MixesDevicesByRate) {
  // Per-device baselines built separately, each with a frontend at the
  // same per-process rate (20/s) as the mixed system's, so the frontend
  // sojourn is common and only the backend term differs.
  const SystemParams first = simple_params(40.0);  // 2 frontend processes
  SystemParams second = simple_params(20.0);
  second.frontend.processes = 1;
  second.devices[0].data_read_rate = 30.0;
  second.devices[0].data_miss_ratio = 1.0;  // slower device
  SystemParams params = first;
  params.devices.push_back(second.devices[0]);
  params.frontend.arrival_rate = 60.0;
  params.frontend.processes = 3;
  const MeanValueBaseline baseline(params);
  const MeanValueBaseline b0(first);
  const MeanValueBaseline b1(second);
  const double d0 = b0.mean_response_latency();
  const double d1 = b1.mean_response_latency();
  EXPECT_GT(d1, d0);
  EXPECT_NEAR(baseline.mean_response_latency(),
              (40.0 * d0 + 20.0 * d1) / 60.0, 1e-12);
  for (double sla : {0.02, 0.1}) {
    EXPECT_NEAR(baseline.predict_sla_percentile(sla),
                (40.0 * b0.predict_sla_percentile(sla) +
                 20.0 * b1.predict_sla_percentile(sla)) /
                    60.0,
                1e-12)
        << sla;
  }
}

}  // namespace
}  // namespace cosm::core
