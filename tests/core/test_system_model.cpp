// Frontend model, exact accept-wait refinement, and Eq. 2/Eq. 3 assembly.
#include "core/system_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

namespace cosm::core {
namespace {

using numerics::Degenerate;
using numerics::DistPtr;
using numerics::Exponential;
using numerics::Gamma;

FrontendParams typical_frontend(double rate) {
  FrontendParams params;
  params.arrival_rate = rate;
  params.processes = 3;
  params.frontend_parse = std::make_shared<Degenerate>(0.0008);
  return params;
}

DeviceParams typical_device(double rate) {
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

TEST(FrontendModel, MG1SojournOnParsing) {
  const FrontendModel model(typical_frontend(600.0));
  EXPECT_NEAR(model.per_process_rate(), 200.0, 1e-12);
  EXPECT_NEAR(model.utilization(), 200.0 * 0.0008, 1e-12);
  // M/D/1 sojourn mean: b + rho b / (2(1 - rho)).
  const double rho = 0.16;
  const double expected = 0.0008 + rho * 0.0008 / (2.0 * (1.0 - rho));
  EXPECT_NEAR(model.queueing_latency()->mean(), expected, 1e-12);
}

TEST(FrontendModel, RejectsOverload) {
  FrontendParams params = typical_frontend(600.0);
  params.frontend_parse = std::make_shared<Degenerate>(0.01);  // rho = 2
  EXPECT_THROW(FrontendModel{params}, std::invalid_argument);
}

TEST(FrontendModel, HeterogeneousGroupsMixByTrafficShare) {
  // Sec. III-C: heterogeneous frontends = homogeneous sets solved
  // separately.  A 2-group tier must equal the share-weighted mixture of
  // the corresponding homogeneous tiers.
  FrontendParams fast_params;
  fast_params.arrival_rate = 60.0;  // 0.6 share of 100
  fast_params.processes = 2;
  fast_params.frontend_parse = std::make_shared<Degenerate>(0.0005);
  FrontendParams slow_params;
  slow_params.arrival_rate = 40.0;  // 0.4 share of 100
  slow_params.processes = 1;
  slow_params.frontend_parse = std::make_shared<Degenerate>(0.002);

  FrontendParams hetero;
  hetero.arrival_rate = 100.0;
  hetero.groups = {
      {2, 0.6, std::make_shared<Degenerate>(0.0005)},
      {1, 0.4, std::make_shared<Degenerate>(0.002)},
  };
  const FrontendModel fast(fast_params);
  const FrontendModel slow(slow_params);
  const FrontendModel mixed(hetero);
  EXPECT_NEAR(mixed.queueing_latency()->mean(),
              0.6 * fast.queueing_latency()->mean() +
                  0.4 * slow.queueing_latency()->mean(),
              1e-12);
  for (double t : {0.001, 0.003, 0.01}) {
    EXPECT_NEAR(mixed.queueing_latency()->cdf(t),
                0.6 * fast.queueing_latency()->cdf(t) +
                    0.4 * slow.queueing_latency()->cdf(t),
                1e-6)
        << t;
  }
  // Utilization reports the busiest group.
  EXPECT_NEAR(mixed.utilization(),
              std::max(30.0 * 0.0005, 40.0 * 0.002), 1e-12);
}

TEST(FrontendModel, HeterogeneousValidation) {
  FrontendParams params;
  params.arrival_rate = 100.0;
  params.groups = {{1, 0.5, std::make_shared<Degenerate>(0.001)},
                   {1, 0.6, std::make_shared<Degenerate>(0.001)}};
  EXPECT_THROW(FrontendModel{params}, std::invalid_argument);  // sum != 1
  params.groups = {{1, 1.0, nullptr}};
  EXPECT_THROW(FrontendModel{params}, std::invalid_argument);
  params.groups = {{1, 1.0, std::make_shared<Degenerate>(0.02)}};
  // 100 req/s * 20 ms parse on one process: overloaded group.
  EXPECT_THROW(FrontendModel{params}, std::invalid_argument);
}

TEST(SystemModel, HeterogeneousFrontendFeedsEq2) {
  SystemParams params;
  params.frontend.arrival_rate = 40.0;
  params.frontend.groups = {
      {2, 0.7, std::make_shared<Degenerate>(0.0008)},
      {1, 0.3, std::make_shared<Degenerate>(0.0016)},
  };
  params.devices = {typical_device(40.0)};
  const SystemModel model(params);
  for (double sla : {0.010, 0.050, 0.100}) {
    const double p = model.predict_sla_percentile(sla);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  EXPECT_GT(model.predict_sla_percentile(0.5), 0.999);
}

TEST(SystemModel, Eq3IsRateWeightedMixture) {
  SystemParams params;
  params.frontend = typical_frontend(70.0);
  params.devices = {typical_device(30.0), typical_device(40.0)};
  // Make device 1 slower so the mixture weighting is visible.
  params.devices[1].data_miss_ratio = 1.0;
  const SystemModel model(params);
  for (double sla : {0.020, 0.050, 0.100}) {
    const double d0 = model.predict_sla_percentile_device(0, sla);
    const double d1 = model.predict_sla_percentile_device(1, sla);
    const double combined = model.predict_sla_percentile(sla);
    EXPECT_NEAR(combined, (30.0 * d0 + 40.0 * d1) / 70.0, 1e-9) << sla;
    EXPECT_GE(d0, d1) << "all-miss device must be slower";
  }
}

TEST(SystemModel, WtaMakesPredictionsMorePessimistic) {
  SystemParams params;
  params.frontend = typical_frontend(40.0);
  params.devices = {typical_device(40.0)};
  const SystemModel full(params);
  const SystemModel no_wta(params, {.include_wta = false});
  for (double sla : {0.010, 0.050, 0.100}) {
    EXPECT_LE(full.predict_sla_percentile(sla),
              no_wta.predict_sla_percentile(sla) + 1e-9)
        << sla;
  }
  // And the gap widens with load (longer queues -> longer accept waits).
  SystemParams heavy = params;
  heavy.frontend = typical_frontend(55.0);
  heavy.devices = {typical_device(55.0)};
  const SystemModel full_heavy(heavy);
  const SystemModel no_wta_heavy(heavy, {.include_wta = false});
  const double gap_light = no_wta.predict_sla_percentile(0.05) -
                           full.predict_sla_percentile(0.05);
  const double gap_heavy = no_wta_heavy.predict_sla_percentile(0.05) -
                           full_heavy.predict_sla_percentile(0.05);
  EXPECT_GT(gap_heavy, gap_light);
}

TEST(SystemModel, LatencyQuantileInvertsPercentile) {
  SystemParams params;
  params.frontend = typical_frontend(40.0);
  params.devices = {typical_device(40.0)};
  const SystemModel model(params);
  for (double p : {0.5, 0.9, 0.95}) {
    const double t = model.latency_quantile(p);
    EXPECT_NEAR(model.predict_sla_percentile(t), p, 1e-6) << p;
  }
}

TEST(SystemModel, PercentileMonotoneInSlaAndLoad) {
  SystemParams params;
  params.frontend = typical_frontend(30.0);
  params.devices = {typical_device(30.0)};
  const SystemModel light(params);
  EXPECT_LE(light.predict_sla_percentile(0.01),
            light.predict_sla_percentile(0.05));
  EXPECT_LE(light.predict_sla_percentile(0.05),
            light.predict_sla_percentile(0.10));

  SystemParams heavier = params;
  heavier.frontend = typical_frontend(50.0);
  heavier.devices = {typical_device(50.0)};
  const SystemModel heavy(heavier);
  for (double sla : {0.010, 0.050, 0.100}) {
    EXPECT_LE(heavy.predict_sla_percentile(sla),
              light.predict_sla_percentile(sla) + 1e-9)
        << sla;
  }
}

TEST(SystemModel, ValidatesRateConsistency) {
  SystemParams params;
  params.frontend = typical_frontend(100.0);
  params.devices = {typical_device(30.0)};  // 30 != 100
  EXPECT_THROW(SystemModel{params}, std::invalid_argument);
  SystemParams empty;
  empty.frontend = typical_frontend(10.0);
  EXPECT_THROW(SystemModel{empty}, std::invalid_argument);
}

}  // namespace
}  // namespace cosm::core
