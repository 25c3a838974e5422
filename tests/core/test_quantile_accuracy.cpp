// Accuracy of the quantile solver (numerics::solve_quantile behind
// SystemModel::latency_quantile) against an independent oracle: plain
// bisection on predict_sla_percentile, run to 1e-12 relative.  The
// operating points are seeded draws over the service's cluster family —
// 1 to 12 devices at 30–45 req/s each, in two value classes so the
// rate-weighted reduction over distinct devices is exercised — plain, and
// under a hedge-40ms and a min-of-2 redundancy wrap.
#include <cmath>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/system_model.hpp"
#include "numerics/distribution.hpp"

namespace cosm::core {
namespace {

using numerics::Degenerate;
using numerics::Gamma;

// The service's default cluster family (service::ClusterSpec), with each
// device's rate given explicitly.
DeviceParams spec_device(double rate) {
  DeviceParams device;
  device.arrival_rate = rate;
  device.data_read_rate = rate * 1.2;
  device.index_miss_ratio = 0.3;
  device.meta_miss_ratio = 0.3;
  device.data_miss_ratio = 0.7;
  device.index_disk = std::make_shared<Gamma>(3.0, 300.0);
  device.meta_disk = std::make_shared<Gamma>(2.5, 312.5);
  device.data_disk = std::make_shared<Gamma>(2.8, 233.33);
  device.backend_parse = std::make_shared<Degenerate>(0.5e-3);
  device.processes = 1;
  return device;
}

SystemParams spec_cluster(const std::vector<double>& device_rates) {
  SystemParams params;
  params.frontend.processes = 3;
  params.frontend.frontend_parse = std::make_shared<Degenerate>(0.8e-3);
  for (const double rate : device_rates) {
    params.frontend.arrival_rate += rate;
    params.devices.push_back(spec_device(rate));
  }
  return params;
}

// Seeded operating points: device count in [1, 12]; even devices at
// rate_a, odd ones at rate_b, both in [30, 45] req/s.
std::vector<std::vector<double>> operating_points(std::size_t count) {
  Rng rng(20261017);
  std::vector<std::vector<double>> points;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t devices = 1 + rng.uniform_index(12);
    const double rate_a = rng.uniform(30.0, 45.0);
    const double rate_b = rng.uniform(30.0, 45.0);
    std::vector<double> rates;
    for (std::size_t d = 0; d < devices; ++d) {
      rates.push_back(d % 2 == 0 ? rate_a : rate_b);
    }
    points.push_back(std::move(rates));
  }
  return points;
}

// Test-only oracle: bisection on S(t) - p from a doubling/halving
// bracket around the mean, to 1e-12 relative width.
double bisection_quantile(const SystemModel& model, double p) {
  double lo = model.mean_response_latency();
  double hi = lo;
  while (model.predict_sla_percentile(lo) >= p) lo *= 0.5;
  while (model.predict_sla_percentile(hi) < p) hi *= 2.0;
  while (hi - lo > 1e-12 * hi) {
    const double mid = 0.5 * (lo + hi);
    (model.predict_sla_percentile(mid) < p ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

struct LevelCase {
  const char* label;
  double p;
};

void PrintTo(const LevelCase& c, std::ostream* os) { *os << c.label; }

class QuantileAccuracy : public ::testing::TestWithParam<LevelCase> {};

TEST_P(QuantileAccuracy, AgreesWithBisectionOracle) {
  const double p = GetParam().p;
  const std::vector<std::vector<double>> points = operating_points(100);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SystemModel model(spec_cluster(points[i]));
    const double oracle = bisection_quantile(model, p);
    const double solved = model.latency_quantile(p);
    EXPECT_NEAR(solved, oracle, 1e-6 * oracle)
        << "point " << i << ": " << points[i].size() << " devices at "
        << points[i].front() << " req/s";
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, QuantileAccuracy,
                         ::testing::Values(LevelCase{"p50", 0.5},
                                           LevelCase{"p90", 0.9},
                                           LevelCase{"p95", 0.95},
                                           LevelCase{"p99", 0.99},
                                           LevelCase{"p999", 0.999}),
                         [](const auto& info) {
                           return std::string(info.param.label);
                         });

// A redundancy policy at one percentile level.
struct RedundantCase {
  const char* label;
  RedundancyOptions redundancy;
  double p;
};

void PrintTo(const RedundantCase& c, std::ostream* os) { *os << c.label; }

class RedundantQuantileAccuracy
    : public ::testing::TestWithParam<RedundantCase> {};

TEST_P(RedundantQuantileAccuracy, AgreesWithBisectionOracle) {
  const RedundantCase& c = GetParam();
  const std::vector<std::vector<double>> points = operating_points(100);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SystemModel model(spec_cluster(points[i]),
                            {.redundancy = c.redundancy});
    const double oracle = bisection_quantile(model, c.p);
    const double solved = model.latency_quantile(c.p);
    EXPECT_NEAR(solved, oracle, 1e-6 * oracle)
        << "point " << i << ": " << points[i].size() << " devices at "
        << points[i].front() << " req/s";
  }
}

constexpr RedundancyOptions kHedge40ms = {
    .mode = RedundancyOptions::Mode::kHedge, .hedge_delay = 0.04};
constexpr RedundancyOptions kMinOf2 = {
    .mode = RedundancyOptions::Mode::kMinOfN, .n = 2};

INSTANTIATE_TEST_SUITE_P(
    Policies, RedundantQuantileAccuracy,
    ::testing::Values(RedundantCase{"hedge_40ms_p50", kHedge40ms, 0.5},
                      RedundantCase{"hedge_40ms_p90", kHedge40ms, 0.9},
                      RedundantCase{"hedge_40ms_p99", kHedge40ms, 0.99},
                      RedundantCase{"hedge_40ms_p999", kHedge40ms, 0.999},
                      RedundantCase{"min_of_2_p50", kMinOf2, 0.5},
                      RedundantCase{"min_of_2_p90", kMinOf2, 0.9},
                      RedundantCase{"min_of_2_p99", kMinOf2, 0.99},
                      RedundantCase{"min_of_2_p999", kMinOf2, 0.999}),
    [](const auto& info) { return std::string(info.param.label); });

TEST(QuantileRinging, LowPercentileIsACrossing) {
  // Lightly loaded (10 req/s per device), the response CDF has a
  // near-atom around 1.3 ms (the parse times), and the Euler-inverted
  // S(t) rings just past it, oscillating across 0.1.  Every crossing is a
  // valid p10, and different searches land on different ones; the
  // solver's answer must be one of them.
  const SystemModel model(spec_cluster(std::vector<double>(8, 10.0)));
  int crossings = 0;
  bool below = model.predict_sla_percentile(1.3e-3) < 0.1;
  for (int i = 1; i <= 110; ++i) {
    const double sla = 1.3e-3 + i * 1e-5;
    const bool now_below = model.predict_sla_percentile(sla) < 0.1;
    crossings += now_below != below ? 1 : 0;
    below = now_below;
  }
  ASSERT_GT(crossings, 1) << "S(t) no longer rings across 0.1 here";
  const double t = model.latency_quantile(0.1);
  EXPECT_GT(t, 0.0);
  EXPECT_NEAR(model.predict_sla_percentile(t), 0.1, 1e-6);
}

}  // namespace
}  // namespace cosm::core
