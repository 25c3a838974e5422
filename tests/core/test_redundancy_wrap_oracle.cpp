// The redundancy wrap on the model's own CDFs, against an oracle that
// shares none of its code: the closed forms of the k-th of n, the hedge
// race and the correlation blend, written out here, applied to the base
// response's scalar tree walk inverted at M = 20.  The wrap reads the
// base tape at kModelEulerOrder, which holds the base within
// numerics::kCdfErrorBudget of M = 20 over the service family; the map's
// slope in F is at most n (2 for hedging), so the wrapped CDF must stay
// within n x budget.
#include <cmath>
#include <complex>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/backend_model.hpp"
#include "core/system_model.hpp"
#include "numerics/distribution.hpp"
#include "numerics/lt_inversion.hpp"
#include "numerics/transform_tape.hpp"

namespace cosm::core {
namespace {

using numerics::CdfDensityPoint;
using numerics::Degenerate;
using numerics::Gamma;
using numerics::RedundancyWrap;

// Four devices of the service's cluster family at `rate` req/s each.
SystemParams family(double rate) {
  SystemParams params;
  params.frontend.processes = 3;
  params.frontend.frontend_parse = std::make_shared<Degenerate>(0.8e-3);
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
  for (int d = 0; d < 4; ++d) {
    params.frontend.arrival_rate += rate;
    params.devices.push_back(device);
  }
  return params;
}

struct WrapCase {
  std::string label;
  RedundancyWrap wrap;
};

std::vector<WrapCase> wrap_cases() {
  std::vector<WrapCase> cases;
  for (const double c : {0.0, 0.5}) {
    const std::string suffix = c > 0.0 ? " corr 0.5" : " corr 0";
    cases.push_back({"min-of-2" + suffix, RedundancyWrap::kth_of_n(2, 1, c)});
    cases.push_back({"min-of-3" + suffix, RedundancyWrap::kth_of_n(3, 1, c)});
    cases.push_back({"2-of-3" + suffix, RedundancyWrap::kth_of_n(3, 2, c)});
    cases.push_back({"hedge-40ms" + suffix, RedundancyWrap::hedge(0.04, c)});
  }
  return cases;
}

// The oracle's closed forms, from the base F at t and at t - d.
double oracle_cdf(const RedundancyWrap& wrap, double f, double f_shifted) {
  double os = f;
  if (wrap.mode() == RedundancyWrap::Mode::kHedge) {
    os = 1.0 - (1.0 - f) * (1.0 - f_shifted);
  } else {
    const unsigned n = wrap.n();
    os = 0.0;
    for (unsigned j = wrap.k(); j <= n; ++j) {
      os += std::tgamma(n + 1.0) / (std::tgamma(j + 1.0) *
                                    std::tgamma(n - j + 1.0)) *
            std::pow(f, j) * std::pow(1.0 - f, n - j);
    }
  }
  const double c = wrap.correlation();
  return 1.0 - std::pow(1.0 - os, 1.0 - c) * std::pow(1.0 - f, c);
}

// The base's scalar tree walk, fed to the inverter one node at a time,
// inverted at M = 20.
double tree_walk_cdf(const numerics::DistPtr& base, double t) {
  const numerics::BatchLaplaceFn lt =
      [&base](std::span<const std::complex<double>> s,
              std::span<std::complex<double>> out) {
        for (std::size_t i = 0; i < s.size(); ++i) out[i] = base->laplace(s[i]);
      };
  CdfDensityPoint point;
  numerics::invert_cdf(lt, std::span<const double>(&t, 1), 20,
                       std::span<CdfDensityPoint>(&point, 1));
  return point.cdf.value;
}

// The tape's unwrapped (F, f) at t, at the model's Euler order.
CdfDensityPoint tape_point(const numerics::TransformTape& tape, double t) {
  CdfDensityPoint point;
  tape.invert_cdf(std::span<const double>(&t, 1), kModelEulerOrder,
                  std::span<CdfDensityPoint>(&point, 1));
  return point;
}

// A device's wrapped (F, f) at t: a one-element evaluation.
CdfDensityPoint device_point(const DeviceModel& device, double t) {
  CdfDensityPoint point;
  device.cdf_density(std::span<const double>(&t, 1),
                     std::span<CdfDensityPoint>(&point, 1));
  return point;
}

double tolerance(const RedundancyWrap& wrap) {
  const double slope =
      wrap.mode() == RedundancyWrap::Mode::kHedge ? 2.0 : wrap.n();
  return slope * numerics::kCdfErrorBudget;
}

const std::vector<double> kSlas = {0.01, 0.02, 0.03, 0.05,
                                   0.08, 0.12, 0.2,  0.5};

TEST(RedundancyWrapOracle, CdfWithinBudgetOfTreeWalkClosedForm) {
  for (const double rate : {10.0, 30.0, 50.0}) {
    const SystemParams params = family(rate);
    const SystemModel model(params);
    const numerics::TransformTape& tape = model.devices()[0].response_tape();
    const numerics::DistPtr base =
        response_tree(model.frontend(), params.devices[0], {});
    for (const WrapCase& c : wrap_cases()) {
      const double d = c.wrap.delay();
      for (const double t : kSlas) {
        const double oracle = oracle_cdf(c.wrap, tree_walk_cdf(base, t),
                                         tree_walk_cdf(base, t - d));
        const double mapped = c.wrap.cdf(
            tape_point(tape, t).cdf.value,
            t > d ? tape_point(tape, t - d).cdf.value : 0.0);
        EXPECT_NEAR(mapped, oracle, tolerance(c.wrap))
            << c.label << " at " << rate << " req/s, t = " << t;
      }
    }
  }
}

TEST(RedundancyWrapOracle, DeviceModelAppliesTheWrapAtBuild) {
  // The shipped path: ModelOptions::redundancy builds the wrap over the
  // device's base tape, the fork-join correction at the utilization.
  using Mode = RedundancyOptions::Mode;
  const std::vector<RedundancyOptions> policies = {
      {.mode = Mode::kMinOfN, .n = 2},
      {.mode = Mode::kKthOfN, .n = 3, .k = 2},
      {.mode = Mode::kHedge, .hedge_delay = 0.04},
      {.mode = Mode::kHedge, .hedge_delay = 0.04,
       .fork_join_correction = false},
  };
  const SystemParams params = family(30.0);
  const SystemModel plain(params);
  const numerics::DistPtr base =
      response_tree(plain.frontend(), params.devices[0], {});
  const double utilization = BackendModel(params.devices[0]).utilization();
  for (const RedundancyOptions& policy : policies) {
    const SystemModel model(params, {.redundancy = policy});
    const DeviceModel& device = model.devices()[0];
    const RedundancyWrap& wrap = device.wrap();
    EXPECT_EQ(wrap.correlation(),
              policy.fork_join_correction ? utilization : 0.0);
    // The base is the plain model's, tape and all.
    EXPECT_EQ(device.response_tape().fingerprint(),
              plain.devices()[0].fingerprint());
    EXPECT_NE(device.fingerprint(), plain.devices()[0].fingerprint());
    std::vector<CdfDensityPoint> swept(kSlas.size());
    device.cdf_density(kSlas, swept);
    for (std::size_t i = 0; i < kSlas.size(); ++i) {
      const double t = kSlas[i];
      const double d = wrap.delay();
      const double oracle = oracle_cdf(wrap, tree_walk_cdf(base, t),
                                       tree_walk_cdf(base, t - d));
      const CdfDensityPoint one = device_point(device, t);
      EXPECT_NEAR(one.cdf.value, oracle, tolerance(wrap)) << t;
      EXPECT_EQ(swept[i].cdf.value, one.cdf.value) << t;
      EXPECT_EQ(swept[i].density, one.density) << t;
      EXPECT_EQ(model.predict_sla_percentile_device(0, t), one.cdf.value)
          << t;
    }
  }
}

TEST(RedundancyWrapOracle, DensityIsTheDerivativeOfTheCdf) {
  const SystemModel model(family(30.0));
  const numerics::TransformTape& tape = model.devices()[0].response_tape();
  const auto base = [&tape](double t) { return tape_point(tape, t); };
  constexpr double kStep = 1e-4;
  for (const WrapCase& c : wrap_cases()) {
    const double d = c.wrap.delay();
    const auto cdf = [&](double t) {
      return c.wrap.cdf_density(base(t), base(t - d)).cdf.value;
    };
    // Points clear of the hedge's splice at t = d.
    for (const double t : {0.01, 0.02, 0.03, 0.05, 0.08, 0.12, 0.2}) {
      const double density =
          c.wrap.cdf_density(base(t), base(t - d)).density;
      const double difference = (cdf(t + kStep) - cdf(t - kStep)) /
                                (2.0 * kStep);
      EXPECT_NEAR(density, difference, 1e-3 * std::max(density, 1.0))
          << c.label << " at t = " << t;
    }
  }
}

TEST(RedundancyWrapOracle, MinOfExponentialsMeanIsOneOverNMu) {
  const double mu = 25.0;
  const auto exponential = std::make_shared<numerics::Exponential>(mu);
  const numerics::TransformTape tape =
      numerics::TransformTape::compile(exponential);
  for (const unsigned n : {1u, 2u, 3u, 5u}) {
    const double mean = RedundancyWrap::kth_of_n(n, 1).mean(
        tape, exponential->mean(), kModelEulerOrder);
    const double expected = 1.0 / (n * mu);
    EXPECT_NEAR(mean, expected, 1e-3 * expected) << n;
  }
}

}  // namespace
}  // namespace cosm::core
