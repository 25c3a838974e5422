// Validation of the Euler Laplace-transform inverter (invert_cdf) against
// distributions with closed-form CDFs, plus agreement with an independent
// fixed-Talbot contour on a transform that only exists in LT space (an
// M/G/1-style rational form).
#include "numerics/lt_inversion.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>
#include <span>
#include <utility>
#include <vector>

#include "numerics/distribution.hpp"
#include "numerics/special.hpp"

namespace cosm::numerics {
namespace {

// A scalar transform as the inverter's batch callee: one call per node.
BatchLaplaceFn batch_of(LaplaceFn lt) {
  return [lt = std::move(lt)](std::span<const std::complex<double>> s,
                              std::span<std::complex<double>> out) {
    for (std::size_t i = 0; i < s.size(); ++i) out[i] = lt(s[i]);
  };
}

// A one-t call of the inverter.
CdfDensityPoint invert_at(const BatchLaplaceFn& lt, double t, int m = 20) {
  CdfDensityPoint point;
  invert_cdf(lt, std::span<const double>(&t, 1), m,
             std::span<CdfDensityPoint>(&point, 1));
  return point;
}

// Known pair: f(t) = rate * e^{-rate t}, L[f](s) = rate / (rate + s); the
// density comes from the same multi-t call as F.
TEST(EulerInversion, RecoversExponentialDensity) {
  const double rate = 3.0;
  const BatchLaplaceFn lt = batch_of([rate](std::complex<double> s) {
    return rate / (rate + s);
  });
  const std::vector<double> ts = {0.05, 0.2, 0.5, 1.0, 2.0};
  std::vector<CdfDensityPoint> points(ts.size());
  invert_cdf(lt, ts, 20, points);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const double t = ts[i];
    EXPECT_NEAR(points[i].density, rate * std::exp(-rate * t), 1e-8) << t;
    EXPECT_NEAR(points[i].cdf.value, 1.0 - std::exp(-rate * t), 2e-7) << t;
  }
}

struct CdfCase {
  const char* label;
  DistPtr dist;
  // Smooth transforms invert to ~1e-8.
  double tol;
};

// gtest copies the printed parameter into each ctest name; the default
// byte dump would carry the label and distribution pointers, which move
// with address-space randomisation, so print the label.
void PrintTo(const CdfCase& c, std::ostream* os) { *os << c.label; }

class CdfInversionTest : public ::testing::TestWithParam<CdfCase> {};

TEST_P(CdfInversionTest, MatchesClosedFormCdf) {
  const auto& dist = *GetParam().dist;
  const BatchLaplaceFn lt = batch_of(
      [&dist](std::complex<double> s) { return dist.laplace(s); });
  const double scale = dist.mean();
  for (double frac : {0.1, 0.25, 0.5, 1.0, 1.5, 2.5, 4.0, 6.0}) {
    const double t = frac * scale;
    EXPECT_NEAR(invert_at(lt, t).cdf.value, dist.cdf(t), GetParam().tol)
        << GetParam().label << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ClosedFormDistributions, CdfInversionTest,
    ::testing::Values(
        CdfCase{"exp_fast", std::make_shared<Exponential>(100.0), 2e-7},
        CdfCase{"exp_slow", std::make_shared<Exponential>(0.5), 2e-7},
        CdfCase{"gamma_skewed", std::make_shared<Gamma>(0.6, 50.0), 2e-7},
        CdfCase{"gamma_disklike", std::make_shared<Gamma>(2.8, 250.0), 2e-7},
        CdfCase{"gamma_sharp", std::make_shared<Gamma>(40.0, 2000.0), 2e-7}),
    [](const ::testing::TestParamInfo<CdfCase>& info) {
      return info.param.label;
    });

TEST(CdfInversion, HandlesAtomAtZeroMixtures) {
  // Cache-hit atoms leave a jump at t = 0; for t > 0 the inversion must
  // still track the continuous part shifted by the atom mass.
  const double miss = 0.3;
  const Gamma disk(2.0, 100.0);
  const BatchLaplaceFn lt = batch_of([&](std::complex<double> s) {
    return (1.0 - miss) + miss * disk.laplace(s);
  });
  for (double t : {0.005, 0.02, 0.05}) {
    const double expected = (1.0 - miss) + miss * disk.cdf(t);
    EXPECT_NEAR(invert_at(lt, t).cdf.value, expected, 1e-6) << t;
  }
}

TEST(CdfInversion, NonPositiveTimeIsZero) {
  const Exponential e(1.0);
  const BatchLaplaceFn lt = batch_of(
      [&e](std::complex<double> s) { return e.laplace(s); });
  for (const double t : {0.0, -1.0}) {
    const CdfDensityPoint point = invert_at(lt, t);
    EXPECT_EQ(point.cdf.value, 0.0) << t;
    EXPECT_EQ(point.density, 0.0) << t;
  }
}

// Fixed-Talbot inversion (Abate & Valkó 2004) with m nodes on the contour
// s(theta) = r theta (cot theta + i), r = 2m / (5t): an inversion
// independent of Euler's, kept here as its oracle.
double talbot_invert(const LaplaceFn& lt, double t, int m = 32) {
  const double r = 2.0 * m / (5.0 * t);
  double sum = 0.5 * std::exp(r * t) * lt({r, 0.0}).real();
  for (int k = 1; k < m; ++k) {
    const double theta = k * std::numbers::pi / m;
    const double cot = std::cos(theta) / std::sin(theta);
    const std::complex<double> s(r * theta * cot, r * theta);
    const double sigma = theta + (theta * cot - 1.0) * cot;
    sum += (std::exp(s * t) * lt(s) * std::complex<double>(1.0, sigma))
               .real();
  }
  return sum * r / m;
}

TEST(CrossAlgorithm, AgreeOnMG1StyleTransform) {
  // W(s) = (1 - rho) s / (r L_B(s) + s - r): the P–K waiting-time CDF of an
  // M/G/1 queue with Gamma service.  No closed-form CDF exists — Euler
  // must agree with the fixed-Talbot oracle.
  const double r = 30.0;
  const Gamma service(2.0, 100.0);  // mean 0.02, rho = 0.6
  const double rho = r * service.mean();
  const LaplaceFn w = [&](std::complex<double> s) {
    return (1.0 - rho) * s / (r * service.laplace(s) + s - r);
  };
  const LaplaceFn w_cdf = [&w](std::complex<double> s) { return w(s) / s; };
  for (double t : {0.01, 0.03, 0.08, 0.2}) {
    // The raw Euler sum for F: the density read of the CDF's transform.
    const double euler = invert_at(batch_of(w_cdf), t).density;
    EXPECT_NEAR(euler, talbot_invert(w_cdf, t), 1e-7) << t;
    EXPECT_GE(euler, 1.0 - rho - 1e-6) << t;  // atom at zero: P[W=0] = 1-rho
    EXPECT_LE(euler, 1.0 + 1e-9) << t;
    // The CDF read of W's own transform divides by s inside the inverter:
    // the same sum, clamped.
    EXPECT_EQ(invert_at(batch_of(w), t).cdf.value,
              std::clamp(euler, 0.0, 1.0))
        << t;
  }
}

// solve_quantile over (F, f) probes read from one Euler contour of the
// transform (a one-t invert_cdf call).
CdfDensityFn laplace_probe(const Distribution& d) {
  const BatchLaplaceFn lt = [&d](std::span<const std::complex<double>> s,
                                 std::span<std::complex<double>> out) {
    d.laplace_many(s, out);
  };
  return [lt](double t) { return invert_at(lt, t); };
}

TEST(QuantileFromLaplace, InvertsExponentialQuantiles) {
  const Exponential e(2.0);
  for (double p : {0.1, 0.5, 0.9, 0.99}) {
    const double expected = -std::log(1.0 - p) / 2.0;
    EXPECT_NEAR(solve_quantile(laplace_probe(e), p, e.mean()), expected, 1e-6)
        << p;
  }
}

TEST(QuantileFromLaplace, RejectsBadLevels) {
  const Exponential e(1.0);
  EXPECT_THROW(solve_quantile(laplace_probe(e), 0.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(solve_quantile(laplace_probe(e), 1.0, 1.0),
               std::invalid_argument);
}

TEST(Inversion, ParameterValidation) {
  // The term count must lie in the stable range [2, 30], whatever the t.
  const BatchLaplaceFn lt = batch_of(
      [](std::complex<double> s) { return 1.0 / (1.0 + s); });
  for (const int m : {1, 31, 50}) {
    EXPECT_THROW(invert_at(lt, 1.0, m), std::invalid_argument) << m;
    EXPECT_THROW(invert_at(lt, 0.0, m), std::invalid_argument) << m;
  }
  EXPECT_NO_THROW(invert_at(lt, 1.0, 2));
  EXPECT_NO_THROW(invert_at(lt, 1.0, 30));
}

}  // namespace
}  // namespace cosm::numerics
