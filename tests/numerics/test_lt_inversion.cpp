// Validation of the three Laplace-transform inversion algorithms against
// distributions with closed-form CDFs, plus cross-algorithm agreement on a
// transform that only exists in LT space (an M/G/1-style rational form).
#include "numerics/lt_inversion.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <span>

#include "numerics/distribution.hpp"
#include "numerics/special.hpp"

namespace cosm::numerics {
namespace {

// Known pair: f(t) = rate * e^{-rate t}, L[f](s) = rate / (rate + s).
TEST(EulerInversion, RecoversExponentialDensity) {
  const double rate = 3.0;
  const LaplaceFn lt = [rate](std::complex<double> s) {
    return rate / (rate + s);
  };
  for (double t : {0.05, 0.2, 0.5, 1.0, 2.0}) {
    EXPECT_NEAR(invert_euler(lt, t), rate * std::exp(-rate * t), 1e-8) << t;
  }
}

TEST(TalbotInversion, RecoversExponentialDensity) {
  const double rate = 3.0;
  const LaplaceFn lt = [rate](std::complex<double> s) {
    return rate / (rate + s);
  };
  for (double t : {0.05, 0.2, 0.5, 1.0, 2.0}) {
    EXPECT_NEAR(invert_talbot(lt, t), rate * std::exp(-rate * t), 1e-8) << t;
  }
}

TEST(GaverStehfest, RecoversExponentialDensity) {
  const double rate = 3.0;
  const RealLaplaceFn lt = [rate](double s) { return rate / (rate + s); };
  for (double t : {0.05, 0.2, 0.5, 1.0, 2.0}) {
    // Gaver–Stehfest in doubles gives ~5 digits; that is its job here.
    EXPECT_NEAR(invert_gaver_stehfest(lt, t), rate * std::exp(-rate * t),
                1e-4)
        << t;
  }
}

struct CdfCase {
  const char* label;
  DistPtr dist;
  // Smooth transforms invert to ~1e-8; densities with jumps (uniform) hit
  // the inherent Gibbs plateau of contour inversion near the kinks.
  double tol;
};

// gtest copies the printed parameter into each ctest name; the default
// byte dump would carry the label and distribution pointers, which move
// with address-space randomisation, so print the label.
void PrintTo(const CdfCase& c, std::ostream* os) { *os << c.label; }

class CdfInversionTest : public ::testing::TestWithParam<CdfCase> {};

TEST_P(CdfInversionTest, MatchesClosedFormCdf) {
  const auto& dist = *GetParam().dist;
  const LaplaceFn lt = [&dist](std::complex<double> s) {
    return dist.laplace(s);
  };
  const double scale = dist.mean();
  for (double frac : {0.1, 0.25, 0.5, 1.0, 1.5, 2.5, 4.0, 6.0}) {
    const double t = frac * scale;
    EXPECT_NEAR(cdf_from_laplace(lt, t), dist.cdf(t), GetParam().tol)
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
        CdfCase{"gamma_sharp", std::make_shared<Gamma>(40.0, 2000.0), 2e-7},
        CdfCase{"uniform", std::make_shared<Uniform>(0.001, 0.009), 5e-4}),
    [](const ::testing::TestParamInfo<CdfCase>& info) {
      return info.param.label;
    });

TEST(CdfInversion, HandlesAtomAtZeroMixtures) {
  // Cache-hit atoms leave a jump at t = 0; for t > 0 the inversion must
  // still track the continuous part shifted by the atom mass.
  const double miss = 0.3;
  const Gamma disk(2.0, 100.0);
  const LaplaceFn lt = [&](std::complex<double> s) {
    return (1.0 - miss) + miss * disk.laplace(s);
  };
  for (double t : {0.005, 0.02, 0.05}) {
    const double expected = (1.0 - miss) + miss * disk.cdf(t);
    EXPECT_NEAR(cdf_from_laplace(lt, t), expected, 1e-6) << t;
  }
}

TEST(CdfInversion, NonPositiveTimeIsZero) {
  const Exponential e(1.0);
  const LaplaceFn lt = [&e](std::complex<double> s) { return e.laplace(s); };
  EXPECT_EQ(cdf_from_laplace(lt, 0.0), 0.0);
  EXPECT_EQ(cdf_from_laplace(lt, -1.0), 0.0);
}

TEST(CrossAlgorithm, AgreeOnMG1StyleTransform) {
  // W(s) = (1 - rho) s / (r L_B(s) + s - r): the P–K waiting-time CDF of an
  // M/G/1 queue with Gamma service.  No closed-form CDF exists — all three
  // algorithms must agree with each other.
  const double r = 30.0;
  const Gamma service(2.0, 100.0);  // mean 0.02, rho = 0.6
  const double rho = r * service.mean();
  const LaplaceFn w = [&](std::complex<double> s) {
    return (1.0 - rho) * s / (r * service.laplace(s) + s - r);
  };
  const LaplaceFn w_cdf = [&w](std::complex<double> s) { return w(s) / s; };
  const RealLaplaceFn w_cdf_real = [&w](double s) {
    return w({s, 0.0}).real() / s;
  };
  for (double t : {0.01, 0.03, 0.08, 0.2}) {
    const double euler = invert_euler(w_cdf, t);
    const double talbot = invert_talbot(w_cdf, t);
    const double gs = invert_gaver_stehfest(w_cdf_real, t);
    EXPECT_NEAR(euler, talbot, 1e-7) << t;
    EXPECT_NEAR(euler, gs, 5e-4) << t;
    EXPECT_GE(euler, 1.0 - rho - 1e-6) << t;  // atom at zero: P[W=0] = 1-rho
    EXPECT_LE(euler, 1.0 + 1e-9) << t;
  }
}

// solve_quantile over (F, f) probes read from one Euler contour of the
// transform (cdf_density_from_laplace).
CdfDensityFn laplace_probe(const Distribution& d) {
  const BatchLaplaceFn lt = [&d](std::span<const std::complex<double>> s,
                                 std::span<std::complex<double>> out) {
    d.laplace_many(s, out);
  };
  return [lt](double t) { return cdf_density_from_laplace(lt, t); };
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
  const LaplaceFn lt = [](std::complex<double> s) { return 1.0 / (1.0 + s); };
  EXPECT_THROW(invert_euler(lt, 0.0), std::invalid_argument);
  EXPECT_THROW(invert_euler(lt, 1.0, 50), std::invalid_argument);
  EXPECT_THROW(invert_talbot(lt, -1.0), std::invalid_argument);
  const RealLaplaceFn rlt = [](double s) { return 1.0 / (1.0 + s); };
  EXPECT_THROW(invert_gaver_stehfest(rlt, 1.0, 13), std::invalid_argument);
  EXPECT_THROW(invert_gaver_stehfest(rlt, 1.0, 20), std::invalid_argument);
}

}  // namespace
}  // namespace cosm::numerics
