#include <gtest/gtest.h>

#include <cmath>

#include "numerics/quadrature.hpp"
#include "numerics/roots.hpp"

namespace cosm::numerics {
namespace {

TEST(NewtonSafeguarded, ConvergesQuadratically) {
  const auto f = [](double x) { return x * x * x - 8.0; };
  const auto df = [](double x) { return 3.0 * x * x; };
  const RootResult r = newton_safeguarded(f, df, 1.0, 0.0, 10.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 2.0, 1e-10);
  EXPECT_LT(r.iterations, 20);
}

TEST(NewtonSafeguarded, SurvivesBadDerivative) {
  // f'(x0) = 0 at the start: safeguard must bisect instead of dividing by 0.
  const auto f = [](double x) { return x * x - 4.0; };
  const auto df = [](double x) { return 2.0 * x; };
  const RootResult r = newton_safeguarded(f, df, 0.0, -1.0, 5.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 2.0, 1e-8);
}

TEST(GaussLegendre, MatchesAdaptiveOnSmoothIntegrand) {
  const auto f = [](double x) { return std::exp(-x) * std::cos(x); };
  const double expected = 0.5 * (1.0 + std::exp(-5.0) *
                                           (std::sin(5.0) - std::cos(5.0)));
  EXPECT_NEAR(integrate_gauss(f, 0.0, 5.0, 4), expected, 1e-12);
}

TEST(GaussLegendreComplex, IntegratesComplexExponential) {
  // Integral of e^{-(1+2i)t} over [0, 10] = (1 - e^{-(1+2i)10})/(1+2i).
  const std::complex<double> s(1.0, 2.0);
  const auto f = [s](double t) { return std::exp(-s * t); };
  const std::complex<double> expected = (1.0 - std::exp(-s * 10.0)) / s;
  const std::complex<double> got = integrate_gauss_complex(f, 0.0, 10.0, 8);
  EXPECT_NEAR(got.real(), expected.real(), 1e-12);
  EXPECT_NEAR(got.imag(), expected.imag(), 1e-12);
}

TEST(GaussLegendre, RejectsBadArguments) {
  EXPECT_THROW(integrate_gauss([](double) { return 0.0; }, 1.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(integrate_gauss([](double) { return 0.0; }, 0.0, 1.0, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace cosm::numerics
