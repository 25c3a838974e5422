// Tests for the redundancy wrap (numerics::RedundancyWrap): the pointwise
// order-statistic map checked against its closed forms on analytic base
// distributions, the fork-join correlation blend, the wrapped mean, the
// fingerprint, and parameter validation.  The map's accuracy on the
// model's own inverted CDFs is checked in
// tests/core/test_redundancy_wrap_oracle.cpp.
#include "numerics/redundancy_wrap.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>

#include "numerics/distribution.hpp"
#include "numerics/transform_tape.hpp"

namespace cosm::numerics {
namespace {

// The exact (F, f) of an Exponential(rate) at t (zero for t <= 0).
CdfDensityPoint exact(const Exponential& e, double t) {
  if (t <= 0.0) return {};
  return {{e.cdf(t), InversionQuality::kConverged},
          e.rate() * std::exp(-e.rate() * t)};
}

// The wrapped (F, f) at t over an exact Exponential base.
CdfDensityPoint wrapped(const RedundancyWrap& wrap, const Exponential& e,
                        double t) {
  return wrap.cdf_density(exact(e, t), exact(e, t - wrap.delay()));
}

double wrapped_cdf(const RedundancyWrap& wrap, const Exponential& e,
                   double t) {
  return wrap.cdf(e.cdf(t), t > wrap.delay() ? e.cdf(t - wrap.delay()) : 0.0);
}

// The wrapped mean over the Exponential's compiled tape at M = 20.
double wrapped_mean(const RedundancyWrap& wrap, const Exponential& e) {
  const TransformTape tape =
      TransformTape::compile(std::make_shared<Exponential>(e.rate()));
  return wrap.mean(tape, e.mean(), 20);
}

TEST(OrderStatistic, MinOfExponentialsMatchesAnalytic) {
  // Min of n i.i.d. Exponential(mu) is Exponential(n*mu) exactly.
  const double mu = 20.0;
  const unsigned n = 3;
  const Exponential base(mu);
  const RedundancyWrap min_of_n = RedundancyWrap::kth_of_n(n, 1);
  const Exponential analytic(static_cast<double>(n) * mu);
  for (const double t : {0.002, 0.01, 0.03, 0.08}) {
    const CdfDensityPoint point = wrapped(min_of_n, base, t);
    const CdfDensityPoint expected = exact(analytic, t);
    EXPECT_NEAR(point.cdf.value, expected.cdf.value, 1e-14) << t;
    EXPECT_NEAR(point.density, expected.density, 1e-12 * expected.density)
        << t;
  }
  EXPECT_NEAR(wrapped_mean(min_of_n, base), analytic.mean(),
              1e-3 * analytic.mean());
}

TEST(OrderStatistic, KthOfNMatchesBinomialFormula) {
  const double mu = 10.0;
  const Exponential base(mu);
  const RedundancyWrap second_of_three = RedundancyWrap::kth_of_n(3, 2);
  for (const double t : {0.01, 0.05, 0.1, 0.25}) {
    const double f = base.cdf(t);
    const double density = exact(base, t).density;
    // F_(2:3) = 3 f^2 (1-f) + f^3, f_(2:3) = 6 f (1-f) density.
    const double expected = 3.0 * f * f * (1.0 - f) + f * f * f;
    const CdfDensityPoint point = wrapped(second_of_three, base, t);
    EXPECT_NEAR(point.cdf.value, expected, 1e-15) << t;
    EXPECT_NEAR(point.density, 6.0 * f * (1.0 - f) * density,
                1e-12 * density)
        << t;
  }
  // 1 <= k' < k <= n orders stochastically: earlier order statistics are
  // faster everywhere.
  const RedundancyWrap first_of_three = RedundancyWrap::kth_of_n(3, 1);
  for (const double t : {0.02, 0.06, 0.15}) {
    EXPECT_GE(wrapped_cdf(first_of_three, base, t),
              wrapped_cdf(second_of_three, base, t))
        << t;
  }
  EXPECT_LT(wrapped_mean(first_of_three, base),
            wrapped_mean(second_of_three, base));
}

TEST(OrderStatistic, DegenerateCaseNEqualsOneIsIdentity) {
  const Exponential base(8.0);
  const RedundancyWrap identity = RedundancyWrap::kth_of_n(1, 1);
  for (const double t : {0.05, 0.2, 0.5}) {
    const CdfDensityPoint point = wrapped(identity, base, t);
    EXPECT_NEAR(point.cdf.value, base.cdf(t), 1e-15) << t;
    EXPECT_NEAR(point.density, exact(base, t).density, 1e-14) << t;
  }
  EXPECT_NEAR(wrapped_mean(identity, base), base.mean(), 1e-3 * base.mean());
  // The default wrap is the identity itself, bit for bit.
  const RedundancyWrap none;
  EXPECT_EQ(none.mode(), RedundancyWrap::Mode::kNone);
  const CdfDensityPoint at = exact(base, 0.2);
  EXPECT_EQ(none.cdf(at.cdf.value, 0.7), at.cdf.value);
  EXPECT_EQ(none.cdf_density(at, exact(base, 0.1)).density, at.density);
  EXPECT_EQ(wrapped_mean(none, base), base.mean());
}

TEST(OrderStatistic, CorrelationBlendInterpolatesTowardBase) {
  const Exponential base(10.0);
  const RedundancyWrap independent = RedundancyWrap::kth_of_n(3, 1, 0.0);
  const RedundancyWrap half = RedundancyWrap::kth_of_n(3, 1, 0.5);
  const RedundancyWrap saturated = RedundancyWrap::kth_of_n(3, 1, 1.0);
  for (const double t : {0.02, 0.08, 0.2}) {
    // Full correlation recovers the single-attempt CDF: no diversity.
    EXPECT_NEAR(wrapped_cdf(saturated, base, t), base.cdf(t), 1e-14) << t;
    EXPECT_NEAR(wrapped(saturated, base, t).density, exact(base, t).density,
                1e-12)
        << t;
    // Partial correlation sits strictly between.
    EXPECT_GE(wrapped_cdf(independent, base, t) + 1e-12,
              wrapped_cdf(half, base, t))
        << t;
    EXPECT_GE(wrapped_cdf(half, base, t) + 1e-12,
              wrapped_cdf(saturated, base, t))
        << t;
    // For the min, c = 0.5 is an effective replica count n - c (n - 1) = 2.
    EXPECT_NEAR(wrapped_cdf(half, base, t),
                1.0 - std::pow(1.0 - base.cdf(t), 2.0), 1e-14)
        << t;
  }
  EXPECT_LT(wrapped_mean(independent, base), wrapped_mean(saturated, base));
}

TEST(OrderStatistic, FingerprintSeparatesRedundancyDegrees) {
  const std::uint64_t base = 0x0123456789abcdefULL;
  const std::uint64_t two = RedundancyWrap::kth_of_n(2, 1).fingerprint(base);
  const std::uint64_t three =
      RedundancyWrap::kth_of_n(3, 1).fingerprint(base);
  const std::uint64_t coded =
      RedundancyWrap::kth_of_n(3, 2).fingerprint(base);
  const std::uint64_t correlated =
      RedundancyWrap::kth_of_n(2, 1, 0.25).fingerprint(base);
  const std::uint64_t hedged = RedundancyWrap::hedge(0.04).fingerprint(base);
  EXPECT_NE(two, three);
  EXPECT_NE(three, coded);
  EXPECT_NE(two, correlated);
  EXPECT_NE(two, hedged);
  EXPECT_NE(hedged, RedundancyWrap::hedge(0.05).fingerprint(base));
  EXPECT_NE(two, RedundancyWrap::kth_of_n(2, 1).fingerprint(base + 1));
  // Identically constructed wraps hash equal (cache-share safety), and
  // the identity wrap leaves the base fingerprint as it is.
  EXPECT_EQ(two, RedundancyWrap::kth_of_n(2, 1).fingerprint(base));
  EXPECT_EQ(RedundancyWrap().fingerprint(base), base);
}

TEST(OrderStatistic, RejectsInvalidParameters) {
  EXPECT_THROW(RedundancyWrap::kth_of_n(2, 0), std::invalid_argument);
  EXPECT_THROW(RedundancyWrap::kth_of_n(2, 3), std::invalid_argument);
  EXPECT_THROW(RedundancyWrap::kth_of_n(0, 1), std::invalid_argument);
  EXPECT_THROW(RedundancyWrap::kth_of_n(2, 1, -0.1), std::invalid_argument);
  EXPECT_THROW(RedundancyWrap::kth_of_n(2, 1, 1.5), std::invalid_argument);
  EXPECT_THROW(RedundancyWrap::kth_of_n(2, 1, std::nan("")),
               std::invalid_argument);
}

TEST(HedgedResponse, MatchesTheRacingFormula) {
  const double mu = 10.0;
  const double d = 0.05;
  const Exponential base(mu);
  const RedundancyWrap hedged = RedundancyWrap::hedge(d);
  for (const double t : {0.01, 0.04, d}) {
    // Up to the deadline only the primary can finish: F and f are the
    // base's, bit for bit.
    const CdfDensityPoint point = wrapped(hedged, base, t);
    EXPECT_EQ(point.cdf.value, base.cdf(t)) << t;
    EXPECT_EQ(point.density, exact(base, t).density) << t;
  }
  for (const double t : {0.08, 0.15, 0.3}) {
    const double f = base.cdf(t);
    const double f_shift = base.cdf(t - d);
    const double expected = 1.0 - (1.0 - f) * (1.0 - f_shift);
    // d/dt of the racing formula.
    const double expected_density =
        exact(base, t).density * (1.0 - f_shift) +
        exact(base, t - d).density * (1.0 - f);
    const CdfDensityPoint point = wrapped(hedged, base, t);
    EXPECT_NEAR(point.cdf.value, expected, 1e-15) << t;
    EXPECT_NEAR(point.density, expected_density, 1e-12 * expected_density)
        << t;
  }
  // Hedging helps the tail and never hurts the distribution.
  EXPECT_LT(wrapped_mean(hedged, base), base.mean());
}

TEST(HedgedResponse, LargeDelayDegeneratesToBase) {
  // A deadline far in the tail almost never fires: the hedged CDF is
  // the base up to the deadline and within the residual tail after.
  const Exponential base(10.0);
  const RedundancyWrap hedged = RedundancyWrap::hedge(5.0);
  for (const double t : {0.05, 0.2, 0.6}) {
    EXPECT_EQ(wrapped_cdf(hedged, base, t), base.cdf(t)) << t;
  }
  EXPECT_NEAR(wrapped_mean(hedged, base), base.mean(), 1e-3 * base.mean());
}

TEST(HedgedResponse, RejectsInvalidParameters) {
  EXPECT_THROW(RedundancyWrap::hedge(0.0), std::invalid_argument);
  EXPECT_THROW(RedundancyWrap::hedge(-1.0), std::invalid_argument);
  EXPECT_THROW(RedundancyWrap::hedge(0.1, 2.0), std::invalid_argument);
  EXPECT_THROW(RedundancyWrap::hedge(std::nan("")), std::invalid_argument);
}

}  // namespace
}  // namespace cosm::numerics
