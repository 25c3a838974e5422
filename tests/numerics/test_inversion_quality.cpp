// Inversion-quality verdicts: the clamp in cdf_from_laplace used to be
// silent — a wildly out-of-range Euler sum was floored into [0, 1] and
// handed to callers as a valid CDF value.  These tests pin the new
// behavior: the returned value is unchanged (bit-identical to the
// historical clamp), but the verdict is classified, surfaced through the
// _checked entry points, propagated by cdf_many_from_laplace, and
// counted in the obs registry.
#include "numerics/lt_inversion.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <limits>
#include <vector>

#include "numerics/distribution.hpp"
#include "obs/obs.hpp"

namespace cosm::numerics {
namespace {

struct ObsGuard {
  ObsGuard() {
    obs::reset();
    obs::set_enabled(true);
  }
  ~ObsGuard() {
    obs::set_enabled(false);
    obs::reset();
  }
};

LaplaceFn gamma_lt() {
  static const Gamma gamma(3.0, 300.0);
  return [](std::complex<double> s) { return gamma.laplace(s); };
}

// Not a probability transform at all: L[F](s) = c / s inverts to the
// constant c, so the raw CDF value is far outside [0, 1] — a controlled,
// deterministic divergence.
LaplaceFn constant_lt(double c) {
  return [c](std::complex<double>) { return std::complex<double>(c, 0.0); };
}

TEST(ClassifyCdfValue, Thresholds) {
  EXPECT_EQ(classify_cdf_value(0.5), InversionQuality::kConverged);
  EXPECT_EQ(classify_cdf_value(0.0), InversionQuality::kConverged);
  EXPECT_EQ(classify_cdf_value(1.0), InversionQuality::kConverged);
  EXPECT_EQ(classify_cdf_value(-1e-10), InversionQuality::kConverged);
  EXPECT_EQ(classify_cdf_value(1.0 + 1e-10), InversionQuality::kConverged);
  // The converged band is the model's CDF error budget (1e-7 on F).
  EXPECT_EQ(classify_cdf_value(1.0 + 3e-8), InversionQuality::kConverged);
  EXPECT_EQ(classify_cdf_value(1.0 + 2e-7), InversionQuality::kTruncated);
  EXPECT_EQ(classify_cdf_value(-2e-7), InversionQuality::kTruncated);
  EXPECT_EQ(classify_cdf_value(-1e-6), InversionQuality::kTruncated);
  EXPECT_EQ(classify_cdf_value(1.0 + 1e-4), InversionQuality::kTruncated);
  EXPECT_EQ(classify_cdf_value(-0.4), InversionQuality::kClamped);
  EXPECT_EQ(classify_cdf_value(5.0), InversionQuality::kClamped);
  EXPECT_EQ(classify_cdf_value(std::numeric_limits<double>::quiet_NaN()),
            InversionQuality::kNonFinite);
  EXPECT_EQ(classify_cdf_value(std::numeric_limits<double>::infinity()),
            InversionQuality::kNonFinite);
}

TEST(InversionQualityVerdict, WellBehavedTransformConverges) {
  const CdfPoint point = cdf_from_laplace_checked(gamma_lt(), 0.01);
  EXPECT_EQ(point.quality, InversionQuality::kConverged);
  EXPECT_GT(point.value, 0.0);
  EXPECT_LT(point.value, 1.0);
}

TEST(InversionQualityVerdict, CheckedValueIsBitIdenticalToLegacy) {
  for (const double t : {1e-4, 1e-3, 0.01, 0.05, 0.5}) {
    EXPECT_EQ(cdf_from_laplace(gamma_lt(), t),
              cdf_from_laplace_checked(gamma_lt(), t).value);
  }
  // The divergent transform too: the clamp result itself is preserved.
  EXPECT_EQ(cdf_from_laplace(constant_lt(5.0), 0.01),
            cdf_from_laplace_checked(constant_lt(5.0), 0.01).value);
}

TEST(InversionQualityVerdict, ForcedDivergenceIsReportedNotSilent) {
  const CdfPoint point = cdf_from_laplace_checked(constant_lt(5.0), 0.01);
  // Historical behavior: the value is clamped into [0, 1]...
  EXPECT_GE(point.value, 0.0);
  EXPECT_LE(point.value, 1.0);
  // ...new behavior: the caller is told the value is a fabrication.
  EXPECT_EQ(point.quality, InversionQuality::kClamped);
}

TEST(InversionQualityVerdict, NonFiniteTransformIsFlagged) {
  const LaplaceFn nan_lt = [](std::complex<double>) {
    return std::complex<double>(std::numeric_limits<double>::quiet_NaN(),
                                0.0);
  };
  const CdfPoint point = cdf_from_laplace_checked(nan_lt, 0.01);
  EXPECT_EQ(point.quality, InversionQuality::kNonFinite);
  // The legacy value contract (NaN passes through std::clamp) holds.
  EXPECT_TRUE(std::isnan(point.value));
  EXPECT_TRUE(std::isnan(cdf_from_laplace(nan_lt, 0.01)));
}

TEST(InversionQualityVerdict, NonPositiveTimeIsExactZero) {
  const CdfPoint point = cdf_from_laplace_checked(gamma_lt(), 0.0);
  EXPECT_EQ(point.value, 0.0);
  EXPECT_EQ(point.quality, InversionQuality::kConverged);
}

TEST(CdfManyQuality, PropagatesPerPointVerdicts) {
  const Gamma gamma(3.0, 300.0);
  const BatchLaplaceFn batch = [&](std::span<const std::complex<double>> s,
                                   std::span<std::complex<double>> out) {
    for (std::size_t i = 0; i < s.size(); ++i) out[i] = gamma.laplace(s[i]);
  };
  const std::vector<double> ts = {0.0, 0.005, 0.02, -1.0, 0.1};
  std::vector<InversionQuality> quality(ts.size(),
                                        InversionQuality::kNonFinite);
  const std::vector<double> values =
      cdf_many_from_laplace(batch, ts, 20, quality);
  const std::vector<double> legacy = cdf_many_from_laplace(batch, ts, 20);
  ASSERT_EQ(values.size(), ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(values[i], legacy[i]) << "value drift at point " << i;
    EXPECT_EQ(quality[i], InversionQuality::kConverged) << "point " << i;
  }
}

TEST(CdfManyQuality, DivergentBatchFlagsEveryLivePoint) {
  const BatchLaplaceFn batch = [](std::span<const std::complex<double>> s,
                                  std::span<std::complex<double>> out) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      out[i] = std::complex<double>(7.0, 0.0);
    }
  };
  const std::vector<double> ts = {0.01, 0.0, 0.02};
  std::vector<InversionQuality> quality(ts.size(),
                                        InversionQuality::kConverged);
  cdf_many_from_laplace(batch, ts, 20, quality);
  EXPECT_EQ(quality[0], InversionQuality::kClamped);
  EXPECT_EQ(quality[1], InversionQuality::kConverged);  // exact 0 at t<=0
  EXPECT_EQ(quality[2], InversionQuality::kClamped);
}

TEST(CdfManyQuality, MismatchedQualitySpanThrows) {
  const BatchLaplaceFn batch = [](std::span<const std::complex<double>> s,
                                  std::span<std::complex<double>> out) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      out[i] = std::complex<double>(1.0, 0.0);
    }
  };
  const std::vector<double> ts = {0.01, 0.02};
  std::vector<InversionQuality> wrong(1);
  EXPECT_THROW(cdf_many_from_laplace(batch, ts, 20, wrong),
               std::invalid_argument);
}

TEST(InversionQualityCounters, EveryInversionBumpsExactlyOneVerdict) {
  ObsGuard guard;
  cdf_from_laplace_checked(gamma_lt(), 0.01);        // converged
  cdf_from_laplace_checked(constant_lt(5.0), 0.01);  // clamped
  EXPECT_EQ(obs::counter_value(obs::Counter::kInversionConverged), 1u);
  EXPECT_EQ(obs::counter_value(obs::Counter::kInversionClamped), 1u);
  EXPECT_EQ(obs::counter_value(obs::Counter::kInversionCalls), 2u);
  // Euler at m=20 costs 2m+1 = 41 contour terms per inversion.
  EXPECT_EQ(obs::counter_value(obs::Counter::kInversionTerms), 82u);
}

}  // namespace
}  // namespace cosm::numerics
