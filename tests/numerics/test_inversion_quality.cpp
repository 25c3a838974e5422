// Inversion-quality verdicts: a wildly out-of-range Euler sum is still
// clamped into [0, 1], but invert_cdf classifies every point's raw sum,
// hands the verdict to the caller with the value, and counts it in the
// obs registry.  A multi-t call is bit-identical, point by point, to
// one-t calls.
#include "numerics/lt_inversion.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
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

// A scalar transform as the inverter's batch callee: one call per node.
BatchLaplaceFn batch_of(LaplaceFn lt) {
  return [lt = std::move(lt)](std::span<const std::complex<double>> s,
                              std::span<std::complex<double>> out) {
    for (std::size_t i = 0; i < s.size(); ++i) out[i] = lt(s[i]);
  };
}

// A one-t call of the inverter.
CdfDensityPoint invert_at(const BatchLaplaceFn& lt, double t) {
  CdfDensityPoint point;
  invert_cdf(lt, std::span<const double>(&t, 1), 20,
             std::span<CdfDensityPoint>(&point, 1));
  return point;
}

BatchLaplaceFn gamma_lt() {
  static const Gamma gamma(3.0, 300.0);
  return batch_of([](std::complex<double> s) { return gamma.laplace(s); });
}

// Not a probability transform at all: L[F](s) = c / s inverts to the
// constant c, so the raw CDF value is c — far outside [0, 1] for c = 5, a
// controlled, deterministic divergence.
BatchLaplaceFn constant_lt(double c) {
  return batch_of(
      [c](std::complex<double>) { return std::complex<double>(c, 0.0); });
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(ClassifyCdfValue, Thresholds) {
  // The constant transform c inverts to a raw sum of c (to ~1e-13), so
  // its verdict is the classification of c itself.
  const auto verdict = [](double c) {
    return invert_at(constant_lt(c), 0.01).cdf.quality;
  };
  EXPECT_EQ(verdict(0.5), InversionQuality::kConverged);
  EXPECT_EQ(verdict(0.0), InversionQuality::kConverged);
  EXPECT_EQ(verdict(1.0), InversionQuality::kConverged);
  EXPECT_EQ(verdict(-1e-10), InversionQuality::kConverged);
  EXPECT_EQ(verdict(1.0 + 1e-10), InversionQuality::kConverged);
  // The converged band is the model's CDF error budget (1e-7 on F).
  EXPECT_EQ(verdict(1.0 + 3e-8), InversionQuality::kConverged);
  EXPECT_EQ(verdict(1.0 + 2e-7), InversionQuality::kTruncated);
  EXPECT_EQ(verdict(-2e-7), InversionQuality::kTruncated);
  EXPECT_EQ(verdict(-1e-6), InversionQuality::kTruncated);
  EXPECT_EQ(verdict(1.0 + 1e-4), InversionQuality::kTruncated);
  EXPECT_EQ(verdict(-0.4), InversionQuality::kClamped);
  EXPECT_EQ(verdict(5.0), InversionQuality::kClamped);
  EXPECT_EQ(verdict(std::numeric_limits<double>::quiet_NaN()),
            InversionQuality::kNonFinite);
  EXPECT_EQ(verdict(std::numeric_limits<double>::infinity()),
            InversionQuality::kNonFinite);
}

TEST(InversionQualityVerdict, WellBehavedTransformConverges) {
  const CdfPoint point = invert_at(gamma_lt(), 0.01).cdf;
  EXPECT_EQ(point.quality, InversionQuality::kConverged);
  EXPECT_GT(point.value, 0.0);
  EXPECT_LT(point.value, 1.0);
}

TEST(InversionQualityVerdict, MixedBatchElementsMatchOneTCalls) {
  // Gamma, except below Re s = 100 (the contours of t >= 0.16 at m = 20),
  // where the transform is the divergent constant 7: one call holds
  // normal points, a divergent point and t <= 0 points.
  static const Gamma gamma(3.0, 300.0);
  const BatchLaplaceFn lt = batch_of([](std::complex<double> s) {
    return s.real() < 100.0 ? std::complex<double>(7.0, 0.0)
                            : gamma.laplace(s);
  });
  const std::vector<double> ts = {0.005, 0.0, 0.5, 0.02, -1.0, 0.05};
  std::vector<CdfDensityPoint> batch(ts.size());
  invert_cdf(lt, ts, 20, batch);
  EXPECT_EQ(batch[2].cdf.quality, InversionQuality::kClamped);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const CdfDensityPoint one = invert_at(lt, ts[i]);
    EXPECT_TRUE(same_bits(batch[i].cdf.value, one.cdf.value)) << ts[i];
    EXPECT_EQ(batch[i].cdf.quality, one.cdf.quality) << ts[i];
    EXPECT_TRUE(same_bits(batch[i].density, one.density)) << ts[i];
    if (i != 2) {
      EXPECT_EQ(batch[i].cdf.quality, InversionQuality::kConverged) << ts[i];
    }
  }
}

TEST(InversionQualityVerdict, ForcedDivergenceIsReportedNotSilent) {
  const CdfPoint point = invert_at(constant_lt(5.0), 0.01).cdf;
  // The value is clamped into [0, 1]...
  EXPECT_GE(point.value, 0.0);
  EXPECT_LE(point.value, 1.0);
  // ...and the caller is told it is a fabrication.
  EXPECT_EQ(point.quality, InversionQuality::kClamped);
}

TEST(InversionQualityVerdict, NonFiniteTransformIsFlagged) {
  const BatchLaplaceFn nan_lt = batch_of([](std::complex<double>) {
    return std::complex<double>(std::numeric_limits<double>::quiet_NaN(),
                                0.0);
  });
  const CdfPoint point = invert_at(nan_lt, 0.01).cdf;
  EXPECT_EQ(point.quality, InversionQuality::kNonFinite);
  // A NaN raw sum passes through the clamp.
  EXPECT_TRUE(std::isnan(point.value));
}

TEST(InversionQualityVerdict, NonPositiveTimeIsExactZero) {
  const CdfDensityPoint point = invert_at(gamma_lt(), 0.0);
  EXPECT_EQ(point.cdf.value, 0.0);
  EXPECT_EQ(point.cdf.quality, InversionQuality::kConverged);
  EXPECT_EQ(point.density, 0.0);
}

TEST(CdfManyQuality, PropagatesPerPointVerdicts) {
  const std::vector<double> ts = {0.0, 0.005, 0.02, -1.0, 0.1};
  std::vector<CdfDensityPoint> points(
      ts.size(), CdfDensityPoint{{-1.0, InversionQuality::kNonFinite}, -1.0});
  invert_cdf(gamma_lt(), ts, 20, points);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(points[i].cdf.quality, InversionQuality::kConverged)
        << "point " << i;
    if (ts[i] <= 0.0) {
      EXPECT_EQ(points[i].cdf.value, 0.0) << "point " << i;
    } else {
      EXPECT_GT(points[i].cdf.value, 0.0) << "point " << i;
      EXPECT_LT(points[i].cdf.value, 1.0) << "point " << i;
    }
  }
}

TEST(CdfManyQuality, DivergentBatchFlagsEveryLivePoint) {
  const std::vector<double> ts = {0.01, 0.0, 0.02};
  std::vector<CdfDensityPoint> points(ts.size());
  invert_cdf(constant_lt(7.0), ts, 20, points);
  EXPECT_EQ(points[0].cdf.quality, InversionQuality::kClamped);
  EXPECT_EQ(points[1].cdf.quality, InversionQuality::kConverged);  // t<=0
  EXPECT_EQ(points[2].cdf.quality, InversionQuality::kClamped);
}

TEST(CdfManyQuality, MismatchedQualitySpanThrows) {
  // The output span carries each point's verdict: one per t.
  const std::vector<double> ts = {0.01, 0.02};
  std::vector<CdfDensityPoint> wrong(1);
  EXPECT_THROW(invert_cdf(constant_lt(1.0), ts, 20, wrong),
               std::invalid_argument);
}

TEST(InversionQualityCounters, EveryInversionBumpsExactlyOneVerdict) {
  ObsGuard guard;
  invert_at(gamma_lt(), 0.01);        // converged
  invert_at(constant_lt(5.0), 0.01);  // clamped
  EXPECT_EQ(obs::counter_value(obs::Counter::kInversionConverged), 1u);
  EXPECT_EQ(obs::counter_value(obs::Counter::kInversionClamped), 1u);
  EXPECT_EQ(obs::counter_value(obs::Counter::kInversionCalls), 2u);
  // Euler at m=20 costs 2m+1 = 41 contour terms per inversion.
  EXPECT_EQ(obs::counter_value(obs::Counter::kInversionTerms), 82u);
  // A multi-t call counts one inversion per t > 0, none for t <= 0.
  const std::vector<double> ts = {0.01, 0.0, 0.02};
  std::vector<CdfDensityPoint> points(ts.size());
  invert_cdf(gamma_lt(), ts, 20, points);
  EXPECT_EQ(obs::counter_value(obs::Counter::kInversionConverged), 3u);
  EXPECT_EQ(obs::counter_value(obs::Counter::kInversionCalls), 4u);
  EXPECT_EQ(obs::counter_value(obs::Counter::kInversionTerms), 164u);
}

}  // namespace
}  // namespace cosm::numerics
