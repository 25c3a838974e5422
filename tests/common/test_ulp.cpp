// common/ulp.hpp: the ULP-distance comparison helper perf_numerics_tape
// and the numerics tests share.  The properties under test are the ones callers
// lean on: exact symmetry, monotonicity with actual spacing, saturation
// on sign changes and NaN, and the complex overload taking the worse
// component.
#include "common/ulp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>

namespace {

using cosm::common::ulp_close;
using cosm::common::ulp_distance;

TEST(Ulp, IdenticalValuesAreZeroApart) {
  EXPECT_EQ(ulp_distance(1.0, 1.0), 0);
  EXPECT_EQ(ulp_distance(0.0, 0.0), 0);
  EXPECT_EQ(ulp_distance(-3.5e300, -3.5e300), 0);
  // +0.0 and -0.0 are bitwise distinct but numerically equal; the helper
  // treats them as coincident (callers needing sign-of-zero identity
  // compare representations directly, as the tape bit-identity gates do).
  EXPECT_EQ(ulp_distance(0.0, -0.0), 0);
}

TEST(Ulp, AdjacentDoublesAreOneApart) {
  const double x = 1.0;
  const double up = std::nextafter(x, 2.0);
  const double down = std::nextafter(x, 0.0);
  EXPECT_EQ(ulp_distance(x, up), 1);
  EXPECT_EQ(ulp_distance(up, x), 1);  // symmetric
  EXPECT_EQ(ulp_distance(x, down), 1);
  EXPECT_EQ(ulp_distance(down, up), 2);
}

TEST(Ulp, CountsStepsAcrossMagnitudes) {
  double x = 1e-7;
  for (int steps = 0; steps < 10; ++steps) {
    EXPECT_EQ(ulp_distance(1e-7, x), steps);
    x = std::nextafter(x, 1.0);
  }
}

TEST(Ulp, SignCrossingsCountThroughZero) {
  // The mapping is monotone across zero, so a small sign straddle is a
  // short, exact distance...
  const double denorm = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(ulp_distance(denorm, -denorm), 2);
  EXPECT_EQ(ulp_distance(-denorm, denorm), 2);
  // ...while a distance too large for int64 saturates instead of wrapping.
  const double huge = std::numeric_limits<double>::max();
  EXPECT_EQ(ulp_distance(huge, -huge),
            std::numeric_limits<std::int64_t>::max());
}

TEST(Ulp, NanIsMaximallyFar) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(ulp_distance(nan, 1.0), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(ulp_distance(1.0, nan), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(ulp_distance(nan, nan), std::numeric_limits<std::int64_t>::max());
}

TEST(Ulp, ZeroToSmallestDenormalIsOneStep) {
  EXPECT_EQ(ulp_distance(0.0, std::numeric_limits<double>::denorm_min()), 1);
}

TEST(Ulp, ComplexTakesWorseComponent) {
  const std::complex<double> a(1.0, 2.0);
  const std::complex<double> b(std::nextafter(1.0, 2.0),
                               std::nextafter(std::nextafter(2.0, 3.0), 3.0));
  EXPECT_EQ(ulp_distance(a, a), 0);
  EXPECT_EQ(ulp_distance(a, b), 2);  // imag is 2 ulp off, re only 1
}

TEST(Ulp, UlpCloseMatchesDistance) {
  const double x = 1.0;
  double y = x;
  for (int steps = 0; steps < 4; ++steps) y = std::nextafter(y, 2.0);
  EXPECT_TRUE(ulp_close(x, y, 4));
  EXPECT_FALSE(ulp_close(x, y, 3));
  EXPECT_TRUE(ulp_close(x, x, 0));
}

}  // namespace
