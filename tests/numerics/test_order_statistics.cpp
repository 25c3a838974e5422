// Tests for the order-statistic latency distributions (redundancy
// extension): analytic agreement for the closed-form cases, coherence of
// the grid-backed transform/CDF/moments, the fork-join correlation
// blend, and bit-identity between the scalar laplace() walk and the
// compiled tape (dedicated MIN-OF-K / KTH-OF-N ops for OrderStatistic,
// the generic-leaf path for HedgedResponse).
#include "numerics/order_statistics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <memory>
#include <vector>

#include "numerics/compose.hpp"
#include "numerics/lt_inversion.hpp"
#include "numerics/transform_tape.hpp"

namespace cosm::numerics {
namespace {

using Complex = std::complex<double>;

DistPtr exponential(double rate) {
  return std::make_shared<Exponential>(rate);
}

// Contour-like probes: real Euler abscissae, complex points, and the
// small-|s·dt| neighborhood where the series branch engages.
std::vector<Complex> probe_points() {
  return {{0.0, 0.0},   {1e-9, 0.0},   {0.5, 0.0},    {20.0, 0.0},
          {3.0, 40.0},  {12.5, -40.0}, {1e-4, 1e-4},  {80.0, 300.0}};
}

TEST(OrderStatistic, MinOfExponentialsMatchesAnalytic) {
  // Min of n i.i.d. Exponential(mu) is Exponential(n*mu) exactly.
  const double mu = 20.0;
  const unsigned n = 3;
  const OrderStatistic min_of_n(exponential(mu), n, 1);
  const Exponential analytic(static_cast<double>(n) * mu);
  EXPECT_NEAR(min_of_n.mean(), analytic.mean(), 0.01 * analytic.mean());
  for (const double t : {0.002, 0.01, 0.03, 0.08}) {
    EXPECT_NEAR(min_of_n.cdf(t), analytic.cdf(t), 2e-3) << t;
  }
  // The transform agrees on the real axis (where it is a smooth bounded
  // function the grid resolves well).
  for (const double s : {0.5, 5.0, 20.0}) {
    EXPECT_NEAR(min_of_n.laplace({s, 0.0}).real(),
                analytic.laplace({s, 0.0}).real(), 5e-3)
        << s;
  }
}

TEST(OrderStatistic, KthOfNMatchesBinomialFormula) {
  const double mu = 10.0;
  const unsigned n = 3;
  const unsigned k = 2;
  const DistPtr base = exponential(mu);
  const OrderStatistic second_of_three(base, n, k);
  for (const double t : {0.01, 0.05, 0.1, 0.25}) {
    const double f = base->cdf(t);
    // F_(2:3) = 3 f^2 (1-f) + f^3.
    const double expected = 3.0 * f * f * (1.0 - f) + f * f * f;
    EXPECT_NEAR(second_of_three.cdf(t), expected, 2e-3) << t;
  }
  // 1 <= k' < k <= n orders stochastically: earlier order statistics are
  // faster everywhere.
  const OrderStatistic first_of_three(base, n, 1);
  for (const double t : {0.02, 0.06, 0.15}) {
    EXPECT_GE(first_of_three.cdf(t), second_of_three.cdf(t)) << t;
  }
}

TEST(OrderStatistic, DegenerateCaseNEqualsOneIsIdentity) {
  const DistPtr base = exponential(8.0);
  const OrderStatistic identity(base, 1, 1);
  EXPECT_NEAR(identity.mean(), base->mean(), 0.01 * base->mean());
  for (const double t : {0.05, 0.2, 0.5}) {
    EXPECT_NEAR(identity.cdf(t), base->cdf(t), 2e-3) << t;
  }
}

TEST(OrderStatistic, TransformIsACoherentProbabilityDistribution) {
  const OrderStatistic dist(exponential(15.0), 3, 2);
  // L(0) = 1 exactly: atom masses and segment masses sum to one.
  const Complex at_zero = dist.laplace({0.0, 0.0});
  EXPECT_NEAR(at_zero.real(), 1.0, 1e-12);
  EXPECT_NEAR(at_zero.imag(), 0.0, 1e-12);
  // |L(s)| <= 1 on the right half-plane.
  for (const Complex s : probe_points()) {
    EXPECT_LE(std::abs(dist.laplace(s)), 1.0 + 1e-9);
  }
  // Inverting the transform recovers the grid CDF.
  const LaplaceFn lt = [&dist](Complex s) { return dist.laplace(s); };
  for (const double t : {0.02, 0.05, 0.12}) {
    EXPECT_NEAR(cdf_from_laplace(lt, t), dist.cdf(t), 5e-3) << t;
  }
}

TEST(OrderStatistic, CorrelationBlendInterpolatesTowardBase) {
  const DistPtr base = exponential(10.0);
  const OrderStatistic independent(base, 3, 1, 0.0);
  const OrderStatistic half(base, 3, 1, 0.5);
  const OrderStatistic saturated(base, 3, 1, 1.0);
  for (const double t : {0.02, 0.08, 0.2}) {
    // Full correlation recovers the single-attempt CDF: no diversity.
    EXPECT_NEAR(saturated.cdf(t), base->cdf(t), 2e-3) << t;
    // Partial correlation sits strictly between.
    EXPECT_GE(independent.cdf(t) + 1e-12, half.cdf(t)) << t;
    EXPECT_GE(half.cdf(t) + 1e-12, saturated.cdf(t)) << t;
  }
  EXPECT_LT(independent.mean(), saturated.mean());
}

TEST(OrderStatistic, TapeUsesDedicatedOpAndIsBitIdentical) {
  const auto dist =
      std::make_shared<OrderStatistic>(exponential(12.0), 3, 2, 0.25);
  const TransformTape tape = TransformTape::compile(dist);
  // The op is a flattened leaf, not a generic fallback.
  EXPECT_EQ(tape.generic_leaf_count(), 0u);
  EXPECT_EQ(tape.op_count(), 1u);
  const std::vector<Complex> s = probe_points();
  std::vector<Complex> out(s.size());
  tape.evaluate(s, out);
  for (std::size_t i = 0; i < s.size(); ++i) {
    const Complex scalar = dist->laplace(s[i]);
    EXPECT_EQ(out[i], scalar) << "probe " << i;
  }
  for (const double t : {0.01, 0.04, 0.1}) {
    const LaplaceFn lt = [&dist](Complex s_) { return dist->laplace(s_); };
    EXPECT_EQ(tape.cdf(t), cdf_from_laplace(lt, t)) << t;
  }
}

TEST(OrderStatistic, ComposesInsideConvolutions) {
  // An order statistic convolved with a deterministic offset — the shape
  // a redundant response takes inside larger model trees.
  const auto os = std::make_shared<OrderStatistic>(exponential(25.0), 2, 1);
  const auto tree = std::make_shared<Convolution>(
      std::vector<DistPtr>{std::make_shared<Degenerate>(0.003), os});
  const TransformTape tape = TransformTape::compile(tree);
  EXPECT_EQ(tape.generic_leaf_count(), 0u);
  for (const Complex s : probe_points()) {
    EXPECT_EQ(tape.batch_fn() != nullptr, true);
    std::vector<Complex> out(1);
    tape.evaluate(std::vector<Complex>{s}, out);
    EXPECT_EQ(out[0], tree->laplace(s));
  }
  EXPECT_NEAR(tree->mean(), 0.003 + os->mean(), 1e-12);
}

TEST(OrderStatistic, FingerprintSeparatesRedundancyDegrees) {
  const DistPtr base = exponential(10.0);
  const auto two = std::make_shared<OrderStatistic>(base, 2, 1);
  const auto three = std::make_shared<OrderStatistic>(base, 3, 1);
  const auto coded = std::make_shared<OrderStatistic>(base, 3, 2);
  const auto two_again = std::make_shared<OrderStatistic>(base, 2, 1);
  const std::uint64_t fp_two = TransformTape::compile(two).fingerprint();
  const std::uint64_t fp_three = TransformTape::compile(three).fingerprint();
  const std::uint64_t fp_coded = TransformTape::compile(coded).fingerprint();
  EXPECT_NE(fp_two, fp_three);
  EXPECT_NE(fp_three, fp_coded);
  // Identically constructed wrappers hash equal (cache-share safety).
  EXPECT_EQ(fp_two, TransformTape::compile(two_again).fingerprint());
}

TEST(OrderStatistic, RejectsInvalidParameters) {
  const DistPtr base = exponential(1.0);
  EXPECT_THROW(OrderStatistic(base, 2, 0), std::invalid_argument);
  EXPECT_THROW(OrderStatistic(base, 2, 3), std::invalid_argument);
  EXPECT_THROW(OrderStatistic(base, 2, 1, -0.1), std::invalid_argument);
  EXPECT_THROW(OrderStatistic(base, 2, 1, 1.5), std::invalid_argument);
  EXPECT_THROW(OrderStatistic(nullptr, 2, 1), std::invalid_argument);
}

TEST(HedgedResponse, MatchesTheRacingFormula) {
  const double mu = 10.0;
  const double d = 0.05;
  const DistPtr base = exponential(mu);
  const HedgedResponse hedged(base, d);
  for (const double t : {0.01, 0.04}) {
    // Below the deadline only the primary can finish.
    EXPECT_NEAR(hedged.cdf(t), base->cdf(t), 2e-3) << t;
  }
  for (const double t : {0.08, 0.15, 0.3}) {
    const double expected =
        1.0 - (1.0 - base->cdf(t)) * (1.0 - base->cdf(t - d));
    EXPECT_NEAR(hedged.cdf(t), expected, 2e-3) << t;
  }
  // Hedging helps the tail and never hurts the distribution.
  EXPECT_LT(hedged.mean(), base->mean());
}

TEST(HedgedResponse, TapeGenericLeafIsBitIdentical) {
  const auto hedged =
      std::make_shared<HedgedResponse>(exponential(20.0), 0.02, 0.1);
  const TransformTape tape = TransformTape::compile(hedged);
  // Hedged responses ride the generic-leaf compatibility path.
  EXPECT_EQ(tape.generic_leaf_count(), 1u);
  const std::vector<Complex> s = probe_points();
  std::vector<Complex> out(s.size());
  tape.evaluate(s, out);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(out[i], hedged->laplace(s[i])) << "probe " << i;
  }
}

TEST(HedgedResponse, LargeDelayDegeneratesToBase) {
  // A deadline past the horizon never fires: the hedged CDF is the base.
  const DistPtr base = exponential(10.0);
  const HedgedResponse hedged(base, 5.0);
  for (const double t : {0.05, 0.2, 0.6}) {
    EXPECT_NEAR(hedged.cdf(t), base->cdf(t), 2e-3) << t;
  }
  EXPECT_NEAR(hedged.mean(), base->mean(), 0.02 * base->mean());
}

TEST(HedgedResponse, RejectsInvalidParameters) {
  const DistPtr base = exponential(1.0);
  EXPECT_THROW(HedgedResponse(base, 0.0), std::invalid_argument);
  EXPECT_THROW(HedgedResponse(base, -1.0), std::invalid_argument);
  EXPECT_THROW(HedgedResponse(base, 0.1, 2.0), std::invalid_argument);
  EXPECT_THROW(HedgedResponse(nullptr, 0.1), std::invalid_argument);
}

}  // namespace
}  // namespace cosm::numerics
