// Tests for the Section IV-A fitting pipeline: MLE parameter recovery on
// synthetic samples with known ground truth, KS-statistic correctness, and
// the model-selection behaviour the paper reports (Gamma wins on
// disk-service-like data).
#include "numerics/fitting.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

namespace cosm::numerics {
namespace {

std::vector<double> draw(std::size_t n, std::uint64_t seed,
                         const std::function<double(Rng&)>& gen) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (auto& x : out) x = gen(rng);
  return out;
}

TEST(ComputeStats, BasicMoments) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  const SampleStats st = compute_stats(xs);
  EXPECT_EQ(st.count, 4u);
  EXPECT_NEAR(st.mean, 2.5, 1e-15);
  EXPECT_NEAR(st.variance, 5.0 / 3.0, 1e-12);
  EXPECT_EQ(st.min, 1.0);
  EXPECT_EQ(st.max, 4.0);
}

TEST(ComputeStats, RejectsNegativeAndEmpty) {
  EXPECT_THROW(compute_stats(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(compute_stats(std::vector<double>{1.0, -0.5}),
               std::invalid_argument);
}

TEST(FitExponential, RecoversRate) {
  const auto xs =
      draw(100000, 1, [](Rng& r) { return r.exponential(40.0); });
  const Exponential fit = fit_exponential(xs);
  EXPECT_NEAR(fit.rate(), 40.0, 0.5);
}

class FitGammaTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(FitGammaTest, RecoversShapeAndRate) {
  const double shape = std::get<0>(GetParam());
  const double rate = std::get<1>(GetParam());
  const auto xs = draw(200000, 7, [&](Rng& r) { return r.gamma(shape, rate); });
  const Gamma fit = fit_gamma(xs);
  EXPECT_NEAR(fit.shape(), shape, 0.03 * shape);
  EXPECT_NEAR(fit.rate(), rate, 0.03 * rate);
}

INSTANTIATE_TEST_SUITE_P(
    ShapeRateSweep, FitGammaTest,
    ::testing::Values(std::make_tuple(0.5, 10.0), std::make_tuple(1.0, 2.0),
                      std::make_tuple(2.8, 250.0),  // disk-service-like
                      std::make_tuple(8.0, 0.4),
                      std::make_tuple(50.0, 1000.0)));

TEST(FitGamma, HandlesNearConstantData) {
  std::vector<double> xs(1000, 0.005);
  const Gamma fit = fit_gamma(xs);
  EXPECT_NEAR(fit.mean(), 0.005, 1e-12);
  EXPECT_GT(fit.shape(), 1e4);  // effectively degenerate
}

TEST(KsStatistic, ZeroForPerfectFitLimit) {
  // For samples at the exact quantile midpoints of the reference CDF, the
  // KS statistic is 1/(2n).
  const Exponential e(1.0);
  constexpr std::size_t kN = 100;
  std::vector<double> xs(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    const double p = (static_cast<double>(i) + 0.5) / kN;
    xs[i] = -std::log(1.0 - p);
  }
  EXPECT_NEAR(ks_statistic(xs, e), 0.5 / kN, 1e-12);
}

TEST(KsStatistic, DetectsGrossMismatch) {
  const auto xs = draw(5000, 11, [](Rng& r) { return r.exponential(1.0); });
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  const Exponential wrong(10.0);
  EXPECT_GT(ks_statistic(sorted, wrong), 0.5);
}

TEST(KsStatistic, RequiresSortedInput) {
  const std::vector<double> unsorted = {2.0, 1.0};
  EXPECT_THROW(ks_statistic(unsorted, Exponential(1.0)),
               std::invalid_argument);
}

TEST(FitBest, GammaWinsOnGammaData) {
  // The paper's Fig. 5 selection: on disk-service-like Gamma samples the
  // Gamma candidate must beat exponential, degenerate, and normal.
  const auto xs =
      draw(20000, 13, [](Rng& r) { return r.gamma(2.8, 250.0); });
  const FitSelection sel = fit_best(xs);
  EXPECT_EQ(sel.best().name, "gamma");
  EXPECT_LT(sel.best().ks, 0.02);
  EXPECT_EQ(sel.candidates.size(), 4u);
}

TEST(FitBest, ExponentialWinsOnExponentialData) {
  const auto xs =
      draw(20000, 17, [](Rng& r) { return r.exponential(5.0); });
  const FitSelection sel = fit_best(xs);
  // Gamma nests the exponential, so accept either; exponential must not be
  // beaten by degenerate or normal.
  EXPECT_TRUE(sel.best().name == "exponential" || sel.best().name == "gamma")
      << sel.best().name;
}

TEST(FitBest, DegenerateWinsOnConstantData) {
  std::vector<double> xs(500, 0.0042);
  const FitSelection sel = fit_best(xs);
  EXPECT_EQ(sel.best().name, "degenerate");
  EXPECT_NEAR(sel.best().dist->mean(), 0.0042, 1e-12);
}

TEST(FitBest, RejectsEmptyOrNegativeSamples) {
  // Bad input is the caller's fault, not a failed internal invariant.
  EXPECT_THROW(fit_best(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(fit_best(std::vector<double>{-1.0, -2.0, -3.0}),
               std::invalid_argument);
}

TEST(FitBest, CandidatesSortedByKs) {
  const auto xs = draw(2000, 23, [](Rng& r) { return r.gamma(3.0, 10.0); });
  const FitSelection sel = fit_best(xs);
  for (std::size_t i = 1; i < sel.candidates.size(); ++i) {
    EXPECT_LE(sel.candidates[i - 1].ks, sel.candidates[i].ks);
  }
}

}  // namespace
}  // namespace cosm::numerics
