// Tests for the grid-density cross-check path: discretization must
// preserve mass and moments, FFT grid convolution must agree with the
// closed-form convolution (Gamma + Gamma), and the grid CDF must agree
// with Laplace inversion on a model-like transform chain.
#include "numerics/grid.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "numerics/compose.hpp"

namespace cosm::numerics {
namespace {

TEST(GridDensity, DiscretizationPreservesMassAndMean) {
  const Gamma g(2.8, 250.0);  // mean 0.0112
  const GridDensity grid = GridDensity::discretize(g, 1e-4, 0.3);
  EXPECT_NEAR(grid.total_mass(), 1.0, 1e-9);
  EXPECT_NEAR(grid.mean(), g.mean(), 2e-4);
}

TEST(GridDensity, CdfMatchesSourceDistribution) {
  const Gamma g(2.0, 100.0);
  const GridDensity grid = GridDensity::discretize(g, 5e-5, 0.5);
  for (double t : {0.005, 0.02, 0.05, 0.1}) {
    EXPECT_NEAR(grid.cdf(t), g.cdf(t), 2e-3) << t;
  }
  EXPECT_EQ(grid.cdf(-1.0), 0.0);
  EXPECT_NEAR(grid.cdf(10.0), 1.0, 1e-9);
}

TEST(GridDensity, AtomAtZeroLandsInFirstBin) {
  const DistPtr mix =
      atom_at_zero_mixture(0.25, std::make_shared<Gamma>(2.0, 50.0));
  const GridDensity grid = GridDensity::discretize(*mix, 1e-3, 1.0);
  EXPECT_GE(grid.mass()[0], 0.75);
}

TEST(GridDensity, QuantileInvertsCdf) {
  const Exponential e(10.0);
  const GridDensity grid = GridDensity::discretize(e, 1e-4, 3.0);
  for (double p : {0.1, 0.5, 0.9, 0.99}) {
    const double q = grid.quantile(p);
    EXPECT_NEAR(e.cdf(q), p, 2e-3) << p;
  }
}

TEST(GridDensity, ConvolutionMatchesClosedForm) {
  // Gamma(a1,l) (*) Gamma(a2,l) = Gamma(a1+a2,l).
  const Gamma g1(1.5, 100.0);
  const Gamma g2(2.5, 100.0);
  const Gamma sum(4.0, 100.0);
  const double dt = 2e-4;
  const GridDensity grid1 = GridDensity::discretize(g1, dt, 1.0);
  const GridDensity grid2 = GridDensity::discretize(g2, dt, 1.0);
  const GridDensity conv = grid1.convolve_with(grid2, 10000);
  EXPECT_NEAR(conv.total_mass(), 1.0, 1e-8);
  for (double t : {0.02, 0.04, 0.08, 0.15}) {
    EXPECT_NEAR(conv.cdf(t), sum.cdf(t), 5e-3) << t;
  }
}

TEST(GridDensity, ConvolutionAgreesWithLaplaceInversion) {
  // The same union-operation-style chain evaluated through both prediction
  // paths must agree: (parse * index-mixture * data) CDF via grid
  // convolution vs via Euler inversion of the transform product.
  const auto parse = std::make_shared<Degenerate>(0.002);
  const auto index = atom_at_zero_mixture(0.4, std::make_shared<Gamma>(2.0, 150.0));
  const auto data = std::make_shared<Gamma>(1.8, 120.0);
  const Convolution chain({parse, index, data});

  const double dt = 1e-4;
  const GridDensity grid = GridDensity::discretize(*parse, dt, 0.8)
                               .convolve_with(GridDensity::discretize(
                                                  *index, dt, 0.8),
                                              16000)
                               .convolve_with(GridDensity::discretize(
                                                  *data, dt, 0.8),
                                              16000);
  for (double t : {0.01, 0.03, 0.06, 0.12}) {
    EXPECT_NEAR(grid.cdf(t), chain.cdf(t), 5e-3) << t;
  }
}

TEST(GridDensity, ConvolutionTruncationFoldsOverflow) {
  const GridDensity a(1.0, {0.5, 0.5});
  const GridDensity b(1.0, {0.5, 0.5});
  const GridDensity c = a.convolve_with(b, 2);
  EXPECT_EQ(c.bins(), 2u);
  EXPECT_NEAR(c.total_mass(), 1.0, 1e-12);
}

TEST(GridDensity, Validation) {
  EXPECT_THROW(GridDensity(0.0, {1.0}), std::invalid_argument);
  EXPECT_THROW(GridDensity(0.1, {}), std::invalid_argument);
  const GridDensity a(0.1, {1.0});
  const GridDensity b(0.2, {1.0});
  EXPECT_THROW(a.convolve_with(b, 10), std::invalid_argument);
  EXPECT_THROW(a.quantile(1.5), std::invalid_argument);
}

}  // namespace
}  // namespace cosm::numerics
