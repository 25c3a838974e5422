// Cross-property tests for the concrete distributions: the Laplace
// transform, CDF, moments, and sampler of every distribution must agree
// with each other.  This matters because the model consumes the transforms
// while the simulator consumes the samplers — a mismatch between the two
// silently corrupts every experiment.
#include "numerics/distribution.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <memory>
#include <numbers>
#include <ostream>
#include <string>
#include <vector>

#include "numerics/lt_inversion.hpp"
#include "numerics/phase_type.hpp"
#include "numerics/special.hpp"

namespace cosm::numerics {

// gtest_discover_tests copies the printed parameter into the ctest test
// name.  gtest prints a shared_ptr as "(ptr = <address>, value = <bytes>)",
// and the heap address moves with address-space randomisation, so keep that
// layout with the address elided and the distribution in place of its bytes.
// This lives outside the anonymous namespace so argument-dependent lookup on
// DistPtr finds it.
void PrintTo(const DistPtr& d, std::ostream* os) {
  *os << "(ptr = 0x..., value = " << d->name() << " mean=" << d->mean()
      << ")";
}

// One distribution of the contract suite.  `id` is the case's fixed
// number in its test names; like the tape's opcodes, ids of retired cases
// are not reused, so removing a case renames no other test.
struct ContractCase {
  int id;
  DistPtr dist;
};

void PrintTo(const ContractCase& c, std::ostream* os) { PrintTo(c.dist, os); }

namespace {

// All distributions must satisfy L(0) = 1 and L'(0) = -mean; we check the
// derivative with a central difference on the real axis.
class DistributionContractTest
    : public ::testing::TestWithParam<ContractCase> {};

TEST_P(DistributionContractTest, LaplaceAtZeroIsOne) {
  const auto& d = *GetParam().dist;
  const auto l0 = d.laplace({1e-12, 0.0});
  EXPECT_NEAR(l0.real(), 1.0, 1e-6) << d.name();
  EXPECT_NEAR(l0.imag(), 0.0, 1e-6) << d.name();
}

TEST_P(DistributionContractTest, LaplaceDerivativeAtZeroIsMinusMean) {
  const auto& d = *GetParam().dist;
  const double h = 1e-6 / std::max(1.0, d.mean());
  const double lp = d.laplace({h, 0.0}).real();
  const double lm = d.laplace({-h, 0.0}).real();
  const double derivative = (lp - lm) / (2.0 * h);
  EXPECT_NEAR(-derivative, d.mean(), 2e-4 * std::max(1.0, d.mean()))
      << d.name();
}

TEST_P(DistributionContractTest, LaplaceModulusBoundedByOne) {
  const auto& d = *GetParam().dist;
  for (double im : {-40.0, -3.0, 0.5, 7.0, 90.0}) {
    const auto v = d.laplace({0.3, im});
    EXPECT_LE(std::abs(v), 1.0 + 1e-9) << d.name() << " im=" << im;
  }
}

TEST_P(DistributionContractTest, CdfIsMonotoneFromZeroToOne) {
  const auto& d = *GetParam().dist;
  const double scale = std::max(d.mean(), 1e-6);
  double prev = -1e-12;
  for (double frac : {0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 20.0}) {
    const double c = d.cdf(frac * scale);
    EXPECT_GE(c, prev - 1e-9) << d.name() << " t=" << frac * scale;
    EXPECT_GE(c, -1e-12) << d.name();
    EXPECT_LE(c, 1.0 + 1e-12) << d.name();
    prev = c;
  }
  EXPECT_GT(d.cdf(50.0 * scale), 0.97) << d.name();
}

TEST_P(DistributionContractTest, SampleMomentsMatchAnalyticMoments) {
  const auto& d = *GetParam().dist;
  Rng rng(20240704);
  constexpr int kN = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double x = d.sample(rng);
    ASSERT_GE(x, 0.0) << d.name();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kN;
  EXPECT_NEAR(mean, d.mean(), 0.02 * std::max(d.mean(), 1e-9) + 1e-9)
      << d.name();
  const double m2 = sum_sq / kN;
  if (std::isfinite(d.second_moment())) {
    EXPECT_NEAR(m2, d.second_moment(),
                0.06 * std::max(d.second_moment(), 1e-9) + 1e-9)
        << d.name();
  }
}

TEST_P(DistributionContractTest, SampleQuantilesMatchCdf) {
  const auto& d = *GetParam().dist;
  Rng rng(99);
  constexpr int kN = 100000;
  std::vector<double> samples(kN);
  for (auto& s : samples) s = d.sample(rng);
  std::sort(samples.begin(), samples.end());
  for (double p : {0.25, 0.5, 0.9, 0.99}) {
    const double q = samples[static_cast<std::size_t>(p * (kN - 1))];
    // Empirical p-quantile plugged into the CDF must return ~p.  Degenerate
    // distributions step straight through every level, so allow the jump.
    const double c = d.cdf(q);
    EXPECT_NEAR(c, p, 0.02 + (d.name() == "degenerate" ? 1.0 : 0.0))
        << d.name() << " p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConcrete, DistributionContractTest,
    ::testing::Values(
        ContractCase{0, std::make_shared<Degenerate>(0.8)},
        ContractCase{1, std::make_shared<Exponential>(2.5)},
        ContractCase{2, std::make_shared<Gamma>(0.7, 3.0)},
        ContractCase{3, std::make_shared<Gamma>(4.0, 0.5)},
        ContractCase{4, std::make_shared<Gamma>(30.0, 100.0)},
        ContractCase{6, std::make_shared<TruncatedNormal>(5.0, 1.0)},
        ContractCase{7, std::make_shared<TruncatedNormal>(1.0, 0.8)},
        ContractCase{8, std::make_shared<Lognormal>(-0.5, 0.6)},
        ContractCase{10, std::make_shared<Pareto>(3.5, 0.4)}),
    [](const ::testing::TestParamInfo<ContractCase>& info) {
      return info.param.dist->name() + "_" + std::to_string(info.param.id);
    });

TEST(Gamma, CdfMatchesRegularizedIncompleteGamma) {
  const Gamma g(2.5, 4.0);
  for (double t : {0.1, 0.5, 1.0, 2.0}) {
    EXPECT_NEAR(g.cdf(t), gamma_p(2.5, 4.0 * t), 1e-13);
  }
}

TEST(Gamma, QuantileInvertsCdf) {
  const Gamma g(3.0, 1.5);
  for (double p : {0.05, 0.5, 0.95, 0.999}) {
    EXPECT_NEAR(g.cdf(g.quantile(p)), p, 1e-9);
  }
}

TEST(Gamma, LaplaceClosedForm) {
  const Gamma g(2.0, 3.0);
  // (3 / (3 + s))^2 at s = 1 -> (3/4)^2.
  EXPECT_NEAR(g.laplace({1.0, 0.0}).real(), 0.5625, 1e-12);
}

// The transform as Gamma::laplace computed it before gamma_laplace: a
// complex pow, with a series for |s/l| < 1e-6 where pow loses digits.
std::complex<double> pow_gamma_laplace(double shape, double rate,
                                       std::complex<double> s) {
  const std::complex<double> z = s / rate;
  if (std::abs(z) < 1e-6) return std::exp(-shape * (z - 0.5 * z * z));
  return std::pow(rate / (rate + s), shape);
}

// exp(-k log(1 + s/l)) in long double: the reference both kernels are
// measured against.
std::complex<long double> exact_gamma_laplace(double shape, double rate,
                                              std::complex<double> s) {
  const std::complex<long double> z(
      static_cast<long double>(s.real()) / rate,
      static_cast<long double>(s.imag()) / rate);
  return std::exp(-static_cast<long double>(shape) * std::log(1.0L + z));
}

TEST(Gamma, LaplaceKernelMatchesPowOracle) {
  // Euler (M = 20) and Talbot (32 nodes) contours for t in [1e-4, 10] s,
  // plus points with |s/l| below the old series switch.
  std::vector<std::complex<double>> nodes;
  for (const double t : {1e-4, 1e-3, 0.02, 0.1, 0.5, 2.0, 10.0}) {
    std::vector<std::complex<double>> euler(
        static_cast<std::size_t>(euler_terms(20)));
    euler_fill_nodes(t, 20, euler);
    nodes.insert(nodes.end(), euler.begin(), euler.end());
    // The fixed-Talbot contour (Abate & Valkó 2004), m = 32 nodes:
    // s(theta) = r theta (cot theta + i), r = 2m / (5t), which reaches
    // further into the left half-plane than Euler's.
    const double r = 2.0 * 32 / (5.0 * t);
    nodes.emplace_back(r, 0.0);
    for (int k = 1; k < 32; ++k) {
      const double theta = k * std::numbers::pi / 32;
      const double cot = std::cos(theta) / std::sin(theta);
      nodes.emplace_back(r * theta * cot, r * theta);
    }
  }
  for (const double rate : {1.0, 233.33, 1e4}) {
    std::vector<std::complex<double>> points = nodes;
    points.insert(points.end(), {{rate * 1e-7, 0.0},
                                 {rate * 5e-7, rate * 5e-7},
                                 {rate * 1e-12, -rate * 3e-9}});
    for (const double shape : {0.3, 1.0, 2.8, 40.0}) {
      const Gamma gamma(shape, rate);
      for (const std::complex<double> s : points) {
        // Rounding s/l perturbs the exponent k log(1 + s/l) by ~eps times
        // its size, and exp turns that into a relative error of the
        // value: neither kernel can beat eps * max(1, |k log(1 + s/l)|).
        const double scale =
            std::max(1.0, std::abs(shape * std::log(1.0 + s / rate)));
        const std::complex<double> got = gamma.laplace(s);
        const std::complex<double> oracle = pow_gamma_laplace(shape, rate, s);
        EXPECT_LE(std::abs(got - oracle), 1e-14 * scale * std::abs(oracle))
            << "shape " << shape << " rate " << rate << " s " << s;
        const std::complex<long double> exact =
            exact_gamma_laplace(shape, rate, s);
        EXPECT_LE(std::abs(std::complex<long double>(got) - exact),
                  1e-15L * scale * std::abs(exact))
            << "shape " << shape << " rate " << rate << " s " << s;
        if (shape == std::floor(shape)) {
          EXPECT_EQ(Erlang(static_cast<unsigned>(shape), rate).laplace(s),
                    got);
        }
      }
    }
  }
}

TEST(Exponential, MemorylessCdf) {
  const Exponential e(4.0);
  EXPECT_NEAR(e.cdf(0.25), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_EQ(e.cdf(-1.0), 0.0);
}

TEST(Degenerate, StepCdf) {
  const Degenerate d(2.0);
  EXPECT_EQ(d.cdf(1.999), 0.0);
  EXPECT_EQ(d.cdf(2.0), 1.0);
  Rng rng(5);
  EXPECT_EQ(d.sample(rng), 2.0);
}

TEST(TruncatedNormal, MassBelowZeroIsRemoved) {
  const TruncatedNormal tn(0.5, 1.0);  // substantial truncation
  EXPECT_EQ(tn.cdf(0.0), 0.0);
  EXPECT_GT(tn.mean(), 0.5);  // truncation shifts the mean up
  EXPECT_NEAR(tn.cdf(1e9), 1.0, 1e-9);
}

TEST(TruncatedNormal, RejectsHopelessTruncation) {
  EXPECT_THROW(TruncatedNormal(-100.0, 1.0), std::invalid_argument);
}

TEST(Pareto, TailIsPolynomial) {
  const Pareto p(2.5, 1.0);
  EXPECT_NEAR(1.0 - p.cdf(10.0), std::pow(0.1, 2.5), 1e-12);
  EXPECT_EQ(p.cdf(0.5), 0.0);  // below the scale
}

TEST(Pareto, InfiniteMomentsSignalled) {
  EXPECT_TRUE(std::isinf(Pareto(0.9, 1.0).mean()));
  EXPECT_TRUE(std::isinf(Pareto(1.5, 1.0).second_moment()));
}

TEST(Distribution, InvalidParametersThrow) {
  EXPECT_THROW(Degenerate(-1.0), std::invalid_argument);
  EXPECT_THROW(Exponential(0.0), std::invalid_argument);
  EXPECT_THROW(Gamma(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Gamma(1.0, -1.0), std::invalid_argument);
  EXPECT_THROW(Lognormal(0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(Pareto(1.0, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace cosm::numerics
