// M/G/1/K embedded-chain solver tests: it must collapse to M/M/1/K for
// exponential service, to the insensitive Erlang loss result for K = 1,
// and it must quantify the M/M/1/K approximation gap for non-exponential
// service (the paper's S16 systematic error source).
#include "queueing/mg1k.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "numerics/compose.hpp"
#include "queueing/mm1k.hpp"

namespace cosm::queueing {
namespace {

using numerics::Degenerate;
using numerics::Exponential;
using numerics::Gamma;
using numerics::Mixture;

TEST(MG1K, StateProbabilitiesSumToOne) {
  const MG1K q(50.0, std::make_shared<Gamma>(2.0, 200.0), 6);
  double total = 0.0;
  for (int i = 0; i <= 6; ++i) total += q.state_probability(i);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

class MG1KvsMM1K : public ::testing::TestWithParam<std::tuple<double, int>> {
};

TEST_P(MG1KvsMM1K, ExponentialServiceCollapsesToMM1K) {
  const double u = std::get<0>(GetParam());
  const int k = std::get<1>(GetParam());
  const double v = 100.0;
  const MG1K general(u * v, std::make_shared<Exponential>(v), k);
  const MM1K markov(u * v, v, k);
  for (int i = 0; i <= k; ++i) {
    EXPECT_NEAR(general.state_probability(i), markov.state_probability(i),
                1e-10)
        << "u=" << u << " K=" << k << " i=" << i;
  }
  EXPECT_NEAR(general.blocking_probability(), markov.blocking_probability(),
              1e-10);
  EXPECT_NEAR(general.mean_sojourn_time(), markov.mean_sojourn_time(),
              1e-10 * markov.mean_sojourn_time());
}

INSTANTIATE_TEST_SUITE_P(LoadAndCapacity, MG1KvsMM1K,
                         ::testing::Combine(::testing::Values(0.3, 0.7, 1.0,
                                                              1.8),
                                            ::testing::Values(1, 4, 16)));

// Closed-form oracle.  With Gamma(shape alpha, rate beta) service the
// arrivals during one service are negative binomial,
//   a_j = Gamma(alpha + j) / (Gamma(alpha) j!) q^alpha (1 - q)^j,
//   q = beta / (beta + r),
// and a Gamma mixture's a_j is the same mixture of these.  The chain is
// then solved by GTH state reduction (Grassmann, Taksar and Heyman),
// which is subtraction-free, over the explicit transition matrix.
struct GammaComponent {
  double weight;
  double shape;
  double rate;
};

double negative_binomial_pmf(const GammaComponent& c, double r, int j) {
  const double q = c.rate / (c.rate + r);
  return std::exp(std::lgamma(c.shape + j) - std::lgamma(c.shape) -
                  std::lgamma(j + 1.0) + c.shape * std::log(q) +
                  j * std::log1p(-q));
}

std::vector<double> oracle_state_probabilities(
    const std::vector<GammaComponent>& law, double r, int k) {
  // a_j for j < K, and P(J >= m) for m <= K summed from the far tail
  // down so small tails keep their digits.
  const int far = k + 4000;
  std::vector<double> pmf(far, 0.0);
  for (const GammaComponent& c : law) {
    for (int j = 0; j < far; ++j) {
      pmf[j] += c.weight * negative_binomial_pmf(c, r, j);
    }
  }
  std::vector<double> at_least(far + 1, 0.0);
  for (int j = far - 1; j >= 0; --j) at_least[j] = at_least[j + 1] + pmf[j];
  // p[i][t]: from i >= 1 the next departure leaves min(i - 1 + J, K - 1);
  // from 0 it leaves min(J, K - 1).
  std::vector<std::vector<double>> p(k, std::vector<double>(k, 0.0));
  for (int i = 0; i < k; ++i) {
    const int base = i == 0 ? 0 : i - 1;
    for (int t = base; t < k - 1; ++t) p[i][t] = pmf[t - base];
    p[i][k - 1] = at_least[k - 1 - base];
  }
  // GTH: censor states K-1, ..., 1 in turn, then back-substitute.
  std::vector<double> out(k, 0.0);  // censored rate out of n, downward
  for (int n = k - 1; n >= 1; --n) {
    for (int t = 0; t < n; ++t) out[n] += p[n][t];
    for (int t = 0; t < n; ++t) {
      if (p[n][t] == 0.0) continue;  // rows stay sparse below the diagonal
      const double share = p[n][t] / out[n];
      for (int i = 0; i < n; ++i) p[i][t] += p[i][n] * share;
    }
  }
  std::vector<double> pi(k, 0.0);
  pi[0] = 1.0;
  double total = 1.0;
  for (int n = 1; n < k; ++n) {
    for (int i = 0; i < n; ++i) pi[n] += pi[i] * p[i][n];
    pi[n] /= out[n];
    total += pi[n];
  }
  for (double& v : pi) v /= total;
  double mean_service = 0.0;
  for (const GammaComponent& c : law) mean_service += c.weight * c.shape / c.rate;
  const double denom = pi[0] + r * mean_service;
  std::vector<double> state(k + 1, 0.0);
  double acc = 0.0;
  for (int i = 0; i < k; ++i) {
    state[i] = pi[i] / denom;
    acc += state[i];
  }
  state[k] = 1.0 - acc;
  return state;
}

numerics::DistPtr make_law(const std::vector<GammaComponent>& law) {
  std::vector<Mixture::Component> components;
  for (const GammaComponent& c : law) {
    components.push_back({c.weight, std::make_shared<Gamma>(c.shape, c.rate)});
  }
  return std::make_shared<Mixture>(std::move(components));
}

// (K, CV^2 of each Gamma, offered utilization): the ablation_mg1k grid
// plus K = 512, the capacity limit.
class MG1KNegativeBinomialOracle
    : public ::testing::TestWithParam<std::tuple<int, double, double>> {};

TEST_P(MG1KNegativeBinomialOracle, StateProbabilitiesMatchClosedForm) {
  const int k = std::get<0>(GetParam());
  const double cv2 = std::get<1>(GetParam());
  const double util = std::get<2>(GetParam());
  const double shape = 1.0 / cv2;
  const double mean_service = 0.011;  // ablation_mg1k's pooled disk mean
  // The ablation's single Gamma law, and a three-component mixture with
  // the same overall mean (perf_pipeline's index/meta/data weights).
  const std::vector<std::vector<GammaComponent>> laws = {
      {{1.0, shape, shape / mean_service}},
      {{0.2, shape, shape / (0.8 * mean_service)},
       {0.2, shape, shape / (0.6 * mean_service)},
       {0.6, shape, shape / (1.2 * mean_service)}},
  };
  for (const std::vector<GammaComponent>& law : laws) {
    const double r = util / mean_service;
    const std::vector<double> expected = oracle_state_probabilities(law, r, k);
    const MG1K q(r, make_law(law), k);
    for (int i = 0; i <= k; ++i) {
      ASSERT_NEAR(q.state_probability(i), expected[i], 1e-12)
          << "components=" << law.size() << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AblationGrid, MG1KNegativeBinomialOracle,
    ::testing::Combine(::testing::Values(2, 4, 8, 16, 512),
                       ::testing::Values(0.35, 1.0, 2.5),
                       ::testing::Values(0.8, 1.1)));

TEST(MG1K, K1BlockingIsInsensitiveToServiceShape) {
  // M/G/1/1 blocking depends only on rho (Erlang loss insensitivity).
  const double r = 70.0;
  const double mean_service = 0.01;
  const double rho = r * mean_service;
  for (const numerics::DistPtr& service :
       {numerics::DistPtr(std::make_shared<Exponential>(100.0)),
        numerics::DistPtr(std::make_shared<Degenerate>(0.01)),
        numerics::DistPtr(std::make_shared<Gamma>(0.5, 50.0))}) {
    const MG1K q(r, service, 1);
    EXPECT_NEAR(q.blocking_probability(), rho / (1.0 + rho), 1e-4)
        << service->name();
  }
}

TEST(MG1K, SaturatedQueueStaysFinite) {
  // Deterministic service at offered load rho: a_0 = e^{-rho}.  At
  // rho = 20 the unnormalized chain grows by ~1 / a_0 per state (the
  // recursion must rescale); at rho = 50, a_0 lies below the FFT's
  // resolution and the chain is absorbed in K - 1.  Either way the
  // server never idles, so P_K = 1 - 1 / rho.
  for (const double rho : {20.0, 50.0}) {
    const int k = 64;
    const MG1K q(rho * 100.0, std::make_shared<Degenerate>(0.01), k);
    double total = 0.0;
    for (int i = 0; i <= k; ++i) {
      ASSERT_TRUE(std::isfinite(q.state_probability(i))) << rho << " " << i;
      total += q.state_probability(i);
    }
    EXPECT_NEAR(total, 1.0, 1e-12) << rho;
    EXPECT_NEAR(q.blocking_probability(), 1.0 - 1.0 / rho, 1e-9) << rho;
  }
}

TEST(MG1K, LowVarianceServiceBlocksLessThanMM1K) {
  // Deterministic service (CV = 0) blocks less than exponential (CV = 1)
  // at equal utilization — the direction of the paper's approximation
  // error.
  const double r = 90.0;
  const double v = 100.0;
  const int k = 4;
  const MG1K deterministic(r, std::make_shared<Degenerate>(1.0 / v), k);
  const MM1K exponential(r, v, k);
  EXPECT_LT(deterministic.blocking_probability(),
            exponential.blocking_probability());
  EXPECT_LT(deterministic.mean_sojourn_time(),
            exponential.mean_sojourn_time());
}

TEST(MG1K, HighVarianceServiceBlocksMoreThanMM1K) {
  const double r = 90.0;
  const double v = 100.0;  // mean service 0.01
  const int k = 4;
  // Gamma shape 0.25 => CV^2 = 4.
  const MG1K bursty(r, std::make_shared<Gamma>(0.25, 25.0), k);
  const MM1K exponential(r, v, k);
  EXPECT_GT(bursty.mean_sojourn_time(), exponential.mean_sojourn_time());
}

TEST(MG1KSojourn, CollapsesToMM1KForExponentialService) {
  const double r = 70.0;
  const double v = 100.0;
  const int k = 6;
  const MG1K general(r, std::make_shared<Exponential>(v), k);
  const MM1K markov(r, v, k);
  const auto s_general = general.sojourn_time();
  const auto s_markov = markov.sojourn_time();
  EXPECT_NEAR(s_general->mean(), s_markov->mean(),
              2e-3 * s_markov->mean());
  for (double t : {0.005, 0.02, 0.05, 0.15}) {
    EXPECT_NEAR(s_general->cdf(t), s_markov->cdf(t), 2e-3) << t;
  }
}

TEST(MG1KSojourn, TransformIsProperAndMatchesLittleApproximately) {
  const MG1K q(80.0, std::make_shared<Gamma>(2.8, 280.0), 8);
  const auto sojourn = q.sojourn_time();
  // L(0+) = 1 and the CDF is a proper distribution function.
  EXPECT_NEAR(sojourn->laplace({1e-6, 0.0}).real(), 1.0, 1e-6);
  double prev = 0.0;
  for (double t : {0.005, 0.01, 0.02, 0.05, 0.1, 0.3}) {
    const double c = sojourn->cdf(t);
    EXPECT_GE(c, prev - 1e-9);
    EXPECT_LE(c, 1.0 + 1e-9);
    prev = c;
  }
  EXPECT_GT(prev, 0.999);
  // The residual approximation's mean stays within a few percent of the
  // exact Little's-law mean.
  EXPECT_NEAR(sojourn->mean(), q.mean_sojourn_time(),
              0.06 * q.mean_sojourn_time());
}

TEST(MG1KSojourn, LowVarianceServiceIsFasterThanMM1K) {
  // The direction that matters for the S16 extension: with CV^2 < 1 the
  // exact sojourn is shorter in the mean and in the upper body/tail.
  // (Pointwise CDF dominance need not hold near zero, where the
  // exponential's density peak puts extra early mass.)
  const double r = 90.0;
  const double mean_service = 0.01;
  const int k = 8;
  const MG1K exact(r, std::make_shared<Gamma>(3.0, 300.0), k);
  const MM1K markov(r, 1.0 / mean_service, k);
  const auto s_exact = exact.sojourn_time();
  const auto s_markov = markov.sojourn_time();
  EXPECT_LT(s_exact->mean(), s_markov->mean());
  for (double t : {0.05, 0.08, 0.12}) {
    EXPECT_GE(s_exact->cdf(t), s_markov->cdf(t) - 1e-6) << t;
  }
}

TEST(MG1K, Validation) {
  EXPECT_THROW(MG1K(0.0, std::make_shared<Exponential>(1.0), 1),
               std::invalid_argument);
  EXPECT_THROW(MG1K(1.0, nullptr, 1), std::invalid_argument);
  EXPECT_THROW(MG1K(1.0, std::make_shared<Exponential>(1.0), 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace cosm::queueing
