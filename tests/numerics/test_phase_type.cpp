// Erlang distribution tests: moment identities, transform/CDF/sampler
// agreement, and a service-law sensitivity check through the M/G/1 model.
#include "numerics/phase_type.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "queueing/mg1.hpp"

namespace cosm::numerics {
namespace {

TEST(Erlang, MomentsAndCdf) {
  const Erlang e(4, 100.0);
  EXPECT_NEAR(e.mean(), 0.04, 1e-15);
  EXPECT_NEAR(e.second_moment(), 20.0 / 10000.0, 1e-12);
  // CV^2 = 1/k.
  EXPECT_NEAR(e.variance() / (e.mean() * e.mean()), 0.25, 1e-12);
  // Erlang(1) is exponential.
  const Erlang single(1, 5.0);
  const Exponential exponential(5.0);
  for (double t : {0.05, 0.2, 0.5}) {
    EXPECT_NEAR(single.cdf(t), exponential.cdf(t), 1e-12);
  }
}

TEST(Erlang, TransformMatchesGamma) {
  const Erlang e(3, 50.0);
  const Gamma g(3.0, 50.0);
  for (const auto s : {std::complex<double>(2.0, 0.0),
                       std::complex<double>(10.0, 25.0)}) {
    const auto diff = e.laplace(s) - g.laplace(s);
    EXPECT_LT(std::abs(diff), 1e-12);
  }
}

TEST(Erlang, SamplerMatchesMoments) {
  const Erlang e(5, 200.0);
  Rng rng(3);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double x = e.sample(rng);
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / kN, e.mean(), 0.01 * e.mean());
  EXPECT_NEAR(sum_sq / kN, e.second_moment(), 0.03 * e.second_moment());
}

TEST(ServiceLawSensitivity, MatchedMomentsGiveMatchedPkWait) {
  // The P–K *mean* wait depends only on the first two moments, so a Gamma
  // and an Erlang with matched moments must give identical mean waits —
  // while laws with a different variance give different waiting-time
  // *distributions*.  This is the core reason the paper needs
  // distributions, not just moments.
  const double rate = 30.0;
  const double mean = 0.02;
  const Gamma gamma(4.0, 4.0 / mean);             // cv2 = 0.25
  const Erlang erlang(4, 4.0 / mean);             // same two moments
  const queueing::MG1 q_gamma(rate, std::make_shared<Gamma>(gamma));
  const queueing::MG1 q_erlang(rate, std::make_shared<Erlang>(erlang));
  EXPECT_NEAR(q_gamma.mean_waiting_time(), q_erlang.mean_waiting_time(),
              1e-12);
  // Same mean but a heavier service law (a Gamma with shape < 1, cv2 = 4)
  // => a longer mean wait and a heavier waiting-time tail.
  const Gamma heavy(0.25, 0.25 / mean);  // cv2 = 4
  const queueing::MG1 q_heavy(rate, std::make_shared<Gamma>(heavy));
  EXPECT_GT(q_heavy.mean_waiting_time(), q_gamma.mean_waiting_time());
  const auto w_gamma = q_gamma.waiting_time();
  const auto w_heavy = q_heavy.waiting_time();
  EXPECT_LT(w_heavy->cdf(0.1), w_gamma->cdf(0.1) + 1e-9);
}

}  // namespace
}  // namespace cosm::numerics
