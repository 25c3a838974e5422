// M/G/1 tests.  The strongest check: with exponential service, M/G/1
// collapses to M/M/1, whose waiting time has the closed form
// W(t) = 1 - rho e^{-(v - r) t}.  The P–K transform machinery must
// reproduce it through numerical inversion.
#include "queueing/mg1.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

namespace cosm::queueing {
namespace {

using numerics::Degenerate;
using numerics::DistPtr;
using numerics::Exponential;
using numerics::Gamma;

TEST(MG1, UtilizationAndStability) {
  const MG1 q(50.0, std::make_shared<Exponential>(100.0));
  EXPECT_NEAR(q.utilization(), 0.5, 1e-14);
  EXPECT_TRUE(q.stable());
  const MG1 overloaded(120.0, std::make_shared<Exponential>(100.0));
  EXPECT_FALSE(overloaded.stable());
  EXPECT_THROW(overloaded.mean_waiting_time(), std::invalid_argument);
  EXPECT_THROW(overloaded.waiting_time(), std::invalid_argument);
}

TEST(MG1, MM1MeanWaitingTimeClosedForm) {
  // M/M/1: W̄ = rho / (v - r).
  const double r = 60.0;
  const double v = 100.0;
  const MG1 q(r, std::make_shared<Exponential>(v));
  EXPECT_NEAR(q.mean_waiting_time(), (r / v) / (v - r), 1e-12);
  EXPECT_NEAR(q.mean_sojourn_time(), 1.0 / (v - r), 1e-12);
}

TEST(MG1, MD1MeanWaitingTimeClosedForm) {
  // M/D/1: W̄ = rho b / (2 (1 - rho)).
  const double r = 40.0;
  const double b = 0.01;
  const MG1 q(r, std::make_shared<Degenerate>(b));
  const double rho = r * b;
  EXPECT_NEAR(q.mean_waiting_time(), rho * b / (2.0 * (1.0 - rho)), 1e-12);
}

TEST(MG1, WaitingTimeCdfMatchesMM1ClosedForm) {
  const double r = 60.0;
  const double v = 100.0;
  const MG1 q(r, std::make_shared<Exponential>(v));
  const DistPtr w = q.waiting_time();
  const double rho = r / v;
  for (double t : {0.001, 0.01, 0.03, 0.08, 0.2}) {
    const double expected = 1.0 - rho * std::exp(-(v - r) * t);
    EXPECT_NEAR(w->cdf(t), expected, 1e-6) << t;
  }
}

TEST(MG1, WaitingTimeAtomAtZeroEqualsIdleProbability) {
  const MG1 q(30.0, std::make_shared<Gamma>(2.0, 100.0));
  const DistPtr w = q.waiting_time();
  // P[W = 0] = 1 - rho; the CDF just above zero must expose the atom.
  EXPECT_NEAR(w->cdf(1e-7), q.idle_probability(), 1e-4);
}

TEST(MG1, WaitingTimeMeanMatchesTransformMean) {
  const MG1 q(35.0, std::make_shared<Gamma>(3.0, 200.0));
  const DistPtr w = q.waiting_time();
  EXPECT_NEAR(w->mean(), q.mean_waiting_time(), 1e-12);
}

TEST(MG1, SojournCdfIsWaitingConvolvedWithService) {
  const double r = 50.0;
  const double v = 125.0;
  const MG1 q(r, std::make_shared<Exponential>(v));
  const DistPtr sojourn = q.sojourn_time();
  // M/M/1 sojourn is Exponential(v - r).
  for (double t : {0.005, 0.02, 0.05, 0.1}) {
    EXPECT_NEAR(sojourn->cdf(t), 1.0 - std::exp(-(v - r) * t), 1e-6) << t;
  }
  EXPECT_NEAR(sojourn->mean(), 1.0 / (v - r), 1e-12);
}

class MG1UtilizationSweep : public ::testing::TestWithParam<double> {};

TEST_P(MG1UtilizationSweep, WaitingCdfIsMonotoneAndProper) {
  const double rho = GetParam();
  const double v = 200.0;
  const MG1 q(rho * v, std::make_shared<Gamma>(2.5, 2.5 * v));
  const DistPtr w = q.waiting_time();
  double prev = 0.0;
  for (double t : {1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.5}) {
    const double c = w->cdf(t);
    EXPECT_GE(c, prev - 1e-7) << "rho=" << rho << " t=" << t;
    EXPECT_LE(c, 1.0 + 1e-9);
    prev = c;
  }
  // The queue empties eventually: CDF approaches 1 far in the tail.
  EXPECT_GT(w->cdf(2.0), 0.999) << "rho=" << rho;
}

INSTANTIATE_TEST_SUITE_P(Load, MG1UtilizationSweep,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.85, 0.95));

TEST(MG1, Validation) {
  EXPECT_THROW(MG1(0.0, std::make_shared<Exponential>(1.0)),
               std::invalid_argument);
  EXPECT_THROW(MG1(1.0, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace cosm::queueing
