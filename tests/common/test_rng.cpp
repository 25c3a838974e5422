// Statistical and determinism tests for the RNG substrate.  Moment checks
// use wide-but-meaningful tolerances (3–5 standard errors at the chosen
// sample sizes) so they are sensitive to real transform bugs without being
// flaky.
#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

namespace cosm {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(7);
  Rng child = parent.fork();
  // The fork must not replay the parent stream.
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformRangeAndMean) {
  Rng rng(3);
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.005);
}

TEST(Rng, UniformIndexCoversRangeUniformly) {
  Rng rng(11);
  constexpr std::uint64_t kBuckets = 7;
  std::vector<int> counts(kBuckets, 0);
  constexpr int kN = 70000;
  for (int i = 0; i < kN; ++i) ++counts[rng.uniform_index(kBuckets)];
  for (const int c : counts) {
    EXPECT_NEAR(c, kN / static_cast<double>(kBuckets), 500);
  }
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_index(0), std::invalid_argument);
}

struct MomentCase {
  const char* label;
  double expected_mean;
  double expected_var;
  std::function<double(Rng&)> draw;
};

// gtest_discover_tests copies the printed parameter into the ctest test
// name.  gtest's default printout of this struct is its raw bytes, and the
// label and std::function pointers in them move with address-space
// randomisation, so print the label to keep the names the same on every
// build.
void PrintTo(const MomentCase& c, std::ostream* os) { *os << c.label; }

class RngMomentTest : public ::testing::TestWithParam<MomentCase> {};

TEST_P(RngMomentTest, MatchesAnalyticMoments) {
  const MomentCase& c = GetParam();
  Rng rng(12345);
  constexpr int kN = 400000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double x = c.draw(rng);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kN;
  const double var = sum_sq / kN - mean * mean;
  // 5 standard errors of the mean; variance tolerance is looser.
  const double se = std::sqrt(c.expected_var / kN);
  EXPECT_NEAR(mean, c.expected_mean, 5.0 * se + 1e-12) << c.label;
  EXPECT_NEAR(var, c.expected_var, 0.05 * c.expected_var + 1e-12) << c.label;
}

INSTANTIATE_TEST_SUITE_P(
    Variates, RngMomentTest,
    ::testing::Values(
        MomentCase{"exponential(2)", 0.5, 0.25,
                   [](Rng& r) { return r.exponential(2.0); }},
        MomentCase{"exponential(0.1)", 10.0, 100.0,
                   [](Rng& r) { return r.exponential(0.1); }},
        MomentCase{"normal(3,2)", 3.0, 4.0,
                   [](Rng& r) { return r.normal(3.0, 2.0); }},
        MomentCase{"gamma(0.5,1)", 0.5, 0.5,
                   [](Rng& r) { return r.gamma(0.5, 1.0); }},
        MomentCase{"gamma(3,2)", 1.5, 0.75,
                   [](Rng& r) { return r.gamma(3.0, 2.0); }},
        MomentCase{"gamma(20,4)", 5.0, 1.25,
                   [](Rng& r) { return r.gamma(20.0, 4.0); }},
        MomentCase{"lognormal(0,0.5)", std::exp(0.125),
                   (std::exp(0.25) - 1.0) * std::exp(0.25),
                   [](Rng& r) { return r.lognormal(0.0, 0.5); }},
        MomentCase{"poisson(4)", 4.0, 4.0,
                   [](Rng& r) { return static_cast<double>(r.poisson(4.0)); }},
        MomentCase{"poisson(80)", 80.0, 80.0,
                   [](Rng& r) {
                     return static_cast<double>(r.poisson(80.0));
                   }}),
    [](const ::testing::TestParamInfo<MomentCase>& info) {
      std::string name = info.param.label;
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

TEST(Rng, BernoulliFrequency) {
  Rng rng(9);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(kN), 0.3, 0.01);
}

TEST(Rng, ParameterValidation) {
  Rng rng(1);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.gamma(-1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng.gamma(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(rng.bernoulli(1.5), std::invalid_argument);
  EXPECT_THROW(rng.poisson(-1.0), std::invalid_argument);
}

TEST(ZipfSampler, MatchesAnalyticFrequencies) {
  constexpr std::size_t kRanks = 50;
  ZipfSampler zipf(kRanks, 0.9);
  Rng rng(77);
  std::vector<int> counts(kRanks, 0);
  constexpr int kN = 500000;
  for (int i = 0; i < kN; ++i) ++counts[zipf.sample(rng)];
  for (std::size_t rank : {std::size_t{0}, std::size_t{1}, std::size_t{9},
                           std::size_t{49}}) {
    const double expected = zipf.probability(rank) * kN;
    EXPECT_NEAR(counts[rank], expected, 5.0 * std::sqrt(expected) + 5.0)
        << "rank " << rank;
  }
}

TEST(ZipfSampler, ProbabilitiesSumToOne) {
  ZipfSampler zipf(1000, 1.2);
  double total = 0.0;
  for (std::size_t i = 0; i < zipf.size(); ++i) total += zipf.probability(i);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ZipfSampler, SkewZeroIsUniform) {
  ZipfSampler zipf(10, 0.0);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(zipf.probability(i), 0.1, 1e-12);
  }
}

TEST(ZipfSampler, RejectsInvalidArguments) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, -0.5), std::invalid_argument);
}

}  // namespace
}  // namespace cosm
