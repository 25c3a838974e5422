#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "stats/histogram.hpp"
#include "stats/sla.hpp"
#include "stats/summary.hpp"

namespace cosm::stats {
namespace {

TEST(LogHistogram, QuantilesWithinBucketResolution) {
  LogHistogram h(1e-5, 10.0, 100);
  cosm::Rng rng(3);
  SampleSet exact;
  for (int i = 0; i < 200000; ++i) {
    const double x = rng.gamma(2.0, 100.0);
    h.add(x);
    exact.add(x);
  }
  for (double p : {0.5, 0.9, 0.95, 0.99}) {
    const double approx = h.quantile(p);
    const double truth = exact.quantile(p);
    // 100 buckets/decade => ~2.3% relative resolution.
    EXPECT_NEAR(approx / truth, 1.0, 0.03) << p;
  }
}

TEST(LogHistogram, FractionBelowMatchesEmpiricalCdf) {
  LogHistogram h(1e-5, 10.0, 100);
  cosm::Rng rng(7);
  SampleSet exact;
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.exponential(50.0);
    h.add(x);
    exact.add(x);
  }
  for (double t : {0.005, 0.02, 0.05, 0.1}) {
    EXPECT_NEAR(h.fraction_below(t), exact.fraction_below(t), 0.01) << t;
  }
}

TEST(LogHistogram, ClampBucketsCatchOutliers) {
  LogHistogram h(1e-3, 1.0, 10);
  h.add(1e-9);   // underflow
  h.add(1e9);    // overflow
  h.add(0.5);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_LE(h.quantile(0.0), 1e-3);
  EXPECT_GE(h.quantile(0.99), 1.0);
}

TEST(LogHistogram, MergeAddsCounts) {
  LogHistogram a(1e-3, 1.0, 10);
  LogHistogram b(1e-3, 1.0, 10);
  a.add(0.1);
  b.add(0.2);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  LogHistogram incompatible(1e-2, 1.0, 10);
  EXPECT_THROW(a.merge(incompatible), std::invalid_argument);
}

TEST(LogHistogram, Validation) {
  EXPECT_THROW(LogHistogram(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(LogHistogram(1.0, 0.5), std::invalid_argument);
  const LogHistogram h(1e-3, 1.0);
  EXPECT_THROW(h.quantile(0.5), std::invalid_argument);  // empty
}

TEST(SlaCounter, CountsPerInterval) {
  SlaCounter counter({0.01, 0.05}, 60.0);
  // Interval 0: two requests, one meets 10ms, both meet 50ms.
  counter.record(10.0, 0.005);
  counter.record(30.0, 0.030);
  // Interval 2 (t in [120, 180)): one request missing both SLAs.
  counter.record(130.0, 0.2);
  ASSERT_EQ(counter.interval_count(), 3u);
  EXPECT_NEAR(counter.fraction_met(0, 0), 0.5, 1e-14);
  EXPECT_NEAR(counter.fraction_met(1, 0), 1.0, 1e-14);
  EXPECT_EQ(counter.fraction_met(0, 1), 0.0);  // empty interval
  EXPECT_NEAR(counter.fraction_met(0, 2), 0.0, 1e-14);
  EXPECT_NEAR(counter.fraction_met_over(1, 0, 3), 2.0 / 3.0, 1e-14);
  EXPECT_EQ(counter.total_requests(), 3u);
}

TEST(SlaCounter, PooledWindowMatchesManualCount) {
  SlaCounter counter({0.1}, 10.0);
  for (int i = 0; i < 100; ++i) {
    counter.record(static_cast<double>(i), i % 4 == 0 ? 0.05 : 0.2);
  }
  // Intervals [2, 5): t in [20, 50) => 30 requests, those with i%4==0 meet.
  const double expected = 8.0 / 30.0;
  EXPECT_NEAR(counter.fraction_met_over(0, 2, 5), expected, 1e-14);
}

TEST(SlaCounter, BoundaryLatencyCountsAsMet) {
  SlaCounter counter({0.1}, 60.0);
  counter.record(0.0, 0.1);  // exactly at the SLA
  EXPECT_NEAR(counter.fraction_met(0, 0), 1.0, 1e-14);
}

TEST(SlaCounter, Validation) {
  EXPECT_THROW(SlaCounter({}, 60.0), std::invalid_argument);
  EXPECT_THROW(SlaCounter({0.0}, 60.0), std::invalid_argument);
  EXPECT_THROW(SlaCounter({0.1}, 0.0), std::invalid_argument);
  SlaCounter c({0.1}, 60.0);
  EXPECT_THROW(c.record(-1.0, 0.1), std::invalid_argument);
  EXPECT_THROW(c.fraction_met(1, 0), std::invalid_argument);
}

TEST(PredictionErrorSummary, TableOneAggregates) {
  PredictionErrorSummary summary;
  summary.add(0.95, 0.93);   // +0.02
  summary.add(0.80, 0.85);   // -0.05
  summary.add(0.60, 0.599);  // +0.001
  EXPECT_EQ(summary.count(), 3u);
  EXPECT_NEAR(summary.mean_abs_error(), (0.02 + 0.05 + 0.001) / 3.0, 1e-12);
  EXPECT_NEAR(summary.best_case(), 0.001, 1e-12);
  EXPECT_NEAR(summary.worst_case(), 0.05, 1e-12);
}

TEST(PredictionErrorSummary, Validation) {
  PredictionErrorSummary summary;
  EXPECT_THROW(summary.mean_abs_error(), std::invalid_argument);
  EXPECT_THROW(summary.add(1.5, 0.5), std::invalid_argument);
  EXPECT_THROW(summary.add(0.5, -0.5), std::invalid_argument);
}

}  // namespace
}  // namespace cosm::stats
