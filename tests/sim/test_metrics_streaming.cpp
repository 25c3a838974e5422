// Streaming (constant-memory) metrics mode vs the default sampled mode:
// both answer latency quantile / CDF queries, streaming within one log-
// bucket width, and both exclude warmup, timeouts, and fault-killed
// requests from the latency distribution.
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sim/metrics.hpp"

namespace {

using cosm::sim::RequestSample;
using cosm::sim::SimMetrics;
using cosm::sim::StreamingConfig;

RequestSample sample_at(double arrival, double latency) {
  RequestSample sample;
  sample.frontend_arrival = arrival;
  sample.response_latency = latency;
  return sample;
}

TEST(MetricsStreaming, QuantilesAgreeWithSampledMode) {
  SimMetrics sampled(1);
  SimMetrics streaming(1);
  streaming.enable_streaming();
  ASSERT_TRUE(streaming.streaming());
  ASSERT_FALSE(sampled.streaming());

  cosm::Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    // Log-normal-ish spread over ~3 decades, the shape latencies have.
    const double latency = 1e-3 * std::exp(rng.normal(0.0, 2.0));
    sampled.on_request_complete(sample_at(1.0, latency));
    streaming.on_request_complete(sample_at(1.0, latency));
  }
  EXPECT_EQ(sampled.latency_count(), 20000u);
  EXPECT_EQ(streaming.latency_count(), 20000u);
  // Welford moments are mode-independent (same adds, same order).
  EXPECT_EQ(sampled.latency_moments().mean(), streaming.latency_moments().mean());

  for (const double p : {0.5, 0.9, 0.95, 0.99}) {
    const double exact = sampled.latency_quantile(p);
    const double bucketed = streaming.latency_quantile(p);
    // 200 buckets/decade -> ~1.16% bucket width; allow two widths.
    EXPECT_NEAR(bucketed / exact, 1.0, 0.025) << "p=" << p;
  }
}

TEST(MetricsStreaming, StreamingDropsRequestSamples) {
  SimMetrics metrics(1);
  metrics.enable_streaming();
  for (int i = 0; i < 100; ++i) {
    metrics.on_request_complete(sample_at(0.0, 0.01));
  }
  EXPECT_TRUE(metrics.requests().empty());
  EXPECT_EQ(metrics.completed_requests(), 100u);
  EXPECT_EQ(metrics.latency_count(), 100u);
}

TEST(MetricsStreaming, WarmupTimeoutsAndFailuresExcludedInBothModes) {
  for (const bool streaming : {false, true}) {
    SimMetrics metrics(1);
    metrics.sample_start_time = 10.0;
    if (streaming) metrics.enable_streaming();

    metrics.on_request_complete(sample_at(5.0, 0.5));  // warmup: dropped
    metrics.on_request_complete(sample_at(11.0, 0.1));
    RequestSample timed_out = sample_at(12.0, 9.9);
    timed_out.timed_out = true;
    metrics.on_request_complete(timed_out);
    RequestSample failed = sample_at(13.0, 9.9);
    failed.failed = true;
    metrics.on_request_complete(failed);

    EXPECT_EQ(metrics.latency_count(), 1u) << "streaming=" << streaming;
    EXPECT_EQ(metrics.latency_moments().count(), 1u);
    EXPECT_NEAR(metrics.latency_quantile(0.5), 0.1, 0.002);
    EXPECT_EQ(metrics.timeouts(), 1u);
    EXPECT_EQ(metrics.failures(), 1u);
  }
}

TEST(MetricsStreaming, CustomHistogramResolution) {
  SimMetrics metrics(1);
  StreamingConfig config;
  config.buckets_per_decade = 1000;  // ~0.23% bucket width
  metrics.enable_streaming(config);
  cosm::Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    metrics.on_request_complete(sample_at(0.0, 0.01 + 0.02 * rng.uniform()));
  }
  const double p50 = metrics.latency_quantile(0.5);
  EXPECT_NEAR(p50, 0.02, 0.001);
}

TEST(MetricsStreaming, EnableStreamingRejectedAfterSamples) {
  SimMetrics metrics(1);
  metrics.on_request_complete(sample_at(0.0, 0.01));
  EXPECT_THROW(metrics.enable_streaming(), std::exception);
}

TEST(MetricsStreaming, CheckedQuantileFlagsOutOfRangeMass) {
  SimMetrics metrics(1);
  StreamingConfig config;
  config.hist_min = 1e-3;
  config.hist_max = 1.0;
  metrics.enable_streaming(config);
  // Every latency beyond hist_max: the streaming histogram can only
  // bound the quantile, and the checked surface must say so instead of
  // fabricating a value.
  for (int i = 0; i < 100; ++i) {
    metrics.on_request_complete(sample_at(0.0, 50.0));
  }
  const cosm::stats::QuantileEstimate p99 =
      metrics.latency_quantile_checked(0.99);
  EXPECT_EQ(p99.bound, cosm::stats::QuantileBound::kLowerBound);
  EXPECT_GE(p99.value, 1.0);
  // Legacy surface keeps returning the same (bound) value.
  EXPECT_EQ(metrics.latency_quantile(0.99), p99.value);
}

TEST(MetricsStreaming, CheckedQuantileIsExactInSampledMode) {
  SimMetrics metrics(1);
  for (int i = 0; i < 100; ++i) {
    metrics.on_request_complete(sample_at(0.0, 0.01 * (i + 1)));
  }
  const cosm::stats::QuantileEstimate p50 =
      metrics.latency_quantile_checked(0.5);
  EXPECT_EQ(p50.bound, cosm::stats::QuantileBound::kExact);
  EXPECT_EQ(p50.value, metrics.latency_quantile(0.5));
}

TEST(MetricsStreaming, ReserveIsNoOpInStreamingMode) {
  SimMetrics metrics(1);
  metrics.enable_streaming();
  metrics.reserve_request_samples(1 << 20);  // must not allocate samples
  EXPECT_TRUE(metrics.requests().empty());
  SimMetrics sampled(1);
  sampled.reserve_request_samples(128);
  sampled.on_request_complete(sample_at(0.0, 0.01));
  EXPECT_EQ(sampled.requests().size(), 1u);
}

}  // namespace
