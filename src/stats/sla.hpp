// SLA accounting, mirroring the paper's measurement procedure (Sec. V-A):
// "the system counts the number of requests that meet or violate the SLA
// ... for each minute" and percentiles are averaged over the 5 minutes of
// each arrival-rate step.  SlaCounter implements the per-interval counting;
// PredictionErrorSummary implements the Table I / Table II aggregation of
// |predicted - observed| across a run.
#pragma once

#include <cstdint>
#include <vector>

namespace cosm::stats {

class SlaCounter {
 public:
  // `slas` are latency thresholds (seconds); interval_length (seconds)
  // partitions time into measurement intervals.
  SlaCounter(std::vector<double> slas, double interval_length);

  // Record a completed request: completion wall-clock (simulated) time and
  // its response latency.
  void record(double completion_time, double latency);

  std::size_t sla_count() const { return slas_.size(); }
  double sla(std::size_t i) const { return slas_[i]; }
  std::size_t interval_count() const { return met_.size(); }

  // Fraction of requests meeting SLA i within interval j.
  double fraction_met(std::size_t sla_index, std::size_t interval) const;
  // Fraction over all intervals in [first, last) pooled together (the
  // paper's 5-minute averages).
  double fraction_met_over(std::size_t sla_index, std::size_t first,
                           std::size_t last) const;
  std::uint64_t total_requests() const { return total_requests_; }

 private:
  std::vector<double> slas_;
  double interval_length_;
  // met_[interval][sla], totals_[interval].
  std::vector<std::vector<std::uint64_t>> met_;
  std::vector<std::uint64_t> totals_;
  std::uint64_t total_requests_ = 0;
};

// Aggregates |predicted - observed| percentile errors (both in [0, 1])
// the way Tables I and II report them.
class PredictionErrorSummary {
 public:
  void add(double predicted, double observed);

  std::size_t count() const { return errors_.size(); }
  double mean_abs_error() const;
  double best_case() const;   // smallest |error|
  double worst_case() const;  // largest |error|

 private:
  std::vector<double> errors_;  // signed
};

}  // namespace cosm::stats
