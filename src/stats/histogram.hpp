// Log-bucketed latency histogram: constant-memory percentile estimation
// for long simulator runs where retaining raw samples is wasteful.
// Buckets grow geometrically, so relative quantile error is bounded by the
// per-decade resolution.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cosm::stats {

// How to read a QuantileEstimate: kExact means the quantile fell in a
// core bucket and the interpolated value is good to one bucket width.
// The clamp verdicts mean the quantile fell in a clamp bucket, where the
// histogram retains no position information — the estimate is then the
// tightest provable bound, not an interpolation:
//  * kUpperBound — underflow bucket; the true quantile is <= value
//    (value = the histogram's min_value);
//  * kLowerBound — overflow bucket; the true quantile is >= value
//    (value = the last tracked bucket edge).
// Historical bug: quantile() used to interpolate *inside* clamp buckets,
// fabricating a midpoint between 0 and min_value (or pinning to the
// overflow edge) with no indication anything was wrong.  Both paths now
// return the bound and bump the hist.quantile_clamped obs counter.
enum class QuantileBound : std::uint8_t {
  kExact,
  kLowerBound,
  kUpperBound,
};

struct QuantileEstimate {
  double value = 0.0;
  QuantileBound bound = QuantileBound::kExact;
};

class LogHistogram {
 public:
  // Values in [min_value, max_value] are bucketed geometrically with
  // `buckets_per_decade` resolution; values below/above go to clamp
  // buckets.
  LogHistogram(double min_value, double max_value,
               int buckets_per_decade = 100);

  void add(double value);
  void merge(const LogHistogram& other);

  std::uint64_t count() const { return total_; }
  // Quantile estimate (bucket lower edge + linear interpolation); exact to
  // within one bucket width for core buckets.  When the quantile falls in
  // a clamp bucket this returns the provable bound — see QuantileBound;
  // use quantile_checked to learn which case occurred.
  double quantile(double p) const;
  // Same value, plus whether it is exact or a clamp-bucket bound.
  QuantileEstimate quantile_checked(double p) const;
  // Fraction of recorded values <= threshold.
  double fraction_below(double threshold) const;

 private:
  std::size_t bucket_index(double value) const;
  double bucket_lower_edge(std::size_t index) const;

  double min_value_;
  double log_min_;
  double inv_log_step_;
  double log_step_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace cosm::stats
