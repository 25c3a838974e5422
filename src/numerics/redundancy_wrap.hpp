// Redundancy wrap: the redundancy extension's model-side counterpart of
// the simulator's hedged and (n,k) fan-out reads.
//
// The paper's model predicts the latency of ONE attempt.  Tail-tolerant
// request scheduling completes a logical request from SEVERAL concurrent
// attempts: a hedged GET finishes when either the primary attempt or a
// delayed second attempt responds, and an (n,k) coded read finishes on
// the k-th of n attempts.  Under the independent-replica approximation
// (attempt latencies i.i.d. copies of the single-attempt response T with
// CDF F and density f), the completed-request CDF is a closed form in F:
//
//   k-th of n    F_(k:n)(t) = sum_{j=k}^{n} C(n,j) F(t)^j (1-F(t))^{n-j}
//                             (k = 1: the min of n, 1 - (1 - F(t))^n)
//   hedged at d  F_h(t)     = 1 - (1 - F(t))(1 - F(t-d)),  F(t-d) = 0
//                             for t <= d
//
// An order statistic has no algebraic expression in transform space, but
// it needs none: the wrap is always the outermost node of a device's
// response, and the model reads a device only through F and f at points.
// RedundancyWrap is therefore a pure pointwise map from the base's (F, f)
// at t — and at t - d for hedging — to the wrapped (F, f), the density by
// the chain rule:
//
//   k-th of n    f_(k:n)(t) = n C(n-1,k-1) F^{k-1} (1-F)^{n-k} f(t)
//   hedged at d  f_h(t)     = f(t)(1 - F(t-d)) + f(t-d)(1 - F(t))
//
// Error.  The map's slope in F is at most n for the k-th of n (n times a
// binomial probability) and at most 1 in each of the two hedged reads,
// so a base CDF within numerics::kCdfErrorBudget gives a wrapped CDF
// within n x budget (2 x budget for hedging).
//
// Fork-join correction.  Independence is optimistic: concurrent attempts
// share arrival bursts, so their queues are busy at the same times and
// the realized diversity is smaller than n.  `correlation` c in [0, 1]
// blends the independent order-statistic SURVIVAL function geometrically
// toward the single-attempt survival,
//
//   1 - F_c = (1 - F_os)^{1-c} (1 - F)^{c},
//   f_c     = (1 - F_c) [(1-c) f_os / (1 - F_os) + c f / (1 - F)],
//
// which for the min statistic is exactly an effective replica count
// n_eff = n - c (n - 1): full diversity at c = 0, no benefit at c = 1.
// The model layer passes the backend utilization as c (busy queues are
// exactly when attempts correlate); see core::RedundancyOptions.
#pragma once

#include <cstdint>

#include "numerics/lt_inversion.hpp"

namespace cosm::numerics {

class TransformTape;

class RedundancyWrap {
 public:
  enum class Mode : std::uint8_t {
    kNone,        // one attempt: the map is the identity
    kKthFastest,  // k-th fastest of n concurrent attempts (k = 1: min of n)
    kHedge,       // a second attempt issued `delay` after the first
  };

  // The identity wrap.
  RedundancyWrap() = default;
  // Preconditions: 1 <= k <= n, correlation in [0, 1].
  static RedundancyWrap kth_of_n(unsigned n, unsigned k,
                                 double correlation = 0.0);
  // Preconditions: delay finite and > 0 (seconds), correlation in [0, 1].
  static RedundancyWrap hedge(double delay, double correlation = 0.0);

  Mode mode() const { return mode_; }
  unsigned n() const { return n_; }
  unsigned k() const { return k_; }
  double delay() const { return delay_; }
  double correlation() const { return correlation_; }

  // Wrapped F at t from the base's F at t and, for hedging, at t - delay()
  // (0 when t <= delay(); ignored by the other modes).  The identity when
  // mode() is kNone.
  double cdf(double base, double base_shifted) const;
  // Wrapped (F, f) from the base's (F, f) at t and at t - delay(); the
  // verdict is the worse of the base verdicts read.  F is bit-identical to
  // cdf(base.cdf.value, base_shifted.cdf.value).
  CdfDensityPoint cdf_density(const CdfDensityPoint& base,
                              const CdfDensityPoint& base_shifted) const;

  // Mean of the wrapped latency, integral of (1 - F_w) over t >= 0, from
  // ONE base.invert_cdf call at Euler order m.  `base_mean` is the base's
  // mean (seconds): returned as is when mode() is kNone, otherwise
  // required finite and > 0.  Accurate to about 2e-3 relative (the
  // model's atoms cost the midpoint rule its second order): a seed and a
  // summary figure, not a budgeted quantity.
  double mean(const TransformTape& base, double base_mean, int m) const;

  // Cache identity of the wrapped distribution: `base` itself when mode()
  // is kNone, else `base` hashed with every field (the correlation bits
  // included).
  std::uint64_t fingerprint(std::uint64_t base) const;

 private:
  struct Value {
    double cdf;
    double density;
  };
  Value map(double f, double density, double f_shifted,
            double density_shifted) const;

  Mode mode_ = Mode::kNone;
  unsigned n_ = 1;
  unsigned k_ = 1;
  double delay_ = 0.0;
  double correlation_ = 0.0;
};

}  // namespace cosm::numerics
