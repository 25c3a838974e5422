#include "numerics/redundancy_wrap.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/require.hpp"
#include "numerics/memo_cache.hpp"
#include "numerics/transform_tape.hpp"

namespace cosm::numerics {

namespace {

void require_correlation(double correlation) {
  COSM_REQUIRE(std::isfinite(correlation) && correlation >= 0.0 &&
                   correlation <= 1.0,
               "redundancy correlation must be in [0, 1]");
}

// C(n, j), built multiplicatively (n is a replica count, single digits).
double binomial(unsigned n, unsigned j) {
  double coeff = 1.0;
  for (unsigned i = 0; i < j; ++i) {
    coeff *= static_cast<double>(n - i) / static_cast<double>(i + 1);
  }
  return coeff;
}

// P[at least k of n successes] at success probability f:
// sum_{j=k}^{n} C(n,j) f^j (1-f)^{n-j}.
double binomial_tail(unsigned n, unsigned k, double f) {
  if (k == 1) {
    // The min statistic in its stable form (no cancellation near f = 0).
    return 1.0 - std::pow(1.0 - f, static_cast<double>(n));
  }
  double total = 0.0;
  for (unsigned j = k; j <= n; ++j) {
    total += binomial(n, j) * std::pow(f, static_cast<double>(j)) *
             std::pow(1.0 - f, static_cast<double>(n - j));
  }
  return std::min(1.0, total);
}

// d/df binomial_tail(n, k, f) = n C(n-1,k-1) f^{k-1} (1-f)^{n-k}.
double binomial_tail_slope(unsigned n, unsigned k, double f) {
  return static_cast<double>(n) * binomial(n - 1, k - 1) *
         std::pow(f, static_cast<double>(k - 1)) *
         std::pow(1.0 - f, static_cast<double>(n - k));
}

}  // namespace

RedundancyWrap RedundancyWrap::kth_of_n(unsigned n, unsigned k,
                                        double correlation) {
  COSM_REQUIRE(n >= 1, "order statistic needs n >= 1");
  COSM_REQUIRE(k >= 1 && k <= n, "order statistic needs 1 <= k <= n");
  require_correlation(correlation);
  RedundancyWrap wrap;
  wrap.mode_ = Mode::kKthFastest;
  wrap.n_ = n;
  wrap.k_ = k;
  wrap.correlation_ = correlation;
  return wrap;
}

RedundancyWrap RedundancyWrap::hedge(double delay, double correlation) {
  COSM_REQUIRE(std::isfinite(delay) && delay > 0,
               "hedge delay must be finite and positive");
  require_correlation(correlation);
  RedundancyWrap wrap;
  wrap.mode_ = Mode::kHedge;
  wrap.n_ = 2;
  wrap.delay_ = delay;
  wrap.correlation_ = correlation;
  return wrap;
}

RedundancyWrap::Value RedundancyWrap::map(double f, double density,
                                          double f_shifted,
                                          double density_shifted) const {
  Value os{f, density};
  switch (mode_) {
    case Mode::kNone:
      return os;
    case Mode::kKthFastest:
      os = {binomial_tail(n_, k_, f),
            binomial_tail_slope(n_, k_, f) * density};
      break;
    case Mode::kHedge:
      // 1 - (1 - F(t))(1 - F(t-d)), written so that F(t-d) = 0 (t <= d)
      // returns F(t) exactly.
      os = {f + (1.0 - f) * f_shifted,
            density * (1.0 - f_shifted) + density_shifted * (1.0 - f)};
      break;
  }
  const double c = correlation_;
  if (c <= 0.0) return os;
  // Geometric survival blend toward the single attempt (file comment).
  const double survival_os = 1.0 - os.cdf;
  const double survival = 1.0 - f;
  const double blended =
      std::pow(survival_os, 1.0 - c) * std::pow(survival, c);
  double blended_density = 0.0;
  if (blended > 0.0) {
    // blended > 0 with c > 0 implies survival > 0, and with c < 1
    // survival_os > 0.
    if (c < 1.0) {
      blended_density += (1.0 - c) * os.density * blended / survival_os;
    }
    blended_density += c * density * blended / survival;
  }
  return {1.0 - blended, blended_density};
}

double RedundancyWrap::cdf(double base, double base_shifted) const {
  return map(base, 0.0, base_shifted, 0.0).cdf;
}

CdfDensityPoint RedundancyWrap::cdf_density(
    const CdfDensityPoint& base, const CdfDensityPoint& base_shifted) const {
  if (mode_ == Mode::kNone) return base;
  const Value value = map(base.cdf.value, base.density,
                          base_shifted.cdf.value, base_shifted.density);
  const InversionQuality quality =
      mode_ == Mode::kHedge
          ? std::max(base.cdf.quality, base_shifted.cdf.quality)
          : base.cdf.quality;
  return {{value.cdf, quality}, value.density};
}

double RedundancyWrap::mean(const TransformTape& base, double base_mean,
                            int m) const {
  if (mode_ == Mode::kNone) return base_mean;
  COSM_REQUIRE(std::isfinite(base_mean) && base_mean > 0,
               "redundancy wrap needs a finite positive base mean");
  // E[T] = int_0^inf (1 - F_w(t)) dt under t = base_mean x / (1 - x),
  // x in (0, 1): the integrand (1 - F_w) base_mean / (1 - x)^2 vanishes
  // at x = 1 for the model's light tails, so a midpoint rule over kNodes
  // cells needs no horizon (O(1/kNodes^2) where F_w is smooth, first
  // order across an atom).  Hedging reads t - d in the same batched call.
  constexpr std::size_t kNodes = 32;
  const bool hedged = mode_ == Mode::kHedge;
  std::vector<double> ts(hedged ? 2 * kNodes : kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    const double x = (static_cast<double>(i) + 0.5) / kNodes;
    ts[i] = base_mean * x / (1.0 - x);
    if (hedged) ts[kNodes + i] = ts[i] - delay_;
  }
  const std::vector<double> f = base.cdf_many(ts, m);
  double total = 0.0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const double x = (static_cast<double>(i) + 0.5) / kNodes;
    const double survival = 1.0 - cdf(f[i], hedged ? f[kNodes + i] : 0.0);
    total += survival / ((1.0 - x) * (1.0 - x));
  }
  return total * base_mean / kNodes;
}

std::uint64_t RedundancyWrap::fingerprint(std::uint64_t base) const {
  if (mode_ == Mode::kNone) return base;
  std::uint64_t h = hash_mix(base, std::uint64_t{0x636f736d77726170ULL});
  h = hash_mix(h, static_cast<std::uint64_t>(mode_));
  h = hash_mix(h, static_cast<std::uint64_t>(n_));
  h = hash_mix(h, static_cast<std::uint64_t>(k_));
  h = hash_mix(h, delay_);
  return hash_mix(h, correlation_);
}

}  // namespace cosm::numerics
