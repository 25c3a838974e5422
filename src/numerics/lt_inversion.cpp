#include "numerics/lt_inversion.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numbers>
#include <utility>
#include <vector>

#include "common/require.hpp"
#include "obs/obs.hpp"

namespace cosm::numerics {

namespace {

// Reduction weights: the Euler weights depend only on the term count, so
// they are built once, at first use, for the whole stable range m in
// [2, 30] (check_order) into a table read without a lock.  Row m holds
// eta_k = (-1)^k xi_k 10^{m/3}, the binomially smoothed xi_k of Abate &
// Whitt (2006) signed and scaled, multiplied in that order.
std::vector<double> build_euler_eta(int m) {
  std::vector<double> xi(static_cast<std::size_t>(2 * m + 1), 0.0);
  xi[0] = 0.5;
  for (int k = 1; k <= m; ++k) xi[static_cast<std::size_t>(k)] = 1.0;
  xi[static_cast<std::size_t>(2 * m)] = std::pow(2.0, -m);
  for (int k = 1; k < m; ++k) {
    // xi_{2M-k} = xi_{2M-k+1} + 2^{-M} C(M, k), built up iteratively.
    double binom = std::exp(std::lgamma(m + 1.0) - std::lgamma(k + 1.0) -
                            std::lgamma(m - k + 1.0));
    xi[static_cast<std::size_t>(2 * m - k)] =
        xi[static_cast<std::size_t>(2 * m - k + 1)] +
        std::pow(2.0, -m) * binom;
  }
  const double scale = std::pow(10.0, m / 3.0);
  for (std::size_t k = 0; k < xi.size(); ++k) {
    xi[k] = (k % 2 == 0 ? 1.0 : -1.0) * xi[k] * scale;
  }
  return xi;
}

constexpr int kEulerMinM = 2;
constexpr int kEulerMaxM = 30;

// Precondition: m in [kEulerMinM, kEulerMaxM] (check_order).
const std::vector<double>& euler_eta(int m) {
  static const std::vector<std::vector<double>> table = [] {
    std::vector<std::vector<double>> rows;
    for (int order = kEulerMinM; order <= kEulerMaxM; ++order) {
      rows.push_back(build_euler_eta(order));
    }
    return rows;
  }();
  return table[static_cast<std::size_t>(m - kEulerMinM)];
}

// Contour scratch buffers, reused across inversions so the steady state
// allocates nothing.  A per-thread free list (rather than one thread_local
// buffer) keeps re-entrancy safe: an `lt` callback that itself runs an
// inversion checks out a different buffer instead of clobbering its
// caller's nodes mid-reduction.
struct ContourScratch {
  std::vector<std::complex<double>> nodes;
  std::vector<std::complex<double>> values;
};

class ScratchLease {
 public:
  ScratchLease() : scratch_(acquire()) {}
  ~ScratchLease() { pool().push_back(std::move(scratch_)); }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  ContourScratch& operator*() { return *scratch_; }
  ContourScratch* operator->() { return scratch_.get(); }

 private:
  static std::vector<std::unique_ptr<ContourScratch>>& pool() {
    thread_local std::vector<std::unique_ptr<ContourScratch>> free_list;
    return free_list;
  }
  static std::unique_ptr<ContourScratch> acquire() {
    auto& free_list = pool();
    if (free_list.empty()) return std::make_unique<ContourScratch>();
    auto scratch = std::move(free_list.back());
    free_list.pop_back();
    return scratch;
  }
  std::unique_ptr<ContourScratch> scratch_;
};

void check_order(int m) {
  COSM_REQUIRE(m >= kEulerMinM && m <= kEulerMaxM,
               "euler M out of the stable range [2, 30]");
}

// Classifies a raw (pre-clamp) CDF value against the thresholds of
// InversionQuality.
InversionQuality classify_cdf_value(double raw) {
  if (!std::isfinite(raw)) return InversionQuality::kNonFinite;
  // excess > 0 means the raw sum sits outside [0, 1] by that much.
  const double excess = std::max(0.0 - raw, raw - 1.0);
  if (excess <= kCdfErrorBudget) return InversionQuality::kConverged;
  if (excess <= 1e-3) return InversionQuality::kTruncated;
  return InversionQuality::kClamped;
}

// Records the per-inversion obs accounting: one verdict counter, the
// call, and the contour budget spent.
void count_inversion(InversionQuality quality, std::size_t terms) {
  if (!obs::enabled()) return;
  switch (quality) {
    case InversionQuality::kConverged:
      obs::add(obs::Counter::kInversionConverged);
      break;
    case InversionQuality::kTruncated:
      obs::add(obs::Counter::kInversionTruncated);
      break;
    case InversionQuality::kClamped:
      obs::add(obs::Counter::kInversionClamped);
      break;
    case InversionQuality::kNonFinite:
      obs::add(obs::Counter::kInversionNonFinite);
      break;
  }
  obs::add(obs::Counter::kInversionCalls);
  obs::add(obs::Counter::kInversionTerms, static_cast<std::uint64_t>(terms));
}

// Euler reduction (1/t) sum_k eta_k Re v_k over one contour's values.
double euler_reduce(double t, const std::vector<double>& eta,
                    const std::complex<double>* values) {
  double sum = 0.0;
  for (std::size_t k = 0; k < eta.size(); ++k) {
    sum += eta[k] * values[k].real();
  }
  return sum / t;
}

}  // namespace

int euler_terms(int m) { return 2 * m + 1; }

void euler_fill_nodes(double t, int m, std::span<std::complex<double>> out) {
  COSM_REQUIRE(t > 0, "euler inversion requires t > 0");
  check_order(m);
  const int terms = euler_terms(m);
  COSM_REQUIRE(out.size() == static_cast<std::size_t>(terms),
               "euler node span has the wrong length");
  // Abate & Whitt (2006): contour nodes beta_k / t with beta_k =
  // M ln(10)/3 + i pi k.
  const double a = m * std::numbers::ln10 / 3.0;
  for (int k = 0; k < terms; ++k) {
    const std::complex<double> beta(a, std::numbers::pi * k);
    out[static_cast<std::size_t>(k)] = beta / t;
  }
}

void invert_cdf(const BatchLaplaceFn& lt_many, std::span<const double> ts,
                int m, std::span<CdfDensityPoint> out) {
  COSM_REQUIRE(out.size() == ts.size(), "invert_cdf needs one output per t");
  check_order(m);
  std::fill(out.begin(), out.end(), CdfDensityPoint{});
  const std::size_t live = static_cast<std::size_t>(
      std::count_if(ts.begin(), ts.end(), [](double t) { return t > 0.0; }));
  if (live == 0) return;
  obs::Span span("numerics.cdf_many");
  // Concatenate the contours of every positive t into one node array so
  // the transform is evaluated exactly once.
  const std::size_t terms = static_cast<std::size_t>(euler_terms(m));
  ScratchLease scratch;
  scratch->nodes.resize(terms * live);
  scratch->values.resize(terms * live);
  std::complex<double>* nodes = scratch->nodes.data();
  for (const double t : ts) {
    if (!(t > 0.0)) continue;
    euler_fill_nodes(t, m, std::span<std::complex<double>>(nodes, terms));
    nodes += terms;
  }
  lt_many(scratch->nodes, scratch->values);
  const std::vector<double>& eta = euler_eta(m);
  nodes = scratch->nodes.data();
  std::complex<double>* values = scratch->values.data();
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const double t = ts[i];
    if (!(t > 0.0)) continue;
    // f reduces the node values as they are; DIV-BY-S in place then turns
    // them into the CDF transform's (L[F](s) = L[f](s)/s), and the same
    // reduction gives the raw, unclamped F.
    const double density = euler_reduce(t, eta, values);
    for (std::size_t k = 0; k < terms; ++k) values[k] = values[k] / nodes[k];
    const double raw = euler_reduce(t, eta, values);
    const InversionQuality quality = classify_cdf_value(raw);
    count_inversion(quality, terms);
    // A non-finite raw passes through std::clamp unchanged (both
    // comparisons are false).
    out[i] = {{std::clamp(raw, 0.0, 1.0), quality}, density};
    nodes += terms;
    values += terms;
  }
}

double solve_quantile(const CdfDensityFn& probe, double p, double mean_hint,
                      double t_max) {
  COSM_REQUIRE(p > 0 && p < 1, "quantile level must be in (0, 1)");
  COSM_REQUIRE(mean_hint > 0, "mean hint must be positive");
  constexpr double kTolerance = 1e-9;  // relative to t; floor of the stop
  constexpr int kMaxProbes = 200;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double log_target = std::log1p(-p);  // ln(1 - p)
  obs::add(obs::Counter::kQuantileColdStart);
  double t = mean_hint * std::max(1.0, -std::log1p(-p));
  // Probed bracket: F(lo) < p <= F(hi); 0 / +inf while a side is unknown.
  double lo = 0.0;
  double hi = kInf;
  // |step| of the last two moves; a Newton step must at least halve the
  // one before last, so progress is geometric even where f is noisy.
  double last_step = kInf;
  double step_before_last = kInf;
  for (int probes = 0;; ++probes) {
    COSM_REQUIRE(probes < kMaxProbes, "quantile root search did not converge");
    const CdfDensityPoint at = probe(t);
    const double cdf = at.cdf.value;
    COSM_REQUIRE(std::isfinite(cdf),
                 "quantile probe returned a non-finite CDF");
    (cdf < p ? lo : hi) = t;
    const double survival = 1.0 - cdf;
    double next = kInf;
    if (survival > 0.0 && at.density > 0.0) {
      next = t + (std::log(survival) - log_target) * survival / at.density;
    }
    const bool newton = next > lo && next < hi &&
                        std::abs(next - t) <= 0.5 * step_before_last &&
                        (hi < kInf || next <= 2.0 * t) &&
                        (lo > 0.0 || next >= 0.1 * t);
    if (newton) {
      obs::add(obs::Counter::kQuantileNewtonSteps);
    } else {
      obs::add(obs::Counter::kQuantileBisectSteps);
      next = hi == kInf ? 2.0 * lo : lo == 0.0 ? 0.1 * hi : 0.5 * (lo + hi);
    }
    COSM_REQUIRE(hi < kInf || next <= t_max,
                 "quantile could not be bracketed below t_max");
    COSM_REQUIRE(lo > 0.0 || next >= 1e-14 * mean_hint,
                 "quantile could not be bracketed above zero");
    const double step = next - t;
    // A Newton step no longer than budget / f comes from a probe whose F
    // is already within the CDF error budget of p: more probes would chase
    // inversion noise.  A bisection step says nothing about F at its end,
    // so it stops only on the relative floor.
    const double tolerance =
        newton ? std::max(kTolerance * t, kCdfErrorBudget / at.density)
               : kTolerance * t;
    if (std::abs(step) <= tolerance) return next;
    step_before_last = last_step;
    last_step = std::abs(step);
    t = next;
  }
}

}  // namespace cosm::numerics
