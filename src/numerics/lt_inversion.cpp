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

// Node weights: the Euler xi weights depend only on the term count, yet
// every inversion used to recompute them (~2M lgamma/exp calls per CDF
// query — a measurable slice of the ~3 µs budget when the transform
// itself is a shallow tree).  They cover the whole stable range M in
// [2, 30] (check_euler_args) and are built once, at first use, into a
// table read without a lock.
std::vector<double> build_euler_xi(int m) {
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
  return xi;
}

constexpr int kEulerMinM = 2;
constexpr int kEulerMaxM = 30;

// Precondition: m in [kEulerMinM, kEulerMaxM] (check_euler_args).
const std::vector<double>& euler_xi(int m) {
  static const std::vector<std::vector<double>> table = [] {
    std::vector<std::vector<double>> rows;
    for (int order = kEulerMinM; order <= kEulerMaxM; ++order) {
      rows.push_back(build_euler_xi(order));
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

void check_euler_args(double t, int m) {
  COSM_REQUIRE(t > 0, "euler inversion requires t > 0");
  COSM_REQUIRE(m >= kEulerMinM && m <= kEulerMaxM,
               "euler M out of the stable range [2, 30]");
}

// Records the per-inversion obs accounting: one verdict counter, the
// call, and the contour budget spent.
void count_inversion(InversionQuality quality, int terms) {
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
  obs::add(obs::Counter::kInversionTerms,
           static_cast<std::uint64_t>(terms));
}

// Clamp + classify + count in one place: every CDF inversion in this file
// funnels through here, so no out-of-range raw sum can vanish without at
// least a counter bump.  The returned value preserves the historical
// arithmetic exactly: std::clamp for finite raws, and a non-finite raw
// passes through std::clamp unchanged (both comparisons are false) — so
// checked and unchecked callers see bit-identical doubles.
CdfPoint finish_cdf(double raw, int terms) {
  const InversionQuality quality = classify_cdf_value(raw);
  count_inversion(quality, terms);
  return CdfPoint{std::clamp(raw, 0.0, 1.0), quality};
}

// Fills the Euler contour for t into `scratch` and evaluates lt_many over
// it: scratch.values[k] = L[f](nodes[k]).  The batched inverters share
// this, so the CDF and (F, f) entry points see the same node values.
void euler_evaluate(const BatchLaplaceFn& lt_many, double t, int m,
                    ContourScratch& scratch) {
  check_euler_args(t, m);
  const std::size_t terms = static_cast<std::size_t>(euler_terms(m));
  scratch.nodes.resize(terms);
  scratch.values.resize(terms);
  euler_fill_nodes(t, m, scratch.nodes);
  lt_many(scratch.nodes, scratch.values);
}

// DIV-BY-S in place (inverting L[f](s)/s turns the density transform into
// the CDF transform), then the Euler reduction: the raw, unclamped F(t).
double euler_cdf_raw(double t, int m, ContourScratch& scratch) {
  for (std::size_t k = 0; k < scratch.values.size(); ++k) {
    scratch.values[k] = scratch.values[k] / scratch.nodes[k];
  }
  return euler_reduce(t, m, scratch.values);
}

}  // namespace

// --------------------------- contour plumbing ----------------------------

int euler_terms(int m) { return 2 * m + 1; }

void euler_fill_nodes(double t, int m, std::span<std::complex<double>> out) {
  check_euler_args(t, m);
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

double euler_reduce(double t, int m,
                    std::span<const std::complex<double>> values) {
  check_euler_args(t, m);
  const int terms = euler_terms(m);
  COSM_REQUIRE(values.size() == static_cast<std::size_t>(terms),
               "euler value span has the wrong length");
  // f(t) ~ (1/t) sum_{k=0}^{2M} eta_k Re v_k with Euler-smoothed eta_k.
  const std::vector<double>& xi = euler_xi(m);
  const double scale = std::pow(10.0, m / 3.0);
  double sum = 0.0;
  for (int k = 0; k < terms; ++k) {
    const double eta =
        (k % 2 == 0 ? 1.0 : -1.0) * xi[static_cast<std::size_t>(k)] * scale;
    sum += eta * values[static_cast<std::size_t>(k)].real();
  }
  return sum / t;
}

// ------------------------------- inverters -------------------------------

double invert_euler(const LaplaceFn& lt, double t, int m) {
  check_euler_args(t, m);
  const std::size_t terms = static_cast<std::size_t>(euler_terms(m));
  ScratchLease scratch;
  scratch->nodes.resize(terms);
  scratch->values.resize(terms);
  euler_fill_nodes(t, m, scratch->nodes);
  for (std::size_t k = 0; k < terms; ++k) {
    scratch->values[k] = lt(scratch->nodes[k]);
  }
  return euler_reduce(t, m, scratch->values);
}

double invert_euler(const BatchLaplaceFn& lt_many, double t, int m) {
  ScratchLease scratch;
  euler_evaluate(lt_many, t, m, *scratch);
  return euler_reduce(t, m, scratch->values);
}

InversionQuality classify_cdf_value(double raw) {
  if (!std::isfinite(raw)) return InversionQuality::kNonFinite;
  // excess > 0 means the raw sum sits outside [0, 1] by that much.
  const double excess = std::max(0.0 - raw, raw - 1.0);
  if (excess <= kCdfErrorBudget) return InversionQuality::kConverged;
  if (excess <= 1e-3) return InversionQuality::kTruncated;
  return InversionQuality::kClamped;
}

CdfPoint cdf_from_laplace_checked(const LaplaceFn& lt, double t, int m) {
  if (t <= 0.0) return CdfPoint{0.0, InversionQuality::kConverged};
  check_euler_args(t, m);
  const std::size_t terms = static_cast<std::size_t>(euler_terms(m));
  ScratchLease scratch;
  scratch->nodes.resize(terms);
  scratch->values.resize(terms);
  euler_fill_nodes(t, m, scratch->nodes);
  // DIV-BY-S: inverting L[f](s)/s turns the density transform into the
  // CDF transform; the division is fused after evaluation.
  for (std::size_t k = 0; k < terms; ++k) {
    scratch->values[k] = lt(scratch->nodes[k]) / scratch->nodes[k];
  }
  return finish_cdf(euler_reduce(t, m, scratch->values),
                    static_cast<int>(terms));
}

CdfPoint cdf_from_laplace_checked(const BatchLaplaceFn& lt_many, double t,
                                  int m) {
  if (t <= 0.0) return CdfPoint{0.0, InversionQuality::kConverged};
  ScratchLease scratch;
  euler_evaluate(lt_many, t, m, *scratch);
  return finish_cdf(euler_cdf_raw(t, m, *scratch), euler_terms(m));
}

CdfDensityPoint cdf_density_from_laplace(const BatchLaplaceFn& lt_many,
                                         double t, int m) {
  if (t <= 0.0) return {};
  ScratchLease scratch;
  euler_evaluate(lt_many, t, m, *scratch);
  // The density reduces the node values before euler_cdf_raw divides
  // them by s in place.
  const double density = euler_reduce(t, m, scratch->values);
  return {finish_cdf(euler_cdf_raw(t, m, *scratch), euler_terms(m)),
          density};
}

double cdf_from_laplace(const LaplaceFn& lt, double t, int m) {
  return cdf_from_laplace_checked(lt, t, m).value;
}

double cdf_from_laplace(const BatchLaplaceFn& lt_many, double t, int m) {
  return cdf_from_laplace_checked(lt_many, t, m).value;
}

namespace {

// Shared worker for both cdf_many overloads; `quality` may be empty (no
// propagation) or ts-sized.
std::vector<double> cdf_many_impl(const BatchLaplaceFn& lt_many,
                                  std::span<const double> ts, int m,
                                  std::span<InversionQuality> quality) {
  COSM_REQUIRE(quality.empty() || quality.size() == ts.size(),
               "quality span must match the t grid");
  std::vector<double> out(ts.size(), 0.0);
  for (std::size_t i = 0; i < quality.size(); ++i) {
    quality[i] = InversionQuality::kConverged;  // exact 0 for t <= 0
  }
  // Concatenate the contours of every positive t into one node array so
  // the transform is evaluated exactly once.
  std::vector<std::size_t> live;
  live.reserve(ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts[i] > 0.0) {
      check_euler_args(ts[i], m);
      live.push_back(i);
    }
  }
  if (live.empty()) return out;
  obs::Span span("numerics.cdf_many");
  const std::size_t terms = static_cast<std::size_t>(euler_terms(m));
  ScratchLease scratch;
  scratch->nodes.resize(terms * live.size());
  scratch->values.resize(terms * live.size());
  for (std::size_t b = 0; b < live.size(); ++b) {
    euler_fill_nodes(ts[live[b]], m,
                     std::span<std::complex<double>>(
                         scratch->nodes.data() + b * terms, terms));
  }
  lt_many(scratch->nodes, scratch->values);
  for (std::size_t b = 0; b < live.size(); ++b) {
    std::complex<double>* nodes = scratch->nodes.data() + b * terms;
    std::complex<double>* values = scratch->values.data() + b * terms;
    for (std::size_t k = 0; k < terms; ++k) values[k] = values[k] / nodes[k];
    const double raw = euler_reduce(
        ts[live[b]], m,
        std::span<const std::complex<double>>(values, terms));
    const CdfPoint point = finish_cdf(raw, static_cast<int>(terms));
    out[live[b]] = point.value;
    if (!quality.empty()) quality[live[b]] = point.quality;
  }
  return out;
}

}  // namespace

std::vector<double> cdf_many_from_laplace(const BatchLaplaceFn& lt_many,
                                          std::span<const double> ts,
                                          int m) {
  return cdf_many_impl(lt_many, ts, m, {});
}

std::vector<double> cdf_many_from_laplace(
    const BatchLaplaceFn& lt_many, std::span<const double> ts, int m,
    std::span<InversionQuality> quality) {
  COSM_REQUIRE(quality.size() == ts.size(),
               "quality span must match the t grid");
  return cdf_many_impl(lt_many, ts, m, quality);
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
