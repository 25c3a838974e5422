#include "numerics/fitting.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/require.hpp"
#include "numerics/roots.hpp"
#include "numerics/special.hpp"

namespace cosm::numerics {

SampleStats compute_stats(std::span<const double> samples) {
  COSM_REQUIRE(!samples.empty(), "stats require a non-empty sample");
  SampleStats st;
  st.count = samples.size();
  st.min = samples[0];
  st.max = samples[0];
  double sum = 0.0;
  double sum_log = 0.0;
  bool logs_valid = true;
  for (const double x : samples) {
    COSM_REQUIRE(x >= 0, "latency samples must be non-negative");
    sum += x;
    st.min = std::min(st.min, x);
    st.max = std::max(st.max, x);
    if (x > 0) {
      sum_log += std::log(x);
    } else {
      logs_valid = false;
    }
  }
  const double n = static_cast<double>(st.count);
  st.mean = sum / n;
  double ss = 0.0;
  double ss_log = 0.0;
  st.mean_log = logs_valid ? sum_log / n
                           : std::numeric_limits<double>::quiet_NaN();
  for (const double x : samples) {
    const double d = x - st.mean;
    ss += d * d;
    if (logs_valid) {
      const double dl = std::log(x) - st.mean_log;
      ss_log += dl * dl;
    }
  }
  st.variance = st.count > 1 ? ss / (n - 1.0) : 0.0;
  st.variance_log = (logs_valid && st.count > 1)
                        ? ss_log / (n - 1.0)
                        : std::numeric_limits<double>::quiet_NaN();
  return st;
}

Degenerate fit_degenerate(std::span<const double> samples) {
  COSM_REQUIRE(!samples.empty(), "degenerate fit needs samples");
  // The median rather than the mean: on exactly-constant data the median
  // is bitwise equal to the samples, so the step CDF evaluates to 1 *at*
  // the samples and the KS statistic is exactly zero; a floating-point
  // mean can land one ULP above and flip the step.
  std::vector<double> sorted(samples.begin(), samples.end());
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  return Degenerate(sorted[sorted.size() / 2]);
}

Exponential fit_exponential(std::span<const double> samples) {
  const SampleStats st = compute_stats(samples);
  COSM_REQUIRE(st.mean > 0, "exponential fit needs a positive mean");
  return Exponential(1.0 / st.mean);
}

Gamma fit_gamma(std::span<const double> samples) {
  const SampleStats st = compute_stats(samples);
  COSM_REQUIRE(st.mean > 0, "gamma fit needs a positive mean");
  // Degenerate-looking data: fall back to a sharp moment-matched shape.
  // The shape is capped at 1e6 (CV = 0.1%): beyond that the distribution
  // is numerically indistinguishable from a point mass, while transforms
  // like (l/(l+s))^k lose all precision once k * eps ~ 1.
  if (st.variance <= 1e-18 * st.mean * st.mean || std::isnan(st.mean_log)) {
    const double shape =
        st.variance > 0
            ? std::min(st.mean * st.mean / st.variance, 1e6)
            : 1e6;
    return Gamma(shape, shape / st.mean);
  }
  // MLE: maximize sum log f => solve ln(k) - psi(k) = s, with
  // s = ln(mean) - mean(ln x) > 0 by Jensen.
  const double s = std::log(st.mean) - st.mean_log;
  COSM_CHECK(s > 0, "Jensen gap must be positive for non-constant data");
  // Minka's closed-form starting point.
  double k0 = (3.0 - s + std::sqrt((s - 3.0) * (s - 3.0) + 24.0 * s)) /
              (12.0 * s);
  k0 = std::clamp(k0, 1e-6, 1e9);
  const auto f = [s](double k) { return std::log(k) - digamma(k) - s; };
  const auto df = [](double k) { return 1.0 / k - trigamma(k); };
  const RootResult root =
      newton_safeguarded(f, df, k0, 1e-8, 1e10, 1e-12, 200);
  const double shape = std::min(root.converged ? root.x : k0, 1e6);
  return Gamma(shape, shape / st.mean);
}

TruncatedNormal fit_truncated_normal(std::span<const double> samples) {
  // Sample moments of the truncated variable are a serviceable estimate
  // when the truncation point is far in the lower tail (latency data);
  // the KS ranking downstream judges the result fairly either way.
  const SampleStats st = compute_stats(samples);
  const double sigma = std::sqrt(std::max(st.variance, 1e-24));
  return TruncatedNormal(st.mean, sigma);
}

double ks_statistic(std::span<const double> sorted_samples,
                    const Distribution& dist) {
  COSM_REQUIRE(!sorted_samples.empty(), "KS requires a non-empty sample");
  COSM_REQUIRE(
      std::is_sorted(sorted_samples.begin(), sorted_samples.end()),
      "KS requires an ascending sample");
  const double n = static_cast<double>(sorted_samples.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < sorted_samples.size(); ++i) {
    const double x = sorted_samples[i];
    const double f = dist.cdf(x);
    // For CDFs with atoms (Degenerate), the D- branch must compare the
    // empirical CDF's left limit against F(x-), not F(x); approximate the
    // left limit with a tiny relative backstep.
    const double f_minus = dist.cdf(x - 1e-9 * (1.0 + std::abs(x)));
    const double lo = static_cast<double>(i) / n;
    const double hi = static_cast<double>(i + 1) / n;
    worst = std::max(worst, std::max(f_minus - lo, hi - f));
  }
  return std::max(worst, 0.0);
}

FitSelection fit_best(std::span<const double> samples) {
  COSM_REQUIRE(!samples.empty(), "fit_best needs a non-empty sample");
  COSM_REQUIRE(std::all_of(samples.begin(), samples.end(),
                           [](double x) { return x >= 0; }),
               "latency samples must be non-negative");
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  FitSelection selection;
  const auto try_fit = [&](const std::string& name, auto&& fitter) {
    try {
      DistPtr dist = fitter();
      const double ks = ks_statistic(sorted, *dist);
      selection.candidates.push_back({name, std::move(dist), ks});
    } catch (const std::exception&) {
      // Candidate not applicable to this sample; skip it.
    }
  };
  try_fit("exponential", [&] {
    return std::make_shared<Exponential>(fit_exponential(samples));
  });
  try_fit("degenerate", [&] {
    return std::make_shared<Degenerate>(fit_degenerate(samples));
  });
  try_fit("normal", [&] {
    return std::make_shared<TruncatedNormal>(fit_truncated_normal(samples));
  });
  try_fit("gamma",
          [&] { return std::make_shared<Gamma>(fit_gamma(samples)); });
  COSM_CHECK(!selection.candidates.empty(), "no fit candidate succeeded");
  std::sort(selection.candidates.begin(), selection.candidates.end(),
            [](const FitCandidate& a, const FitCandidate& b) {
              return a.ks < b.ks;
            });
  return selection;
}

}  // namespace cosm::numerics
