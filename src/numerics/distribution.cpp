#include "numerics/distribution.hpp"

#include <cmath>
#include <functional>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "common/require.hpp"
#include "numerics/lt_inversion.hpp"
#include "numerics/quadrature.hpp"
#include "numerics/special.hpp"

namespace cosm::numerics {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Laplace transform by quadrature of e^{-st} f(t), for distributions
// without a closed-form transform.  The caller supplies breakpoints
// (typically quantiles of the distribution) so peaked densities get fine
// panels where the mass is; within a segment the panel count additionally
// scales with the number of e^{-i Im(s) t} oscillation periods it spans.
std::complex<double> laplace_by_quadrature(
    const std::function<double(double)>& pdf, std::complex<double> s,
    const std::vector<double>& breakpoints) {
  std::complex<double> total = 0.0;
  for (std::size_t i = 0; i + 1 < breakpoints.size(); ++i) {
    const double a = breakpoints[i];
    const double b = breakpoints[i + 1];
    if (!(b > a)) continue;
    const double periods =
        std::abs(s.imag()) * (b - a) / (2.0 * std::numbers::pi);
    const int panels = std::max(8, static_cast<int>(periods) + 2);
    total += integrate_gauss_complex(
        [&pdf, s](double t) { return std::exp(-s * t) * pdf(t); }, a, b,
        panels);
  }
  return total;
}

}  // namespace

void Distribution::laplace_many(std::span<const std::complex<double>> s,
                                std::span<std::complex<double>> out) const {
  COSM_REQUIRE(s.size() == out.size(),
               "laplace_many spans must have equal length");
  for (std::size_t i = 0; i < s.size(); ++i) out[i] = laplace(s[i]);
}

double Distribution::second_moment() const { return kNaN; }

double Distribution::third_moment() const { return kNaN; }

double Distribution::variance() const {
  const double m2 = second_moment();
  const double m1 = mean();
  return m2 - m1 * m1;
}

double Distribution::cdf(double t) const {
  return cdf_from_laplace(
      [this](std::complex<double> s) { return laplace(s); }, t);
}

double Distribution::sample(Rng&) const {
  throw std::logic_error("distribution '" + name() +
                         "' is transform-only and cannot be sampled");
}

// ------------------------------- Degenerate ------------------------------

Degenerate::Degenerate(double value) : value_(value) {
  COSM_REQUIRE(value >= 0, "degenerate value must be non-negative");
}

std::string Degenerate::name() const { return "degenerate"; }

std::complex<double> Degenerate::laplace(std::complex<double> s) const {
  return std::exp(-s * value_);
}

double Degenerate::sample(Rng&) const { return value_; }

// ------------------------------ Exponential ------------------------------

Exponential::Exponential(double rate) : rate_(rate) {
  COSM_REQUIRE(rate > 0, "exponential rate must be positive");
}

std::string Exponential::name() const { return "exponential"; }

std::complex<double> Exponential::laplace(std::complex<double> s) const {
  return rate_ / (rate_ + s);
}

double Exponential::cdf(double t) const {
  return t <= 0 ? 0.0 : 1.0 - std::exp(-rate_ * t);
}

double Exponential::sample(Rng& rng) const { return rng.exponential(rate_); }

// --------------------------------- Gamma ---------------------------------

Gamma::Gamma(double shape, double rate) : shape_(shape), rate_(rate) {
  COSM_REQUIRE(shape > 0, "gamma shape must be positive");
  COSM_REQUIRE(rate > 0, "gamma rate must be positive");
}

Gamma Gamma::from_mean_shape(double mean, double shape) {
  COSM_REQUIRE(mean > 0, "gamma mean must be positive");
  return Gamma(shape, shape / mean);
}

std::string Gamma::name() const { return "gamma"; }

std::complex<double> Gamma::laplace(std::complex<double> s) const {
  return gamma_laplace(shape_, rate_, s);
}

double Gamma::cdf(double t) const {
  return t <= 0 ? 0.0 : gamma_p(shape_, rate_ * t);
}

double Gamma::sample(Rng& rng) const { return rng.gamma(shape_, rate_); }

double Gamma::quantile(double p) const {
  return gamma_p_inv(shape_, p) / rate_;
}

// -------------------------------- Uniform --------------------------------

Uniform::Uniform(double lo, double hi) : lo_(lo), hi_(hi) {
  COSM_REQUIRE(lo >= 0, "uniform lower bound must be non-negative");
  COSM_REQUIRE(hi > lo, "uniform bounds must satisfy hi > lo");
}

std::string Uniform::name() const { return "uniform"; }

std::complex<double> Uniform::laplace(std::complex<double> s) const {
  if (std::abs(s) < 1e-8) {
    // Series expansion avoids 0/0: 1 - s(a+b)/2 + s^2(a^2+ab+b^2)/6.
    return 1.0 - s * (0.5 * (lo_ + hi_)) +
           s * s * ((lo_ * lo_ + lo_ * hi_ + hi_ * hi_) / 6.0);
  }
  return (std::exp(-s * lo_) - std::exp(-s * hi_)) / (s * (hi_ - lo_));
}

double Uniform::cdf(double t) const {
  if (t <= lo_) return 0.0;
  if (t >= hi_) return 1.0;
  return (t - lo_) / (hi_ - lo_);
}

double Uniform::sample(Rng& rng) const { return rng.uniform(lo_, hi_); }

// ---------------------------- TruncatedNormal ----------------------------

TruncatedNormal::TruncatedNormal(double mu, double sigma)
    : mu_(mu), sigma_(sigma), z_(normal_cdf(mu / sigma)) {
  COSM_REQUIRE(sigma > 0, "truncated normal sigma must be positive");
  COSM_REQUIRE(z_ > 1e-12, "truncation keeps almost no mass above zero");
}

std::string TruncatedNormal::name() const { return "truncated_normal"; }

double TruncatedNormal::pdf(double t) const {
  if (t < 0) return 0.0;
  const double u = (t - mu_) / sigma_;
  return std::exp(-0.5 * u * u) /
         (sigma_ * std::sqrt(2.0 * std::numbers::pi) * z_);
}

std::complex<double> TruncatedNormal::laplace(std::complex<double> s) const {
  std::vector<double> breaks = {0.0};
  for (double k : {-4.0, -2.0, 0.0, 2.0, 4.0, 8.0, 12.0}) {
    const double edge = mu_ + k * sigma_;
    if (edge > breaks.back()) breaks.push_back(edge);
  }
  return laplace_by_quadrature([this](double t) { return pdf(t); }, s,
                               breaks);
}

double TruncatedNormal::mean() const {
  // mu + sigma * phi(alpha) / Phi(-alpha) with alpha = -mu/sigma.
  const double alpha = -mu_ / sigma_;
  const double phi = std::exp(-0.5 * alpha * alpha) /
                     std::sqrt(2.0 * std::numbers::pi);
  return mu_ + sigma_ * phi / z_;
}

double TruncatedNormal::second_moment() const {
  const double alpha = -mu_ / sigma_;
  const double phi = std::exp(-0.5 * alpha * alpha) /
                     std::sqrt(2.0 * std::numbers::pi);
  const double lambda = phi / z_;
  // Var = sigma^2 (1 + alpha lambda - lambda^2); E[X^2] = Var + mean^2.
  const double var =
      sigma_ * sigma_ * (1.0 + alpha * lambda - lambda * lambda);
  const double m = mean();
  return var + m * m;
}

double TruncatedNormal::cdf(double t) const {
  if (t <= 0) return 0.0;
  const double below_zero = normal_cdf(-mu_ / sigma_);
  return (normal_cdf((t - mu_) / sigma_) - below_zero) / z_;
}

double TruncatedNormal::sample(Rng& rng) const {
  // Rejection from the untruncated normal; efficient because the model
  // only uses mu >> sigma * small (latency-like shapes).
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.normal(mu_, sigma_);
    if (x >= 0) return x;
  }
  throw std::logic_error("truncated normal rejection sampling stalled");
}

// ------------------------------- Lognormal -------------------------------

Lognormal::Lognormal(double mu_log, double sigma_log)
    : mu_(mu_log), sigma_(sigma_log) {
  COSM_REQUIRE(sigma_log > 0, "lognormal sigma must be positive");
}

std::string Lognormal::name() const { return "lognormal"; }

double Lognormal::pdf(double t) const {
  if (t <= 0) return 0.0;
  const double u = (std::log(t) - mu_) / sigma_;
  return std::exp(-0.5 * u * u) /
         (t * sigma_ * std::sqrt(2.0 * std::numbers::pi));
}

std::complex<double> Lognormal::laplace(std::complex<double> s) const {
  // Breakpoints at log-space quantiles resolve the density peak; the
  // support is cut at the 1 - 1e-13 quantile (negligible tail mass).
  std::vector<double> breaks = {0.0};
  for (double p : {0.001, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999, 1.0 - 1e-8,
                   1.0 - 1e-13}) {
    breaks.push_back(std::exp(mu_ + sigma_ * normal_cdf_inv(p)));
  }
  return laplace_by_quadrature([this](double t) { return pdf(t); }, s,
                               breaks);
}

double Lognormal::mean() const { return std::exp(mu_ + 0.5 * sigma_ * sigma_); }

double Lognormal::second_moment() const {
  return std::exp(2.0 * mu_ + 2.0 * sigma_ * sigma_);
}

double Lognormal::cdf(double t) const {
  if (t <= 0) return 0.0;
  return normal_cdf((std::log(t) - mu_) / sigma_);
}

double Lognormal::sample(Rng& rng) const { return rng.lognormal(mu_, sigma_); }

// -------------------------------- Weibull --------------------------------

Weibull::Weibull(double shape, double scale) : shape_(shape), scale_(scale) {
  COSM_REQUIRE(shape > 0 && scale > 0, "weibull parameters must be positive");
}

std::string Weibull::name() const { return "weibull"; }

double Weibull::pdf(double t) const {
  if (t <= 0) return 0.0;
  const double u = t / scale_;
  return shape_ / scale_ * std::pow(u, shape_ - 1.0) *
         std::exp(-std::pow(u, shape_));
}

std::complex<double> Weibull::laplace(std::complex<double> s) const {
  if (shape_ == 1.0) return Exponential(1.0 / scale_).laplace(s);
  // Quantile breakpoints: q(p) = scale * (-ln(1-p))^{1/shape}.
  std::vector<double> breaks = {0.0};
  for (double p : {0.001, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999, 1.0 - 1e-8,
                   1.0 - 1e-13}) {
    breaks.push_back(scale_ * std::pow(-std::log1p(-p), 1.0 / shape_));
  }
  return laplace_by_quadrature([this](double t) { return pdf(t); }, s,
                               breaks);
}

double Weibull::mean() const {
  return scale_ * std::exp(std::lgamma(1.0 + 1.0 / shape_));
}

double Weibull::second_moment() const {
  return scale_ * scale_ * std::exp(std::lgamma(1.0 + 2.0 / shape_));
}

double Weibull::cdf(double t) const {
  if (t <= 0) return 0.0;
  return 1.0 - std::exp(-std::pow(t / scale_, shape_));
}

double Weibull::sample(Rng& rng) const { return rng.weibull(shape_, scale_); }

// --------------------------------- Pareto --------------------------------

Pareto::Pareto(double shape, double scale) : shape_(shape), scale_(scale) {
  COSM_REQUIRE(shape > 0 && scale > 0, "pareto parameters must be positive");
}

std::string Pareto::name() const { return "pareto"; }

double Pareto::pdf(double t) const {
  if (t < scale_) return 0.0;
  return shape_ * std::pow(scale_, shape_) / std::pow(t, shape_ + 1.0);
}

std::complex<double> Pareto::laplace(std::complex<double> s) const {
  // Quantile breakpoints: q(p) = scale / (1-p)^{1/shape}.  The support is
  // cut at the 1 - 1e-10 quantile; heavy tails make tighter cuts
  // numerically pointless.
  std::vector<double> breaks = {scale_};
  for (double p : {0.1, 0.3, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0 - 1e-6,
                   1.0 - 1e-10}) {
    breaks.push_back(scale_ / std::pow(1.0 - p, 1.0 / shape_));
  }
  return laplace_by_quadrature([this](double t) { return pdf(t); }, s,
                               breaks);
}

double Pareto::mean() const {
  if (shape_ <= 1.0) return std::numeric_limits<double>::infinity();
  return shape_ * scale_ / (shape_ - 1.0);
}

double Pareto::second_moment() const {
  if (shape_ <= 2.0) return std::numeric_limits<double>::infinity();
  return shape_ * scale_ * scale_ / (shape_ - 2.0);
}

double Pareto::cdf(double t) const {
  if (t <= scale_) return 0.0;
  return 1.0 - std::pow(scale_ / t, shape_);
}

double Pareto::sample(Rng& rng) const { return rng.pareto(shape_, scale_); }

}  // namespace cosm::numerics
