#include "numerics/special.hpp"

#include <cmath>
#include <limits>
#include <numbers>

#include "common/require.hpp"

namespace cosm::numerics {

double digamma(double x) {
  COSM_REQUIRE(x > 0, "digamma requires x > 0");
  double result = 0.0;
  // Shift x into the asymptotic regime.
  while (x < 12.0) {
    result -= 1.0 / x;
    x += 1.0;
  }
  // Asymptotic series: ln x - 1/(2x) - sum B_{2n} / (2n x^{2n}).
  const double inv = 1.0 / x;
  const double inv2 = inv * inv;
  result += std::log(x) - 0.5 * inv;
  result -= inv2 * (1.0 / 12.0 -
                    inv2 * (1.0 / 120.0 -
                            inv2 * (1.0 / 252.0 -
                                    inv2 * (1.0 / 240.0 -
                                            inv2 * (1.0 / 132.0)))));
  return result;
}

double trigamma(double x) {
  COSM_REQUIRE(x > 0, "trigamma requires x > 0");
  double result = 0.0;
  while (x < 12.0) {
    result += 1.0 / (x * x);
    x += 1.0;
  }
  const double inv = 1.0 / x;
  const double inv2 = inv * inv;
  // 1/x + 1/(2x^2) + sum B_{2n} / x^{2n+1}.
  result += inv * (1.0 +
                   inv * (0.5 +
                          inv * (1.0 / 6.0 -
                                 inv2 * (1.0 / 30.0 -
                                         inv2 * (1.0 / 42.0 -
                                                 inv2 * (1.0 / 30.0 -
                                                         inv2 * (5.0 /
                                                                 66.0)))))));
  return result;
}

namespace {

// Series representation of P(a, x), valid (fast) for x < a + 1.
double gamma_p_series(double a, double x) {
  double term = 1.0 / a;
  double sum = term;
  double ap = a;
  for (int n = 0; n < 500; ++n) {
    ap += 1.0;
    term *= x / ap;
    sum += term;
    if (std::abs(term) < std::abs(sum) * 1e-16) break;
  }
  return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

// Continued-fraction representation of Q(a, x), valid for x >= a + 1.
double gamma_q_cf(double a, double x) {
  constexpr double kTiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < 1e-16) break;
  }
  return h * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

}  // namespace

double gamma_p(double a, double x) {
  COSM_REQUIRE(a > 0, "gamma_p requires a > 0");
  COSM_REQUIRE(x >= 0, "gamma_p requires x >= 0");
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return gamma_p_series(a, x);
  return 1.0 - gamma_q_cf(a, x);
}

double gamma_q(double a, double x) {
  COSM_REQUIRE(a > 0, "gamma_q requires a > 0");
  COSM_REQUIRE(x >= 0, "gamma_q requires x >= 0");
  if (x == 0.0) return 1.0;
  if (x < a + 1.0) return 1.0 - gamma_p_series(a, x);
  return gamma_q_cf(a, x);
}

double gamma_p_inv(double a, double p) {
  COSM_REQUIRE(a > 0, "gamma_p_inv requires a > 0");
  COSM_REQUIRE(p >= 0 && p < 1, "gamma_p_inv requires p in [0, 1)");
  if (p == 0.0) return 0.0;
  // Wilson–Hilferty starting guess, then a guaranteed bracket + bisection/
  // secant hybrid; Newton-style polish is not worth the divergence risk for
  // small shapes (a < 1 has an infinite density at 0).
  const double g = normal_cdf_inv(p);
  const double c = 2.0 / (9.0 * a);
  double guess = a * std::pow(1.0 - c + g * std::sqrt(c), 3.0);
  if (!(guess > 0.0) || !std::isfinite(guess)) guess = a;
  double lo = guess;
  double hi = guess;
  while (lo > 1e-300 && gamma_p(a, lo) > p) lo *= 0.25;
  while (hi < 1e300 && gamma_p(a, hi) < p) hi *= 4.0;
  // Bisection with a secant-style midpoint; 120 iterations bound the
  // bracket width by 2^-120 even in the pure-bisection worst case.
  for (int iter = 0; iter < 120; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (mid == lo || mid == hi) return mid;
    if (gamma_p(a, mid) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
    // Purely relative stop: quantiles for small p can be arbitrarily tiny.
    if (hi - lo < 4e-16 * hi) break;
  }
  return 0.5 * (lo + hi);
}

double normal_cdf(double x) {
  return 0.5 * std::erfc(-x / std::numbers::sqrt2);
}

double normal_cdf_inv(double p) {
  COSM_REQUIRE(p > 0 && p < 1, "normal_cdf_inv requires p in (0, 1)");
  // Acklam's rational approximation.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  double x;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
          c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley polish step.
  const double e = normal_cdf(x) - p;
  const double u =
      e * std::sqrt(2.0 * std::numbers::pi) * std::exp(0.5 * x * x);
  x -= u / (1.0 + 0.5 * x * u);
  return x;
}

}  // namespace cosm::numerics
