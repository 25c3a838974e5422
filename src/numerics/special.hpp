// Special functions needed by the latency model and the distribution
// fitting pipeline.  Everything here is implemented from scratch (no GSL /
// Boost.Math): the digamma/trigamma pair drives the Gamma MLE Newton
// iteration, and the regularized incomplete gamma gives the Gamma CDF used
// for goodness-of-fit and closed-form percentile checks.
#pragma once

namespace cosm::numerics {

// Digamma ψ(x) = d/dx ln Γ(x), x > 0.  Recurrence to shift x above 6, then
// the asymptotic Bernoulli series.  Absolute error < 1e-12 for x > 0.
double digamma(double x);

// Trigamma ψ'(x), x > 0.  Same shift-then-asymptotic-series scheme.
double trigamma(double x);

// Regularized lower incomplete gamma P(a, x) = γ(a, x) / Γ(a), a > 0,
// x >= 0.  Series expansion for x < a + 1, continued fraction otherwise
// (Numerical Recipes scheme).  This is the CDF of Gamma(shape=a, rate=1)
// at x.
double gamma_p(double a, double x);

// Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).
double gamma_q(double a, double x);

// Inverse of P(a, ·): returns x such that P(a, x) = p, for p in [0, 1).
// Halley iteration seeded with the Wilson–Hilferty approximation.
double gamma_p_inv(double a, double p);

// Standard normal CDF Φ(x), via erfc.
double normal_cdf(double x);

// Inverse standard normal CDF, Acklam's rational approximation polished
// with one Halley step; |error| < 1e-13.
double normal_cdf_inv(double p);

}  // namespace cosm::numerics
