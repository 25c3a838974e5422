// Scalar root finding used by the fitting code: safeguarded Newton solves
// the Gamma-MLE shape equation, Brent's method the Weibull one.  Quantile
// searches have their own solver (numerics::solve_quantile in
// lt_inversion.hpp), which reads F and f from one inversion per probe.
#pragma once

#include <functional>

namespace cosm::numerics {

struct RootResult {
  double x = 0.0;
  double f = 0.0;          // residual at x
  int iterations = 0;
  bool converged = false;
};

// Brent's method on [lo, hi].  Requires f(lo) and f(hi) to bracket a root
// (opposite signs, or one of them within tol of zero).
RootResult brent(const std::function<double(double)>& f, double lo, double hi,
                 double x_tol = 1e-12, int max_iter = 200);

// Newton iteration with a derivative, safeguarded by bisection against the
// supplied bracket.  Used where the derivative is cheap (digamma/trigamma).
RootResult newton_safeguarded(const std::function<double(double)>& f,
                              const std::function<double(double)>& dfdx,
                              double x0, double lo, double hi,
                              double x_tol = 1e-12, int max_iter = 100);

// Expands [lo, hi] geometrically upward until f changes sign or the limit
// is reached.  Returns true and updates hi on success.  Handy for root
// searches where the upper bound is unknown.
bool expand_bracket_upward(const std::function<double(double)>& f, double lo,
                           double& hi, double growth = 2.0,
                           int max_steps = 80);

}  // namespace cosm::numerics
