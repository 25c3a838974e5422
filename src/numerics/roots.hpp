// Scalar root finding: safeguarded Newton solves the fitting code's
// Gamma-MLE shape equation.  Quantile searches have their own solver
// (numerics::solve_quantile in lt_inversion.hpp), which reads F and f
// from one inversion per probe.
#pragma once

#include <functional>

namespace cosm::numerics {

struct RootResult {
  double x = 0.0;
  double f = 0.0;          // residual at x
  int iterations = 0;
  bool converged = false;
};

// Newton iteration with a derivative, safeguarded by bisection against the
// supplied bracket.  Used where the derivative is cheap (digamma/trigamma).
RootResult newton_safeguarded(const std::function<double(double)>& f,
                              const std::function<double(double)>& dfdx,
                              double x0, double lo, double hi,
                              double x_tol = 1e-12, int max_iter = 100);

}  // namespace cosm::numerics
