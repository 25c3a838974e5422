#include "numerics/roots.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"

namespace cosm::numerics {

RootResult newton_safeguarded(const std::function<double(double)>& f,
                              const std::function<double(double)>& dfdx,
                              double x0, double lo, double hi, double x_tol,
                              int max_iter) {
  COSM_REQUIRE(lo <= hi, "newton bracket must be ordered");
  double x = std::clamp(x0, lo, hi);
  for (int iter = 1; iter <= max_iter; ++iter) {
    const double fx = f(x);
    if (std::abs(fx) < 1e-300) return {x, fx, iter, true};
    const double dx = dfdx(x);
    double next;
    if (dx != 0.0 && std::isfinite(dx)) {
      next = x - fx / dx;
    } else {
      next = 0.5 * (lo + hi);
    }
    if (!(next > lo) || !(next < hi)) {
      // Newton stepped out of the trust region — bisect instead, tightening
      // the side with the same sign as f(x).
      if (f(lo) * fx < 0) {
        hi = x;
      } else {
        lo = x;
      }
      next = 0.5 * (lo + hi);
    }
    if (std::abs(next - x) < x_tol * (1.0 + std::abs(x))) {
      return {next, f(next), iter, true};
    }
    x = next;
  }
  return {x, f(x), max_iter, false};
}

}  // namespace cosm::numerics
