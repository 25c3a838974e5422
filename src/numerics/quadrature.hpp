// Numerical integration.
//
// Two tools: an adaptive Simpson rule for real integrands (moment and CDF
// sanity checks in tests), and fixed-order Gauss–Legendre panels that also
// accept complex-valued integrands — used to evaluate Laplace transforms of
// distributions that lack a closed form (lognormal, truncated normal,
// Pareto) along the inversion contours.
#pragma once

#include <complex>
#include <functional>

namespace cosm::numerics {

// Adaptive Simpson integration of f over [a, b] to absolute tolerance tol.
double integrate_adaptive(const std::function<double(double)>& f, double a,
                          double b, double tol = 1e-10, int max_depth = 40);

// Composite 32-point Gauss–Legendre over `panels` equal panels of [a, b].
double integrate_gauss(const std::function<double(double)>& f, double a,
                       double b, int panels = 8);

std::complex<double> integrate_gauss_complex(
    const std::function<std::complex<double>(double)>& f, double a, double b,
    int panels = 8);

}  // namespace cosm::numerics
