// Numerical integration.
//
// Fixed-order Gauss–Legendre panels for complex-valued integrands — used
// to evaluate Laplace transforms of distributions that lack a closed form
// (lognormal, truncated normal, Pareto) along the inversion contours.
#pragma once

#include <complex>
#include <functional>

namespace cosm::numerics {

// Composite 32-point Gauss–Legendre over `panels` equal panels of [a, b].
std::complex<double> integrate_gauss_complex(
    const std::function<std::complex<double>(double)>& f, double a, double b,
    int panels = 8);

}  // namespace cosm::numerics
