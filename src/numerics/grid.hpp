// Discretized densities on a uniform time grid.
//
// An independent prediction path used to cross-validate Laplace-transform
// inversion: any Distribution can be discretized (by CDF differencing, so
// atoms land in the right bin), grids convolve via FFT, and the grid CDF
// can be compared against invert_cdf at the SLA points.  Tests use
// both representations and require agreement.
#pragma once

#include <vector>

#include "numerics/distribution.hpp"

namespace cosm::numerics {

class GridDensity {
 public:
  // Probability mass per bin: bin i covers [i*dt, (i+1)*dt).
  GridDensity(double dt, std::vector<double> mass);

  // Discretizes `dist` over [0, horizon) with the given bin width by CDF
  // differencing; any tail mass beyond the horizon is added to the last
  // bin so the grid stays a proper distribution.
  static GridDensity discretize(const Distribution& dist, double dt,
                                double horizon);

  double dt() const { return dt_; }
  std::size_t bins() const { return mass_.size(); }
  const std::vector<double>& mass() const { return mass_; }

  double total_mass() const;
  double mean() const;
  // P[T <= t] with linear interpolation inside the containing bin.
  double cdf(double t) const;
  // Smallest t with cdf(t) >= p.
  double quantile(double p) const;

  // Convolution of two grids with the same dt (FFT-based); the result is
  // truncated to max_bins with overflow folded into the last bin.
  GridDensity convolve_with(const GridDensity& other,
                            std::size_t max_bins) const;

 private:
  double dt_;
  std::vector<double> mass_;
};

}  // namespace cosm::numerics
