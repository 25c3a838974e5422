#include "numerics/grid.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"
#include "numerics/fft.hpp"

namespace cosm::numerics {

GridDensity::GridDensity(double dt, std::vector<double> mass)
    : dt_(dt), mass_(std::move(mass)) {
  COSM_REQUIRE(dt > 0, "grid bin width must be positive");
  COSM_REQUIRE(!mass_.empty(), "grid must have at least one bin");
}

GridDensity GridDensity::discretize(const Distribution& dist, double dt,
                                    double horizon) {
  COSM_REQUIRE(dt > 0 && horizon > dt, "invalid discretization window");
  const auto bins = static_cast<std::size_t>(std::ceil(horizon / dt));
  std::vector<double> mass(bins, 0.0);
  // Difference the *monotone envelope* of the CDF: numerically inverted
  // CDFs ring (Gibbs) around atoms, and naive differencing with a
  // negative clamp would count each overshoot as extra mass.
  double prev_cdf = 0.0;
  for (std::size_t i = 0; i < bins; ++i) {
    const double edge = static_cast<double>(i + 1) * dt;
    const double c = std::min(1.0, std::max(dist.cdf(edge), prev_cdf));
    mass[i] = c - prev_cdf;
    prev_cdf = c;
  }
  mass.back() += std::max(0.0, 1.0 - prev_cdf);  // fold the tail in
  return GridDensity(dt, std::move(mass));
}

double GridDensity::total_mass() const {
  double sum = 0.0;
  for (const double m : mass_) sum += m;
  return sum;
}

double GridDensity::mean() const {
  // Bin mass is attributed to the bin midpoint.
  double sum = 0.0;
  for (std::size_t i = 0; i < mass_.size(); ++i) {
    sum += mass_[i] * (static_cast<double>(i) + 0.5) * dt_;
  }
  return sum;
}

double GridDensity::cdf(double t) const {
  if (t <= 0) return 0.0;
  const double position = t / dt_;
  const auto full_bins = static_cast<std::size_t>(position);
  if (full_bins >= mass_.size()) return total_mass();
  double sum = 0.0;
  for (std::size_t i = 0; i < full_bins; ++i) sum += mass_[i];
  sum += mass_[full_bins] * (position - static_cast<double>(full_bins));
  return std::min(sum, 1.0);
}

double GridDensity::quantile(double p) const {
  COSM_REQUIRE(p >= 0 && p <= 1, "quantile level must be in [0, 1]");
  double cumulative = 0.0;
  for (std::size_t i = 0; i < mass_.size(); ++i) {
    const double next = cumulative + mass_[i];
    if (next >= p) {
      const double inside = mass_[i] > 0 ? (p - cumulative) / mass_[i] : 0.0;
      return (static_cast<double>(i) + inside) * dt_;
    }
    cumulative = next;
  }
  return static_cast<double>(mass_.size()) * dt_;
}

GridDensity GridDensity::convolve_with(const GridDensity& other,
                                       std::size_t max_bins) const {
  COSM_REQUIRE(std::abs(dt_ - other.dt_) < 1e-15 * dt_,
               "grids must share the bin width");
  COSM_REQUIRE(max_bins > 0, "result must keep at least one bin");
  std::vector<double> out = convolve(mass_, other.mass_);
  if (out.size() > max_bins) {
    double overflow = 0.0;
    for (std::size_t i = max_bins; i < out.size(); ++i) overflow += out[i];
    out.resize(max_bins);
    out.back() += overflow;
  }
  // FFT round-off can leave tiny negatives; clip them.
  for (double& m : out) m = std::max(0.0, m);
  return GridDensity(dt_, std::move(out));
}

}  // namespace cosm::numerics
