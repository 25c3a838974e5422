#include "numerics/order_statistics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/require.hpp"
#include "numerics/transform_tape.hpp"

namespace cosm::numerics {

namespace detail {

std::complex<double> piecewise_cdf_laplace(std::complex<double> s, double dt,
                                           const double* cdf,
                                           std::size_t count) {
  const double t_end = dt * static_cast<double>(count - 1);
  // Atom of mass cdf[0] at zero.
  std::complex<double> total = cdf[0];
  // Shared per-segment factor (1 - e^{-s dt})/s, stabilized by its series
  // for small |s dt| (covers s == 0, where the limit is dt).
  const std::complex<double> z = s * dt;
  std::complex<double> g;
  if (std::abs(z) < 1e-6) {
    g = dt * (1.0 - z * 0.5 + z * z / 6.0 - z * z * z / 24.0);
  } else {
    g = (1.0 - std::exp(-z)) / s;
  }
  const std::complex<double> decay = std::exp(-z);
  std::complex<double> expfac = 1.0;  // e^{-s t_i}, advanced per segment
  for (std::size_t i = 0; i + 1 < count; ++i) {
    const double mass = cdf[i + 1] - cdf[i];
    total += (mass / dt) * expfac * g;
    expfac *= decay;
  }
  // Residual tail mass as an atom at the horizon.
  total += (1.0 - cdf[count - 1]) * std::exp(-s * t_end);
  return total;
}

}  // namespace detail

namespace {

// The base CDF materialized on a uniform grid by batched tape inversion.
struct BaseGrid {
  double dt = 0.0;
  std::vector<double> ts;
  std::vector<double> cdf;
};

// Quantile level that sets the grid horizon.  High enough that the tail
// atom at the horizon sits beyond every percentile the model queries
// (p999 sweeps included), low enough that the survival 1e-4 stays well
// above the inversion's noise, so the Newton search converges in a few
// probes.
constexpr double kHorizonQuantile = 0.9999;

BaseGrid materialize_base(const DistPtr& base, std::size_t points) {
  COSM_REQUIRE(base != nullptr, "order statistic needs a base distribution");
  COSM_REQUIRE(points >= 2, "order-statistic grid needs >= 2 points");
  const double mean = base->mean();
  COSM_REQUIRE(std::isfinite(mean) && mean > 0,
               "order-statistic base needs a finite positive mean");
  const TransformTape tape = TransformTape::compile(base);
  const double horizon = tape.quantile(kHorizonQuantile, mean);
  COSM_REQUIRE(std::isfinite(horizon) && horizon > 0,
               "order-statistic horizon quantile must be finite");
  BaseGrid grid;
  grid.dt = horizon / static_cast<double>(points - 1);
  grid.ts.resize(points);
  for (std::size_t i = 0; i < points; ++i) {
    grid.ts[i] = grid.dt * static_cast<double>(i);
  }
  grid.cdf = tape.cdf_many(grid.ts);
  // Euler inversion of a CDF wobbles at the 1e-8 level; clamp into [0, 1]
  // and enforce monotonicity so the pointwise combinators below stay
  // valid probabilities.
  double running = 0.0;
  for (double& f : grid.cdf) {
    running = std::max(running, std::min(1.0, std::max(0.0, f)));
    f = running;
  }
  return grid;
}

// Geometric survival blend toward the single-attempt tail (fork-join
// correction, see header): 1 - F = (1 - F_os)^{1-c} (1 - F_base)^{c}.
void blend_correlation(std::vector<double>& combined,
                       const std::vector<double>& base_cdf,
                       double correlation) {
  if (correlation <= 0.0) return;
  for (std::size_t i = 0; i < combined.size(); ++i) {
    const double s_os = 1.0 - combined[i];
    const double s_base = 1.0 - base_cdf[i];
    combined[i] = 1.0 - std::pow(s_os, 1.0 - correlation) *
                            std::pow(s_base, correlation);
  }
}

// Moments of the piecewise-linear CDF + horizon tail atom — the same
// measure piecewise_cdf_laplace integrates, so mean()/laplace() describe
// one distribution.
void grid_moments(const std::vector<double>& cdf, double dt, double* mean,
                  double* second) {
  double m1 = 0.0;
  double m2 = 0.0;
  for (std::size_t i = 0; i + 1 < cdf.size(); ++i) {
    const double mass = cdf[i + 1] - cdf[i];
    const double t0 = dt * static_cast<double>(i);
    const double t1 = t0 + dt;
    m1 += mass * 0.5 * (t0 + t1);
    m2 += mass * (t0 * t0 + t0 * t1 + t1 * t1) / 3.0;
  }
  const double t_end = dt * static_cast<double>(cdf.size() - 1);
  const double tail = 1.0 - cdf.back();
  m1 += tail * t_end;
  m2 += tail * t_end * t_end;
  *mean = m1;
  *second = m2;
}

double grid_cdf_at(const std::vector<double>& cdf, double dt, double t) {
  if (t < 0.0) return 0.0;
  const double t_end = dt * static_cast<double>(cdf.size() - 1);
  if (t >= t_end) return 1.0;  // tail atom sits at the horizon
  const double pos = t / dt;
  const auto idx = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(idx);
  return cdf[idx] + frac * (cdf[idx + 1] - cdf[idx]);
}

// P[at least k of n successes] at success probability f:
// sum_{j=k}^{n} C(n,j) f^j (1-f)^{n-j}, with the binomial coefficient
// built multiplicatively (n is a replica count, single digits).
double binomial_tail(unsigned n, unsigned k, double f) {
  if (k == 1) {
    // The min statistic in its stable form (no cancellation near f = 0).
    return 1.0 - std::pow(1.0 - f, static_cast<double>(n));
  }
  double total = 0.0;
  for (unsigned j = k; j <= n; ++j) {
    double coeff = 1.0;
    for (unsigned i = 0; i < j; ++i) {
      coeff *= static_cast<double>(n - i) / static_cast<double>(i + 1);
    }
    total += coeff * std::pow(f, static_cast<double>(j)) *
             std::pow(1.0 - f, static_cast<double>(n - j));
  }
  return std::min(1.0, total);
}

}  // namespace

OrderStatistic::OrderStatistic(DistPtr base, unsigned n, unsigned k,
                               double correlation, std::size_t grid_points)
    : base_(std::move(base)), n_(n), k_(k), correlation_(correlation) {
  COSM_REQUIRE(n_ >= 1, "order statistic needs n >= 1");
  COSM_REQUIRE(k_ >= 1 && k_ <= n_, "order statistic needs 1 <= k <= n");
  COSM_REQUIRE(std::isfinite(correlation_) && correlation_ >= 0.0 &&
                   correlation_ <= 1.0,
               "order-statistic correlation must be in [0, 1]");
  BaseGrid grid = materialize_base(base_, grid_points);
  dt_ = grid.dt;
  grid_.resize(grid.cdf.size());
  for (std::size_t i = 0; i < grid.cdf.size(); ++i) {
    grid_[i] = binomial_tail(n_, k_, grid.cdf[i]);
  }
  blend_correlation(grid_, grid.cdf, correlation_);
  grid_moments(grid_, dt_, &mean_, &second_);
}

std::string OrderStatistic::name() const {
  std::ostringstream out;
  out << "OrderStatistic(k=" << k_ << ",n=" << n_ << ",corr=" << correlation_
      << ") of " << base_->name();
  return out.str();
}

std::complex<double> OrderStatistic::laplace(std::complex<double> s) const {
  return detail::piecewise_cdf_laplace(s, dt_, grid_.data(), grid_.size());
}

double OrderStatistic::cdf(double t) const {
  return grid_cdf_at(grid_, dt_, t);
}

HedgedResponse::HedgedResponse(DistPtr base, double delay, double correlation,
                               std::size_t grid_points)
    : base_(std::move(base)), delay_(delay), correlation_(correlation) {
  COSM_REQUIRE(std::isfinite(delay_) && delay_ > 0,
               "hedge delay must be finite and positive");
  COSM_REQUIRE(std::isfinite(correlation_) && correlation_ >= 0.0 &&
                   correlation_ <= 1.0,
               "hedged-response correlation must be in [0, 1]");
  BaseGrid grid = materialize_base(base_, grid_points);
  dt_ = grid.dt;
  // F(t - d) at the grid points needs a second inversion pass over the
  // shifted abscissae (interpolating the first grid would smear the tail
  // for no reason when the tape can evaluate exactly there).
  std::vector<double> shifted_ts;
  shifted_ts.reserve(grid.ts.size());
  for (const double t : grid.ts) {
    if (t > delay_) shifted_ts.push_back(t - delay_);
  }
  std::vector<double> shifted_cdf;
  if (!shifted_ts.empty()) {
    const TransformTape tape = TransformTape::compile(base_);
    shifted_cdf = tape.cdf_many(shifted_ts);
    double running = 0.0;
    for (double& f : shifted_cdf) {
      running = std::max(running, std::min(1.0, std::max(0.0, f)));
      f = running;
    }
  }
  grid_.resize(grid.cdf.size());
  std::size_t shifted_index = 0;
  for (std::size_t i = 0; i < grid.cdf.size(); ++i) {
    if (grid.ts[i] <= delay_) {
      grid_[i] = grid.cdf[i];
    } else {
      const double f_shift = shifted_cdf[shifted_index++];
      grid_[i] = 1.0 - (1.0 - grid.cdf[i]) * (1.0 - f_shift);
    }
  }
  blend_correlation(grid_, grid.cdf, correlation_);
  // The hedged CDF is monotone when the base is, but enforce it against
  // inversion wobble around the splice at t = delay.
  double running = 0.0;
  for (double& f : grid_) {
    running = std::max(running, f);
    f = running;
  }
  grid_moments(grid_, dt_, &mean_, &second_);
}

std::string HedgedResponse::name() const {
  std::ostringstream out;
  out << "HedgedResponse(delay=" << delay_ << ",corr=" << correlation_
      << ") of " << base_->name();
  return out.str();
}

std::complex<double> HedgedResponse::laplace(std::complex<double> s) const {
  return detail::piecewise_cdf_laplace(s, dt_, grid_.data(), grid_.size());
}

double HedgedResponse::cdf(double t) const {
  return grid_cdf_at(grid_, dt_, t);
}

}  // namespace cosm::numerics
