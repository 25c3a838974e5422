#include "numerics/transform_nodes.hpp"

#include <cmath>
#include <utility>

#include "common/require.hpp"
#include "numerics/elementary.hpp"

namespace cosm::numerics {

// ------------------------------ PKWaitingTime -----------------------------

PKWaitingTime::PKWaitingTime(double arrival_rate, double utilization,
                             DistPtr service, double mean,
                             double second_moment)
    : arrival_rate_(arrival_rate),
      utilization_(utilization),
      service_(std::move(service)),
      mean_(mean),
      second_moment_(second_moment) {
  COSM_REQUIRE(arrival_rate > 0, "P-K arrival rate must be positive");
  COSM_REQUIRE(utilization > 0 && utilization < 1,
               "P-K waiting time requires rho in (0, 1)");
  COSM_REQUIRE(service_ != nullptr, "P-K service distribution required");
}

std::string PKWaitingTime::name() const { return "mg1_waiting_time"; }

std::complex<double> PKWaitingTime::laplace(std::complex<double> s) const {
  if (std::abs(s) < 1e-14) return std::complex<double>(1.0, 0.0);
  return (1.0 - utilization_) * s /
         (arrival_rate_ * service_->laplace(s) + s - arrival_rate_);
}

// ------------------------------- MM1KSojourn ------------------------------

MM1KSojourn::MM1KSojourn(double arrival_rate, double service_rate,
                         int capacity, double p0, double blocking,
                         double mean, double second_moment)
    : arrival_rate_(arrival_rate),
      service_rate_(service_rate),
      capacity_(capacity),
      p0_(p0),
      blocking_(blocking),
      mean_(mean),
      second_moment_(second_moment) {
  COSM_REQUIRE(arrival_rate > 0, "M/M/1/K arrival rate must be positive");
  COSM_REQUIRE(service_rate > 0, "M/M/1/K service rate must be positive");
  COSM_REQUIRE(capacity >= 1, "M/M/1/K capacity must be at least 1");
  COSM_REQUIRE(p0 > 0 && p0 <= 1, "M/M/1/K p0 must be in (0, 1]");
  COSM_REQUIRE(blocking >= 0 && blocking < 1,
               "M/M/1/K blocking probability must be in [0, 1)");
}

std::string MM1KSojourn::name() const { return "mm1k_sojourn"; }

std::complex<double> MM1KSojourn::laplace(std::complex<double> s) const {
  // An accepted arrival that finds i jobs waits for i + 1 exponential
  // services: L[S](s) = sum_{i<K} P_i/(1-P_K) (v/(v+s))^{i+1}, which the
  // paper writes in the closed form below.
  if (std::abs(s) < 1e-14) return std::complex<double>(1.0, 0.0);
  const std::complex<double> ratio_pow =
      std::pow(arrival_rate_ / (service_rate_ + s), capacity_);
  return service_rate_ * p0_ / (1.0 - blocking_) * (1.0 - ratio_pow) /
         (service_rate_ - arrival_rate_ + s);
}

// ------------------------------- MG1KSojourn ------------------------------

MG1KSojourn::MG1KSojourn(DistPtr service, double mean_service,
                         std::vector<double> weights, double mean,
                         double second_moment)
    : service_(std::move(service)),
      mean_service_(mean_service),
      weights_(std::move(weights)),
      mean_(mean),
      second_moment_(second_moment) {
  COSM_REQUIRE(service_ != nullptr, "M/G/1/K service distribution required");
  COSM_REQUIRE(mean_service > 0, "M/G/1/K mean service must be positive");
  COSM_REQUIRE(!weights_.empty(), "M/G/1/K state weights required");
}

std::string MG1KSojourn::name() const { return "mg1k_sojourn"; }

std::complex<double> MG1KSojourn::laplace(std::complex<double> s) const {
  // The residual transform (1 - L[B])/(s B̄) cancels catastrophically
  // for |s B̄| below double precision noise; L ~ 1 there anyway.
  if (std::abs(s) * mean_service_ < 1e-8) {
    return std::complex<double>(1.0, 0.0);
  }
  const std::complex<double> lb = service_->laplace(s);
  // Equilibrium residual service transform.
  const std::complex<double> residual = (1.0 - lb) / (s * mean_service_);
  std::complex<double> total = weights_[0] * lb;
  std::complex<double> lb_power = 1.0;  // L[B]^{i-1}
  for (std::size_t i = 1; i < weights_.size(); ++i) {
    total += complex_mul(complex_mul(weights_[i] * residual, lb_power), lb);
    lb_power = complex_mul(lb_power, lb);
  }
  return total;
}

}  // namespace cosm::numerics
