#include "numerics/phase_type.hpp"

#include <cmath>

#include "common/require.hpp"
#include "numerics/special.hpp"

namespace cosm::numerics {

// --------------------------------- Erlang --------------------------------

Erlang::Erlang(unsigned stages, double rate) : stages_(stages), rate_(rate) {
  COSM_REQUIRE(stages >= 1, "erlang needs at least one stage");
  COSM_REQUIRE(rate > 0, "erlang rate must be positive");
}

std::string Erlang::name() const { return "erlang"; }

std::complex<double> Erlang::laplace(std::complex<double> s) const {
  return gamma_laplace(static_cast<double>(stages_), rate_, s);
}

double Erlang::mean() const { return stages_ / rate_; }

double Erlang::second_moment() const {
  return stages_ * (stages_ + 1.0) / (rate_ * rate_);
}

double Erlang::third_moment() const {
  return stages_ * (stages_ + 1.0) * (stages_ + 2.0) /
         (rate_ * rate_ * rate_);
}

double Erlang::cdf(double t) const {
  if (t <= 0) return 0.0;
  return gamma_p(static_cast<double>(stages_), rate_ * t);
}

double Erlang::sample(Rng& rng) const {
  double total = 0.0;
  for (unsigned i = 0; i < stages_; ++i) total += rng.exponential(rate_);
  return total;
}

}  // namespace cosm::numerics
