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

// ----------------------------- HyperExponential ---------------------------

HyperExponential::HyperExponential(std::vector<Branch> branches)
    : branches_(std::move(branches)) {
  COSM_REQUIRE(!branches_.empty(), "hyperexponential needs branches");
  double total = 0.0;
  for (const auto& branch : branches_) {
    COSM_REQUIRE(branch.probability >= 0,
                 "branch probabilities must be non-negative");
    COSM_REQUIRE(branch.rate > 0, "branch rates must be positive");
    total += branch.probability;
  }
  COSM_REQUIRE(std::abs(total - 1.0) < 1e-9,
               "branch probabilities must sum to 1");
}

HyperExponential HyperExponential::two_moment(double mean, double cv2) {
  COSM_REQUIRE(mean > 0, "mean must be positive");
  COSM_REQUIRE(cv2 > 1.0, "H2 fits require cv2 > 1");
  // Balanced means: p1/mu1 = p2/mu2 (each branch carries half the mean).
  const double root = std::sqrt((cv2 - 1.0) / (cv2 + 1.0));
  const double p1 = 0.5 * (1.0 + root);
  const double p2 = 1.0 - p1;
  const double mu1 = 2.0 * p1 / mean;
  const double mu2 = 2.0 * p2 / mean;
  return HyperExponential({{p1, mu1}, {p2, mu2}});
}

std::string HyperExponential::name() const { return "hyperexponential"; }

std::complex<double> HyperExponential::laplace(std::complex<double> s) const {
  std::complex<double> total = 0.0;
  for (const auto& branch : branches_) {
    total += branch.probability * branch.rate / (branch.rate + s);
  }
  return total;
}

double HyperExponential::mean() const {
  double total = 0.0;
  for (const auto& branch : branches_) {
    total += branch.probability / branch.rate;
  }
  return total;
}

double HyperExponential::second_moment() const {
  double total = 0.0;
  for (const auto& branch : branches_) {
    total += branch.probability * 2.0 / (branch.rate * branch.rate);
  }
  return total;
}

double HyperExponential::third_moment() const {
  double total = 0.0;
  for (const auto& branch : branches_) {
    total += branch.probability * 6.0 /
             (branch.rate * branch.rate * branch.rate);
  }
  return total;
}

double HyperExponential::cdf(double t) const {
  if (t <= 0) return 0.0;
  double total = 0.0;
  for (const auto& branch : branches_) {
    total += branch.probability * (1.0 - std::exp(-branch.rate * t));
  }
  return total;
}

double HyperExponential::sample(Rng& rng) const {
  double u = rng.uniform();
  for (const auto& branch : branches_) {
    if (u < branch.probability) return rng.exponential(branch.rate);
    u -= branch.probability;
  }
  return rng.exponential(branches_.back().rate);
}

// --------------------------------- Shifted --------------------------------

Shifted::Shifted(double offset, DistPtr inner)
    : offset_(offset), inner_(std::move(inner)) {
  COSM_REQUIRE(offset >= 0, "shift must be non-negative");
  COSM_REQUIRE(inner_ != nullptr, "inner distribution required");
}

std::string Shifted::name() const { return "shifted_" + inner_->name(); }

std::complex<double> Shifted::laplace(std::complex<double> s) const {
  return std::exp(-s * offset_) * inner_->laplace(s);
}

double Shifted::mean() const { return offset_ + inner_->mean(); }

double Shifted::second_moment() const {
  // E[(d + X)^2] = d^2 + 2 d E[X] + E[X^2].
  return offset_ * offset_ + 2.0 * offset_ * inner_->mean() +
         inner_->second_moment();
}

double Shifted::third_moment() const {
  // E[(d + X)^3] = d^3 + 3 d^2 E[X] + 3 d E[X^2] + E[X^3].
  return offset_ * offset_ * offset_ +
         3.0 * offset_ * offset_ * inner_->mean() +
         3.0 * offset_ * inner_->second_moment() +
         inner_->third_moment();
}

double Shifted::cdf(double t) const { return inner_->cdf(t - offset_); }

double Shifted::sample(Rng& rng) const {
  return offset_ + inner_->sample(rng);
}

}  // namespace cosm::numerics
