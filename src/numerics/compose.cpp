#include "numerics/compose.hpp"

#include <cmath>
#include <limits>

#include "common/require.hpp"
#include "numerics/elementary.hpp"

namespace cosm::numerics {

// -------------------------------- Mixture --------------------------------

Mixture::Mixture(std::vector<Component> components)
    : components_(std::move(components)) {
  COSM_REQUIRE(!components_.empty(), "mixture needs at least one component");
  double total = 0.0;
  for (const auto& c : components_) {
    COSM_REQUIRE(c.weight >= 0, "mixture weights must be non-negative");
    COSM_REQUIRE(c.dist != nullptr, "mixture component must be non-null");
    total += c.weight;
  }
  COSM_REQUIRE(std::abs(total - 1.0) < 1e-9, "mixture weights must sum to 1");
}

std::string Mixture::name() const { return "mixture"; }

std::complex<double> Mixture::laplace(std::complex<double> s) const {
  std::complex<double> sum = 0.0;
  for (const auto& c : components_) sum += c.weight * c.dist->laplace(s);
  return sum;
}

double Mixture::mean() const {
  double sum = 0.0;
  for (const auto& c : components_) sum += c.weight * c.dist->mean();
  return sum;
}

double Mixture::second_moment() const {
  double sum = 0.0;
  for (const auto& c : components_) {
    sum += c.weight * c.dist->second_moment();
  }
  return sum;
}

double Mixture::third_moment() const {
  double sum = 0.0;
  for (const auto& c : components_) {
    sum += c.weight * c.dist->third_moment();
  }
  return sum;
}

double Mixture::cdf(double t) const {
  double sum = 0.0;
  for (const auto& c : components_) sum += c.weight * c.dist->cdf(t);
  return sum;
}

double Mixture::sample(Rng& rng) const {
  double u = rng.uniform();
  for (const auto& c : components_) {
    if (u < c.weight) return c.dist->sample(rng);
    u -= c.weight;
  }
  return components_.back().dist->sample(rng);
}

DistPtr atom_at_zero_mixture(double miss_ratio, DistPtr on_miss) {
  COSM_REQUIRE(miss_ratio >= 0 && miss_ratio <= 1,
               "miss ratio must be in [0, 1]");
  COSM_REQUIRE(on_miss != nullptr, "on_miss distribution must be non-null");
  return std::make_shared<Mixture>(std::vector<Mixture::Component>{
      {1.0 - miss_ratio, std::make_shared<Degenerate>(0.0)},
      {miss_ratio, std::move(on_miss)}});
}

// ------------------------------ Convolution ------------------------------

Convolution::Convolution(std::vector<DistPtr> parts)
    : parts_(std::move(parts)) {
  COSM_REQUIRE(!parts_.empty(), "convolution needs at least one part");
  for (const auto& p : parts_) {
    COSM_REQUIRE(p != nullptr, "convolution part must be non-null");
  }
}

std::string Convolution::name() const { return "convolution"; }

std::complex<double> Convolution::laplace(std::complex<double> s) const {
  std::complex<double> product = 1.0;
  for (const auto& p : parts_) product *= p->laplace(s);
  return product;
}

double Convolution::mean() const {
  double sum = 0.0;
  for (const auto& p : parts_) sum += p->mean();
  return sum;
}

double Convolution::second_moment() const {
  // E[(sum X_i)^2] = sum Var(X_i) + (sum E X_i)^2 for independent parts.
  double var_sum = 0.0;
  for (const auto& p : parts_) var_sum += p->variance();
  const double m = mean();
  return var_sum + m * m;
}

double Convolution::third_moment() const {
  // Third cumulants add for independent parts:
  // kappa3 = m3 - 3 m1 m2 + 2 m1^3.
  double kappa3_sum = 0.0;
  for (const auto& p : parts_) {
    const double m1 = p->mean();
    const double m2 = p->second_moment();
    const double m3 = p->third_moment();
    kappa3_sum += m3 - 3.0 * m1 * m2 + 2.0 * m1 * m1 * m1;
  }
  const double m1 = mean();
  const double m2 = second_moment();
  return kappa3_sum + 3.0 * m1 * m2 - 2.0 * m1 * m1 * m1;
}

double Convolution::sample(Rng& rng) const {
  double sum = 0.0;
  for (const auto& p : parts_) sum += p->sample(rng);
  return sum;
}

// ----------------------- CompoundPoissonConvolution ----------------------

CompoundPoissonConvolution::CompoundPoissonConvolution(DistPtr base,
                                                       double rate,
                                                       DistPtr extra)
    : base_(std::move(base)), rate_(rate), extra_(std::move(extra)) {
  COSM_REQUIRE(base_ != nullptr && extra_ != nullptr,
               "compound poisson parts must be non-null");
  COSM_REQUIRE(rate >= 0, "compound poisson rate must be non-negative");
}

std::string CompoundPoissonConvolution::name() const {
  return "compound_poisson_convolution";
}

std::complex<double> CompoundPoissonConvolution::laplace(
    std::complex<double> s) const {
  // Sum over j of e^{-p} p^j / j! · L[extra]^j collapses to
  // exp(p (L[extra](s) - 1)).
  return compound_poisson(base_->laplace(s), extra_->laplace(s), rate_);
}

double CompoundPoissonConvolution::mean() const {
  return base_->mean() + rate_ * extra_->mean();
}

double CompoundPoissonConvolution::second_moment() const {
  // Compound Poisson variance: p · E[extra^2]; parts are independent.
  const double var =
      base_->variance() + rate_ * extra_->second_moment();
  const double m = mean();
  return var + m * m;
}

double CompoundPoissonConvolution::third_moment() const {
  // Compound-Poisson cumulants: kappa_n(sum) = p * E[extra^n]; cumulants
  // add with the independent base.
  const double b1 = base_->mean();
  const double b2 = base_->second_moment();
  const double b3 = base_->third_moment();
  const double base_kappa3 = b3 - 3.0 * b1 * b2 + 2.0 * b1 * b1 * b1;
  const double kappa3 = base_kappa3 + rate_ * extra_->third_moment();
  const double m1 = mean();
  const double m2 = second_moment();
  return kappa3 + 3.0 * m1 * m2 - 2.0 * m1 * m1 * m1;
}

double CompoundPoissonConvolution::sample(Rng& rng) const {
  double total = base_->sample(rng);
  const std::uint64_t extras = rng.poisson(rate_);
  for (std::uint64_t i = 0; i < extras; ++i) total += extra_->sample(rng);
  return total;
}

// ---------------------------- LaplaceDistribution -------------------------

LaplaceDistribution::LaplaceDistribution(std::string name, LaplaceFn lt,
                                         double mean, double second_moment)
    : name_(std::move(name)),
      lt_(std::move(lt)),
      mean_(mean),
      second_moment_(second_moment) {
  COSM_REQUIRE(lt_ != nullptr, "laplace function must be non-null");
  // NaN means "unknown" and is allowed; negative means a caller bug.
  COSM_REQUIRE(!(mean < 0), "mean must be non-negative or NaN");
}

// --------------------------------- Scaled ---------------------------------

Scaled::Scaled(DistPtr inner, double factor)
    : inner_(std::move(inner)), factor_(factor) {
  COSM_REQUIRE(inner_ != nullptr, "scaled distribution needs an inner one");
  COSM_REQUIRE(std::isfinite(factor) && factor > 0,
               "scale factor must be finite and positive");
}

std::string Scaled::name() const {
  return "Scaled(" + inner_->name() + ")";
}

std::complex<double> Scaled::laplace(std::complex<double> s) const {
  // E[e^{-s cX}] = L[X](c s).
  return inner_->laplace(factor_ * s);
}

double Scaled::mean() const { return factor_ * inner_->mean(); }

double Scaled::second_moment() const {
  return factor_ * factor_ * inner_->second_moment();
}

double Scaled::third_moment() const {
  return factor_ * factor_ * factor_ * inner_->third_moment();
}

double Scaled::cdf(double t) const { return inner_->cdf(t / factor_); }

double Scaled::sample(Rng& rng) const {
  return factor_ * inner_->sample(rng);
}

// ----------------------------- TieredService -----------------------------

TieredService::TieredService(double hit_ratio, DistPtr hit, DistPtr miss)
    : hit_ratio_(hit_ratio),
      miss_ratio_(1.0 - hit_ratio),
      hit_(std::move(hit)),
      miss_(std::move(miss)) {
  COSM_REQUIRE(hit_ratio >= 0 && hit_ratio <= 1,
               "tier hit ratio must be in [0, 1]");
  COSM_REQUIRE(hit_ != nullptr && miss_ != nullptr,
               "tier components must be non-null");
}

std::string TieredService::name() const { return "tiered_service"; }

std::complex<double> TieredService::laplace(std::complex<double> s) const {
  return hit_ratio_ * hit_->laplace(s) + miss_ratio_ * miss_->laplace(s);
}

double TieredService::mean() const {
  return hit_ratio_ * hit_->mean() + miss_ratio_ * miss_->mean();
}

double TieredService::second_moment() const {
  return hit_ratio_ * hit_->second_moment() +
         miss_ratio_ * miss_->second_moment();
}

double TieredService::third_moment() const {
  return hit_ratio_ * hit_->third_moment() +
         miss_ratio_ * miss_->third_moment();
}

double TieredService::cdf(double t) const {
  return hit_ratio_ * hit_->cdf(t) + miss_ratio_ * miss_->cdf(t);
}

double TieredService::sample(Rng& rng) const {
  return rng.uniform() < hit_ratio_ ? hit_->sample(rng) : miss_->sample(rng);
}

DistPtr scale_dist(DistPtr inner, double factor) {
  if (factor == 1.0) return inner;
  return std::make_shared<Scaled>(std::move(inner), factor);
}

DistPtr convolve_dists(std::vector<DistPtr> parts) {
  if (parts.size() == 1) return parts.front();
  return std::make_shared<Convolution>(std::move(parts));
}

}  // namespace cosm::numerics
