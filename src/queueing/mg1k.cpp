#include "queueing/mg1k.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>

#include "common/require.hpp"
#include "numerics/fft.hpp"
#include "numerics/transform_nodes.hpp"

namespace cosm::queueing {

namespace {

// The absolute accuracy of the FFT-recovered a_j (a few ulp of |A| <= 1,
// times the radius^{-j} rescaling).  An a_0 below it is indistinguishable
// from 0.
constexpr double kArrivalResolution = 1e-14;

}  // namespace

MG1K::MG1K(double arrival_rate, numerics::DistPtr service, int capacity)
    : arrival_rate_(arrival_rate),
      service_(std::move(service)),
      capacity_(capacity) {
  COSM_REQUIRE(arrival_rate > 0, "M/G/1/K arrival rate must be positive");
  COSM_REQUIRE(service_ != nullptr, "M/G/1/K service distribution required");
  COSM_REQUIRE(std::isfinite(service_->mean()) && service_->mean() > 0,
               "M/G/1/K service mean must be positive and finite");
  COSM_REQUIRE(capacity >= 1 && capacity <= 512,
               "M/G/1/K capacity must be in [1, 512]");
  solve();
}

std::vector<double> MG1K::arrivals_per_service() const {
  // A(z) = L[B](r - rz) sampled at z_k = radius * e^{2 pi i k / N}: its
  // forward DFT is N * radius^j * (a_j + sum_{m >= 1} a_{j+mN} radius^{mN}),
  // and radius^N = e^{-36} makes the aliases negligible.  N >= 8K keeps
  // the rescaling radius^{-j} below e^{4.5} for every j < K, so the FFT's
  // rounding stays near 1e-14 absolute.
  const std::size_t n =
      numerics::next_pow2(8 * static_cast<std::size_t>(capacity_));
  const double radius = std::exp(-36.0 / static_cast<double>(n));
  std::vector<std::complex<double>> s(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double angle =
        2.0 * std::numbers::pi * static_cast<double>(k) / static_cast<double>(n);
    s[k] = {arrival_rate_ * (1.0 - radius * std::cos(angle)),
            -arrival_rate_ * radius * std::sin(angle)};
  }
  std::vector<std::complex<double>> values(n);
  service_->laplace_many(s, values);
  numerics::fft(values, false);
  std::vector<double> a(capacity_);
  for (int j = 0; j < capacity_; ++j) {
    a[j] = std::max(0.0, values[j].real() / static_cast<double>(n) *
                             std::pow(radius, -static_cast<double>(j)));
  }
  return a;
}

double MG1K::mean_jobs() const {
  double n = 0.0;
  for (int i = 0; i <= capacity_; ++i) n += i * p_[i];
  return n;
}

double MG1K::mean_sojourn_time() const {
  return mean_jobs() /
         (arrival_rate_ * (1.0 - blocking_probability()));
}

numerics::DistPtr MG1K::sojourn_time() const {
  const numerics::DistPtr service = service_;
  const double mean_service = service->mean();
  // Acceptance-conditioned state weights q_i = p_i / (1 - P_K), i < K.
  std::vector<double> weights(capacity_);
  const double admit = 1.0 - blocking_probability();
  for (int i = 0; i < capacity_; ++i) weights[i] = p_[i] / admit;
  // Moments from the same construction (may differ slightly from the
  // exact Little's-law mean because of the residual approximation).  The
  // second moment uses the equilibrium residual moments E[R] = m2/(2 m1)
  // and E[R^2] = m3/(3 m1); NaN service third moments propagate honestly.
  const double m1 = mean_service;
  const double m2_service = service->second_moment();
  const double m3_service = service->third_moment();
  const double residual_mean = m2_service / (2.0 * m1);
  const double residual_m2 = m3_service / (3.0 * m1);
  const double residual_var =
      residual_m2 - residual_mean * residual_mean;
  const double service_var = m2_service - m1 * m1;
  double mean = weights[0] * m1;
  double m2 = weights[0] * m2_service;
  for (std::size_t i = 1; i < weights.size(); ++i) {
    const double n = static_cast<double>(i);  // i - 1 fresh + own service
    const double state_mean = residual_mean + n * m1;
    const double state_var = residual_var + n * service_var;
    mean += weights[i] * state_mean;
    m2 += weights[i] * (state_var + state_mean * state_mean);
  }
  // Structured node (same transform, same evaluation order — see
  // numerics/transform_nodes.hpp) so the tape compiler keeps flattening
  // into the service distribution.
  return std::make_shared<numerics::MG1KSojourn>(
      service, mean_service, std::move(weights), mean, m2);
}

void MG1K::solve() {
  const int k = capacity_;
  const std::vector<double> a = arrivals_per_service();
  // Embedded chain at departure epochs over states {0, ..., K-1} (jobs
  // left behind).  From state i >= 1 the next departure leaves
  // min(i - 1 + J, K - 1); state 0 behaves like state 1 after the next
  // arrival.  Across the cut between j and j + 1 the only downward move
  // is j + 1 -> j (no arrival, probability a_0), and state i jumps over
  // it when at least j - i + 2 arrive (j + 1 from state 0), so
  //   pi_{j+1} a_0 = pi_0 tail_j + sum_{i=1..j} pi_i tail_{j-i+1},
  // tail_m = P(J > m).  Every term is non-negative.
  std::vector<double> tail(k);
  double remaining = 1.0;
  for (int m = 0; m < k; ++m) {
    remaining = std::max(0.0, remaining - a[m]);
    tail[m] = remaining;
  }
  std::vector<double> pi(k, 0.0);
  if (a[0] <= kArrivalResolution) {
    // No departure ever finds the queue without an arrival behind it:
    // the chain is absorbed in K - 1.
    pi[k - 1] = 1.0;
  } else {
    pi[0] = 1.0;
    for (int j = 0; j + 1 < k; ++j) {
      double flow = pi[0] * tail[j];
      for (int i = 1; i <= j; ++i) flow += pi[i] * tail[j - i + 1];
      pi[j + 1] = flow / a[0];
      // A nearly saturated queue grows pi by up to 1 / a_0 per state:
      // rescale before it overflows (the ratios are all that matter).
      if (pi[j + 1] > 1e200) {
        for (int i = 0; i <= j + 1; ++i) pi[i] *= 1e-200;
      }
    }
  }
  double total = 0.0;
  for (const double v : pi) total += v;
  for (double& v : pi) v /= total;
  // Departure-epoch -> time-average (Cooper): p_i = pi_i / (pi_0 + rho)
  // for i < K, p_K = 1 - 1 / (pi_0 + rho).
  const double rho = arrival_rate_ * service_->mean();
  const double denom = pi[0] + rho;
  p_.assign(k + 1, 0.0);
  double acc = 0.0;
  for (int i = 0; i < k; ++i) {
    p_[i] = pi[i] / denom;
    acc += p_[i];
  }
  p_[k] = std::max(0.0, 1.0 - acc);
}

}  // namespace cosm::queueing
