// M/G/1/K analysis.
//
// The paper approximates the N_be-process disk queue (an M/G/1/K system,
// K = N_be) with an M/M/1/K because the latter has a closed-form sojourn
// transform.  To quantify that approximation error (the paper's stated
// source of systematic error in scenario S16), this module solves the
// M/G/1/K embedded Markov chain at departure epochs exactly.  Its kernel,
//
//   a_j = P(j Poisson arrivals during one service) = ∫ e^{-rt}(rt)^j/j! dB(t),
//
// has the probability generating function A(z) = sum_j a_j z^j =
// L[B](r - rz), so the a_j are read off the service law's own transform
// by one FFT on a circle of radius rho < 1 (aliasing error of order
// rho^N); the chain is then solved by its cut equations, a recursion of
// positive terms only.
//
// From the departure-epoch distribution pi we recover the time-average
// queue-length distribution p_i and blocking probability P_K via the
// standard M/G/1/K relations (Cooper, "Introduction to Queueing Theory"):
//
//   p_i = pi_i / (pi_0 + rho_eff),  i < K;  p_K = 1 - sum_{i<K} p_i
//
// and the mean sojourn time of accepted jobs via Little's law.
#pragma once

#include <vector>

#include "numerics/compose.hpp"
#include "numerics/distribution.hpp"

namespace cosm::queueing {

class MG1K {
 public:
  MG1K(double arrival_rate, numerics::DistPtr service, int capacity);

  double arrival_rate() const { return arrival_rate_; }
  int capacity() const { return capacity_; }

  // Time-average probability of i jobs in system, i in [0, K].
  double state_probability(int i) const { return p_[i]; }
  const std::vector<double>& state_probabilities() const { return p_; }

  double blocking_probability() const { return p_.back(); }

  double mean_jobs() const;

  // Mean sojourn of accepted jobs: N / (r (1 - P_K)).
  double mean_sojourn_time() const;

  // Sojourn-time distribution of accepted jobs (transform-only), built
  // from the exact state probabilities plus the stationary-residual
  // approximation: an accepted arrival seeing i >= 1 jobs waits the
  // equilibrium residual service (LT: (1 - L[B](s)) / (s B̄)), i - 1
  // fresh services, and its own; i = 0 waits only its own.  Exact for
  // exponential service (collapses to M/M/1/K); for general service the
  // elapsed-service/state correlation is neglected, but the *state
  // weights* are exact — a strictly better approximation than the
  // paper's M/M/1/K substitution (see core::ModelOptions::disk_queue and
  // bench/ablation_mg1k).
  numerics::DistPtr sojourn_time() const;

 private:
  // P(j arrivals during one service), j = 0..capacity_ - 1.
  std::vector<double> arrivals_per_service() const;
  void solve();

  double arrival_rate_;
  numerics::DistPtr service_;
  int capacity_;
  std::vector<double> p_;  // time-average state probabilities
};

}  // namespace cosm::queueing
