// M/G/1 queue analysis via the Pollaczek–Khinchine transform.
//
// This is the workhorse of the paper's model: the backend operation queue
// (union operations, Sec. III-B) and the frontend parse queue (Sec. III-C)
// are both M/G/1, and the waiting-time distribution doubles as the paper's
// approximation of the waiting time for being accept()-ed (W_a = W_be).
//
//   L[W](s) = (1 - rho) s / (r L[B](s) + s - r)           (P–K formula)
//   W̄      = r E[B^2] / (2 (1 - rho))                     (P–K mean)
#pragma once

#include "numerics/compose.hpp"
#include "numerics/distribution.hpp"

namespace cosm::queueing {

class MG1 {
 public:
  // arrival_rate r > 0; `service` must have a finite mean.
  MG1(double arrival_rate, numerics::DistPtr service);

  double arrival_rate() const { return arrival_rate_; }
  const numerics::Distribution& service() const { return *service_; }

  // rho = r * E[B].
  double utilization() const;
  // The model assumes steady state ("normal status"), so every output
  // below requires stable() — they throw std::invalid_argument otherwise.
  bool stable() const { return utilization() < 1.0; }

  // P–K mean waiting time; requires a finite service second moment.
  double mean_waiting_time() const;
  double mean_sojourn_time() const;

  // Waiting-time distribution W (time from arrival to start of service).
  // Transform-only: exposes laplace(), mean(), cdf() via inversion.
  numerics::DistPtr waiting_time() const;

  // Sojourn time W * B (waiting plus own service).
  numerics::DistPtr sojourn_time() const;

  // P[W = 0] = 1 - rho (the atom at zero of the waiting time).
  double idle_probability() const;

  // Mean number in system, L = r * sojourn mean (Little).
  double mean_jobs() const;

 private:
  void require_stable() const;

  double arrival_rate_;
  numerics::DistPtr service_;
};

}  // namespace cosm::queueing
