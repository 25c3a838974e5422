// Frontend-tier model (Sec. III-C): per-process M/G/1 over request
// parsing, plus the waiting-time-for-being-accept()-ed model.
//
//   S_q(s)  = (1 - parse_mean * r_i) s L[parse](s) /
//             (r_i L[parse](s) + s - r_i)      (M/G/1 sojourn of parsing)
//   W_a     = W_be                             (the paper's approximation)
//
// The exact accept-wait refinement the paper sketches and then
// approximates away — a connection arriving uniformly at random during an
// accept-operation lifetime x waits x - u, u ~ U(0, x) — lives in the
// ablation bench (bench/ablation_wta.cpp), which integrates the paper's
// survival expression on a grid.
#pragma once

#include "core/params.hpp"
#include "numerics/compose.hpp"

namespace cosm::core {

class FrontendModel {
 public:
  explicit FrontendModel(FrontendParams params);

  const FrontendParams& params() const { return params_; }

  // Per-process arrival rate r_i = r / N_fe.
  double per_process_rate() const;
  double utilization() const;
  bool stable() const { return utilization() < 1.0; }

  // S_q: queueing + parsing latency at one frontend process.
  numerics::DistPtr queueing_latency() const { return sojourn_; }

 private:
  FrontendParams params_;
  numerics::DistPtr sojourn_;
};

}  // namespace cosm::core
