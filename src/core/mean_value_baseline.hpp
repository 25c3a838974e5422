// A mean-value baseline in the style of the multi-tier Web-application
// models the paper positions itself against (its refs [3]–[6]): every
// station is treated as M/M/1 with the measured mean service time, the
// path mean latency is the sum of station sojourns, and — because such
// models produce no distribution — percentile questions can only be
// answered by bolting an exponential tail onto the mean,
//   P[T <= t] ~ 1 - exp(-t / T̄).
//
// The extension_mean_baseline bench runs this against the full model and
// the simulator: it gets means roughly right and percentiles badly wrong,
// which is the paper's core motivation made quantitative.
#pragma once

#include "core/params.hpp"

namespace cosm::core {

class MeanValueBaseline {
 public:
  explicit MeanValueBaseline(SystemParams params);

  // Rate-weighted mean response latency across devices: frontend M/M/1
  // sojourn + backend M/M/1 sojourn over the union-operation mean.
  double mean_response_latency() const { return mean_latency_; }

  // Exponential-tail percentile: 1 - exp(-sla / mean), mixed by rate.
  double predict_sla_percentile(double sla) const;

 private:
  SystemParams params_;
  std::vector<double> device_means_;
  double mean_latency_ = 0.0;
  double total_rate_ = 0.0;
};

}  // namespace cosm::core
