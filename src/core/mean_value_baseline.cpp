#include "core/mean_value_baseline.hpp"

#include <cmath>

#include "common/require.hpp"

namespace cosm::core {

namespace {

// M/M/1 mean sojourn 1/(mu - lambda) with the same overload policy as the
// rest of the models.
double mm1_sojourn(double arrival_rate, double mean_service) {
  const double mu = 1.0 / mean_service;
  COSM_REQUIRE(arrival_rate < mu,
               "mean-value baseline: station overloaded (rho >= 1)");
  return 1.0 / (mu - arrival_rate);
}

}  // namespace

MeanValueBaseline::MeanValueBaseline(SystemParams params)
    : params_(std::move(params)) {
  params_.validate();
  const double frontend_rate =
      params_.frontend.arrival_rate /
      static_cast<double>(params_.frontend.processes);
  const double frontend_sojourn =
      mm1_sojourn(frontend_rate, params_.frontend.frontend_parse->mean());
  device_means_.reserve(params_.devices.size());
  for (const auto& device : params_.devices) {
    // The per-request mean work at the backend: parse + cache-weighted
    // disk means, with (1 + p) data reads — the same quantity the full
    // model calls the union-operation mean, but consumed as an
    // exponential M/M/1 service.
    const double extra =
        (device.data_read_rate - device.arrival_rate) / device.arrival_rate;
    const double union_mean =
        device.backend_parse->mean() +
        device.index_miss_ratio * device.index_disk->mean() +
        device.meta_miss_ratio * device.meta_disk->mean() +
        (1.0 + extra) * device.data_miss_ratio * device.data_disk->mean();
    const double per_process_rate =
        device.arrival_rate / static_cast<double>(device.processes);
    const double backend_sojourn =
        mm1_sojourn(per_process_rate, union_mean);
    device_means_.push_back(frontend_sojourn + backend_sojourn);
    mean_latency_ += device.arrival_rate * device_means_.back();
    total_rate_ += device.arrival_rate;
  }
  mean_latency_ /= total_rate_;
}

double MeanValueBaseline::predict_sla_percentile(double sla) const {
  COSM_REQUIRE(sla > 0, "SLA must be positive");
  double weighted = 0.0;
  for (std::size_t d = 0; d < device_means_.size(); ++d) {
    weighted += params_.devices[d].arrival_rate *
                (1.0 - std::exp(-sla / device_means_[d]));
  }
  return weighted / total_rate_;
}

}  // namespace cosm::core
