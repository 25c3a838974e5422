#include "calibration/online_metrics.hpp"

#include <cmath>

#include "common/require.hpp"
#include "obs/obs.hpp"

namespace cosm::calibration {

double estimate_miss_ratio(std::span<const double> operation_latencies,
                           double threshold) {
  COSM_REQUIRE(!operation_latencies.empty(),
               "miss-ratio estimation needs samples");
  COSM_REQUIRE(threshold > 0, "latency threshold must be positive");
  std::size_t misses = 0;
  for (const double latency : operation_latencies) {
    if (latency > threshold) ++misses;
  }
  return static_cast<double>(misses) /
         static_cast<double>(operation_latencies.size());
}

ServiceSplit split_disk_service(double aggregate_mean_service,
                                double index_proportion,
                                double meta_proportion,
                                double data_proportion,
                                double index_miss_ratio,
                                double meta_miss_ratio,
                                double data_miss_ratio, double request_rate,
                                double data_read_rate) {
  COSM_REQUIRE(aggregate_mean_service > 0,
               "aggregate disk service time must be positive");
  COSM_REQUIRE(index_proportion > 0 && meta_proportion > 0 &&
                   data_proportion > 0,
               "service proportions must be positive");
  COSM_REQUIRE(request_rate > 0 && data_read_rate >= request_rate,
               "rates must satisfy r_d >= r > 0");
  // b_k = alpha * p_k; substitute into the rate-weighted identity:
  // alpha (m_i p_i r + m_m p_m r + m_d p_d r_d)
  //   = (m_i r + m_m r + m_d r_d) b.
  const double weighted_props = index_miss_ratio * index_proportion *
                                    request_rate +
                                meta_miss_ratio * meta_proportion *
                                    request_rate +
                                data_miss_ratio * data_proportion *
                                    data_read_rate;
  const double disk_rate = index_miss_ratio * request_rate +
                           meta_miss_ratio * request_rate +
                           data_miss_ratio * data_read_rate;
  COSM_REQUIRE(weighted_props > 0 && disk_rate > 0,
               "at least one operation kind must miss for the split");
  const double alpha = disk_rate * aggregate_mean_service / weighted_props;
  return {alpha * index_proportion, alpha * meta_proportion,
          alpha * data_proportion};
}

DeviceObservation observe_device(const sim::SimMetrics& metrics,
                                 std::uint32_t device, double window) {
  COSM_REQUIRE(window > 0, "observation window must be positive");
  const sim::DeviceCounters& counters = metrics.device(device);
  DeviceObservation obs;
  obs.request_rate = static_cast<double>(counters.requests) / window;
  obs.data_read_rate = static_cast<double>(counters.data_reads) / window;
  obs.index_miss_ratio = metrics.miss_ratio(device, sim::AccessKind::kIndex);
  obs.meta_miss_ratio = metrics.miss_ratio(device, sim::AccessKind::kMeta);
  obs.data_miss_ratio = metrics.miss_ratio(device, sim::AccessKind::kData);
  return obs;
}

namespace {

// Delta of one counter kind across a window, guarding against snapshots
// taken out of order (a programming error, not a data condition).
std::uint64_t delta(std::uint64_t start, std::uint64_t end,
                    const char* what) {
  COSM_REQUIRE(end >= start, std::string("window counters ran backwards: ") +
                                 what);
  return end - start;
}

}  // namespace

std::optional<WindowObservation> observe_window(
    const sim::DeviceCounters& start, const sim::DeviceCounters& end,
    double window, std::uint64_t min_requests, double* skew_carry) {
  COSM_REQUIRE(window > 0, "observation window must be positive");
  COSM_REQUIRE(skew_carry != nullptr && *skew_carry >= 0,
               "skew carry slot must be present and non-negative");
  const std::uint64_t requests = delta(start.requests, end.requests,
                                       "requests");
  const std::uint64_t data_reads = delta(start.data_reads, end.data_reads,
                                         "data_reads");
  // Only the read-path kinds enter the Sec. IV-B split; writes and
  // commits have their own service model.
  constexpr sim::AccessKind kReadKinds[] = {
      sim::AccessKind::kIndex, sim::AccessKind::kMeta,
      sim::AccessKind::kData};
  double service_sum = 0.0;
  std::uint64_t disk_ops = 0;
  for (const sim::AccessKind kind : kReadKinds) {
    const auto k = static_cast<std::size_t>(kind);
    disk_ops += delta(start.disk_ops[k], end.disk_ops[k], "disk_ops");
    service_sum += end.disk_service_sum[k] - start.disk_service_sum[k];
  }
  if (requests < min_requests || requests == 0 || disk_ops == 0) {
    return std::nullopt;  // insufficient samples — an outcome, not an error
  }

  // Boundary-skew correction: subtract the reads this window inherited
  // from the previous clamp, then clamp up to the r_d >= r identity if
  // the window is still deficient, carrying the new deficit forward.
  double effective_reads = static_cast<double>(data_reads) - *skew_carry;
  *skew_carry = 0.0;
  if (effective_reads < static_cast<double>(requests)) {
    *skew_carry = static_cast<double>(requests) - effective_reads;
    effective_reads = static_cast<double>(requests);
    obs::add(obs::Counter::kCalibWindowSkew);
  }

  WindowObservation out;
  out.requests = requests;
  out.disk_ops = disk_ops;
  out.aggregate_mean_service = service_sum / static_cast<double>(disk_ops);
  out.observation.request_rate = static_cast<double>(requests) / window;
  out.observation.data_read_rate = effective_reads / window;
  for (const sim::AccessKind kind : kReadKinds) {
    const auto k = static_cast<std::size_t>(kind);
    const std::uint64_t accesses =
        delta(start.accesses[k], end.accesses[k], "accesses");
    const std::uint64_t misses = delta(start.misses[k], end.misses[k],
                                       "misses");
    const double ratio =
        accesses == 0 ? 0.0
                      : static_cast<double>(misses) /
                            static_cast<double>(accesses);
    switch (kind) {
      case sim::AccessKind::kIndex:
        out.observation.index_miss_ratio = ratio;
        break;
      case sim::AccessKind::kMeta:
        out.observation.meta_miss_ratio = ratio;
        break;
      default:
        out.observation.data_miss_ratio = ratio;
        break;
    }
  }
  return out;
}

numerics::DistPtr rescale_to_mean(const numerics::DistPtr& fitted,
                                  double new_mean) {
  COSM_REQUIRE(new_mean > 0, "rescale target mean must be positive");
  if (const auto* gamma =
          dynamic_cast<const numerics::Gamma*>(fitted.get())) {
    return std::make_shared<numerics::Gamma>(
        gamma->shape(), gamma->shape() / new_mean);
  }
  if (dynamic_cast<const numerics::Exponential*>(fitted.get()) != nullptr) {
    return std::make_shared<numerics::Exponential>(1.0 / new_mean);
  }
  if (dynamic_cast<const numerics::Degenerate*>(fitted.get()) != nullptr) {
    return std::make_shared<numerics::Degenerate>(new_mean);
  }
  // Generic fallback: keep the fitted coefficient of variation with a
  // Gamma of the same CV.  Non-positive variance (or mean) leaves no CV
  // to keep — the distribution is effectively deterministic, so route to
  // Degenerate instead of a fabricated near-zero-CV Gamma.
  const double mean = fitted->mean();
  const double var = fitted->variance();
  if (!(var > 0.0) || !(mean > 0.0)) {
    obs::add(obs::Counter::kCalibRescaleDegenerate);
    return std::make_shared<numerics::Degenerate>(new_mean);
  }
  const double cv2 = var / (mean * mean);
  const double shape = 1.0 / cv2;
  return std::make_shared<numerics::Gamma>(shape, shape / new_mean);
}

core::DeviceParams build_device_params(
    const DeviceObservation& observation,
    const DiskCalibration& disk_calibration,
    numerics::DistPtr backend_parse, std::uint32_t processes,
    double aggregate_mean_service) {
  const ServiceSplit split = split_disk_service(
      aggregate_mean_service, disk_calibration.index_proportion(),
      disk_calibration.meta_proportion(),
      disk_calibration.data_proportion(), observation.index_miss_ratio,
      observation.meta_miss_ratio, observation.data_miss_ratio,
      observation.request_rate, observation.data_read_rate);
  core::DeviceParams params;
  params.arrival_rate = observation.request_rate;
  params.data_read_rate = observation.data_read_rate;
  params.index_miss_ratio = observation.index_miss_ratio;
  params.meta_miss_ratio = observation.meta_miss_ratio;
  params.data_miss_ratio = observation.data_miss_ratio;
  params.index_disk = rescale_to_mean(
      disk_calibration.index.selection.best().dist, split.index_mean);
  params.meta_disk = rescale_to_mean(
      disk_calibration.meta.selection.best().dist, split.meta_mean);
  params.data_disk = rescale_to_mean(
      disk_calibration.data.selection.best().dist, split.data_mean);
  params.backend_parse = std::move(backend_parse);
  params.processes = processes;
  return params;
}

}  // namespace cosm::calibration
