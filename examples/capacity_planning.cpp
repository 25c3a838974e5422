// Capacity planning (paper Sec. I): how many storage devices does a
// workload need to meet an SLA target such as "95% of requests within
// 100 ms"?  The model answers the what-if without deploying anything:
// sweep the device count, predict the percentile, pick the smallest
// cluster that satisfies the target.
//
//   $ ./capacity_planning [target_rate] [sla_ms] [target_percentile]
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "core/backend_model.hpp"
#include "example_common.hpp"

int main(int argc, char** argv) {
  const double target_rate = argc > 1 ? std::atof(argv[1]) : 400.0;
  const double sla = (argc > 2 ? std::atof(argv[2]) : 100.0) * 1e-3;
  const double target_percentile = argc > 3 ? std::atof(argv[3]) : 0.95;

  std::printf("capacity planning: %.0f req/s, SLA %.0f ms, target %.1f%%\n\n",
              target_rate, sla * 1e3, 100.0 * target_percentile);
  std::printf("%-10s %-14s %-22s %s\n", "devices", "per-device",
              "util (union queue)", "P[latency <= SLA]");

  unsigned chosen = 0;
  for (unsigned devices = 2; devices <= 24; ++devices) {
    try {
      const auto params = cosm_examples::make_cluster(target_rate, devices);
      const cosm::core::SystemModel model(params);
      const double utilization =
          cosm::core::BackendModel(params.devices.front()).utilization();
      const double percentile = model.predict_sla_percentile(sla);
      std::printf("%-10u %-14.1f %-22.3f %6.2f%% %s\n", devices,
                  target_rate / devices, utilization, 100.0 * percentile,
                  percentile >= target_percentile ? "  <- meets target"
                                                  : "");
      if (chosen == 0 && percentile >= target_percentile) chosen = devices;
    } catch (const std::invalid_argument&) {
      // Overloaded at this device count: the model's "normal status"
      // precondition fails, which is itself the capacity answer.
      std::printf("%-10u %-14.1f %-22s %s\n", devices,
                  target_rate / devices, "overloaded", "--");
    }
  }
  if (chosen != 0) {
    std::printf("\n=> provision %u devices (first count meeting the "
                "target).\n", chosen);
  } else {
    std::printf("\n=> no count up to 24 meets the target; relax the SLA "
                "or shrink the workload.\n");
  }
  return 0;
}
