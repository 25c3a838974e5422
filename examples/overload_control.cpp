// Overload control (paper Sec. I): during a transient traffic spike the
// system should turn excess requests away *before* SLA compliance
// collapses.  The model gives the admission threshold analytically: sweep
// the admitted rate, find the largest rate whose predicted percentile
// still meets the compliance target.
//
//   $ ./overload_control [sla_ms] [target_percentile]
#include <cstdio>
#include <cstdlib>

#include "core/whatif.hpp"
#include "example_common.hpp"

int main(int argc, char** argv) {
  const double sla = (argc > 1 ? std::atof(argv[1]) : 50.0) * 1e-3;
  const double target = argc > 2 ? std::atof(argv[2]) : 0.90;
  constexpr unsigned kDevices = 4;

  std::printf("overload control on a %u-device cluster: keep "
              "P[latency <= %.0f ms] >= %.0f%%\n\n",
              kDevices, sla * 1e3, target * 100.0);
  std::printf("%-14s %-20s %s\n", "offered req/s", "P[latency <= SLA]",
              "admit?");

  double admission_threshold = 0.0;
  for (double rate = 40.0; rate <= 320.0; rate += 20.0) {
    // Only genuine saturation reads as "(overloaded)"; a bad parameter
    // (NaN rate, missing distribution) is a bug and still throws.
    const cosm::core::Attainment attained = cosm::core::attainment(
        cosm_examples::make_cluster(rate, kDevices), {sla});
    const double percentile = attained.percentiles.front();
    const bool admit = !attained.overloaded && percentile >= target;
    if (admit) admission_threshold = rate;
    if (attained.overloaded) {
      std::printf("%-14.0f %-20s %s\n", rate, "(overloaded)", "shed");
    } else {
      std::printf("%-14.0f %-20.2f %s\n", rate, 100.0 * percentile,
                  admit ? "admit" : "shed");
    }
  }
  std::printf("\n=> admission threshold: admit up to ~%.0f req/s, shed "
              "the excess during spikes.\n", admission_threshold);
  return 0;
}
