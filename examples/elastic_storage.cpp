// Elastic storage (paper Sec. I): power storage nodes on and off to track
// a diurnal workload while still meeting the SLA.  For each hour of a
// synthetic day-night traffic curve, find the smallest active-device count
// whose predicted percentile meets the target, and report the energy
// saved versus keeping the full cluster on.
//
// Uses the library's core::elastic_schedule what-if with the execution
// pipeline turned all the way up: the 24 hourly searches fan out across
// all hardware threads, and a shared PredictionCache reuses backend
// builds between hours that probe the same candidate device count
// (docs/PERFORMANCE.md) — with results identical to the serial loop.
//
//   $ ./elastic_storage
#include <cmath>
#include <cstdio>
#include <numbers>
#include <vector>

#include "core/whatif.hpp"
#include "example_common.hpp"

int main() {
  constexpr double kSla = 100e-3;
  constexpr double kTarget = 0.95;
  constexpr unsigned kFleet = 12;

  std::printf("elastic storage: %u-device fleet, keep P[latency <= %.0f ms]"
              " >= %.0f%%\n\n", kFleet, kSla * 1e3, kTarget * 100);

  std::vector<double> hourly_rates;
  for (int hour = 0; hour < 24; ++hour) {
    // Diurnal curve: trough ~60 req/s at night, peak ~420 req/s around
    // 14:00 local.
    hourly_rates.push_back(
        240.0 + 180.0 * std::sin((hour - 8) * std::numbers::pi / 12.0));
  }

  const cosm::core::ClusterFactory factory = [](double rate,
                                                unsigned devices) {
    return cosm_examples::make_cluster(rate, devices);
  };
  cosm::core::PredictionCache cache;
  const auto schedule = cosm::core::elastic_schedule(
      factory, hourly_rates, {kSla, kTarget}, kFleet, {}, &cache);

  std::printf("%-6s %-12s %-16s %s\n", "hour", "req/s", "devices needed",
              "devices parked");
  double device_hours_used = 0.0;
  for (int hour = 0; hour < 24; ++hour) {
    const double rate = hourly_rates[static_cast<std::size_t>(hour)];
    const auto needed = schedule[static_cast<std::size_t>(hour)];
    if (!needed) {
      std::printf("%-6d %-12.0f %-16s %s\n", hour, rate, "fleet too small",
                  "-");
      device_hours_used += kFleet;
      continue;
    }
    device_hours_used += *needed;
    std::printf("%-6d %-12.0f %-16u %u\n", hour, rate, *needed,
                kFleet - *needed);
  }
  const double always_on = 24.0 * kFleet;
  std::printf("\n=> %.0f device-hours instead of %.0f always-on: %.1f%% "
              "energy saved while meeting the SLA.\n", device_hours_used,
              always_on, 100.0 * (1.0 - device_hours_used / always_on));
  const auto stats = cache.combined_stats();
  std::printf("   prediction cache: %llu hits / %llu misses (%.0f%% hit "
              "rate) across the %zu-hour sweep.\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              100.0 * stats.hit_rate(), hourly_rates.size());
  return 0;
}
