#include "core/whatif.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/require.hpp"
#include "core/errors.hpp"
#include "numerics/compose.hpp"
#include "obs/obs.hpp"

namespace cosm::core {

void SlaTarget::validate() const {
  COSM_REQUIRE(sla > 0, "SLA bound must be positive");
  COSM_REQUIRE(percentile > 0 && percentile < 1,
               "target percentile must be in (0, 1)");
}

namespace {

void validate_redundancy(const RedundancyOptions& redundancy) {
  using Mode = RedundancyOptions::Mode;
  if (redundancy.mode == Mode::kHedge) {
    COSM_REQUIRE(std::isfinite(redundancy.hedge_delay) &&
                     redundancy.hedge_delay > 0,
                 "hedge delay must be finite and positive");
  }
  if (redundancy.mode == Mode::kMinOfN ||
      redundancy.mode == Mode::kKthOfN) {
    COSM_REQUIRE(redundancy.n >= 1, "redundancy needs n >= 1");
    COSM_REQUIRE(redundancy.k >= 1 && redundancy.k <= redundancy.n,
                 "redundancy needs 1 <= k <= n");
  }
}

}  // namespace

Attainment attainment(SystemParams params, const std::vector<double>& slas,
                      ModelOptions options, PredictionCache* cache) {
  for (const double sla : slas) {
    COSM_REQUIRE(sla > 0, "SLA bound must be positive");
  }
  const RedundancyOptions& red = options.redundancy;
  validate_redundancy(red);
  try {
    using Mode = RedundancyOptions::Mode;
    if (red.mode == Mode::kNone) {
      const SystemModel model(std::move(params), options, cache);
      return {model.predict_sla_percentiles(slas), false};
    }
    obs::Span span("whatif.redundant_sla");
    if (red.mode != Mode::kHedge) {
      const SystemModel model(apply_redundancy_load(params, red), options,
                              cache);
      return {model.predict_sla_percentiles(slas), false};
    }
    // Hedging: the inflation factor 2 - F(d) needs F(d) of the hedged
    // system itself.  Seed from the HEALTHY model's F(d) — the
    // optimistic end, so a stable fixed point is approached from below
    // rather than pre-declared overloaded by the factor-2 worst case —
    // then iterate: each round rebuilds the model at the implied load
    // and re-reads F(d).  The map is monotone and bounded in [1, 2], so
    // a few rounds settle it far below the model's own accuracy; bail
    // out early once the factor moves < 1e-4.  Overload at any round
    // means the true hedged load has no stable fixed point.  The
    // iteration never reads an SLA, so each round reads F(d) and every
    // F(sla) in one sweep, points = {d, slas...}.
    std::vector<double> points;
    points.reserve(slas.size() + 1);
    points.push_back(red.hedge_delay);
    points.insert(points.end(), slas.begin(), slas.end());
    std::vector<double> cdfs =
        SystemModel(params, options, cache).predict_sla_percentiles(points);
    double last_factor = 1.0;
    for (int round = 0; round < 4; ++round) {
      const double factor = redundancy_arrival_inflation(red, cdfs.front());
      if (std::abs(factor - last_factor) < 1e-4) break;
      last_factor = factor;
      const SystemModel model(apply_redundancy_load(params, red, cdfs.front()),
                              options, cache);
      cdfs = model.predict_sla_percentiles(points);
    }
    cdfs.erase(cdfs.begin());
    return {std::move(cdfs), false};
  } catch (const OverloadError&) {
    // Saturation is a *result* here, not a caller bug: an overloaded
    // configuration certainly misses every SLA.  Genuinely invalid
    // parameters still propagate as std::invalid_argument.
    return {std::vector<double>(slas.size(), 0.0), true};
  }
}

namespace {

// The test the device-count and admission-rate searches probe with.
bool meets_target(SystemParams params, const SlaTarget& target,
                  const ModelOptions& options, PredictionCache* cache) {
  target.validate();
  return attainment(std::move(params), {target.sla}, options, cache)
             .percentiles.front() >= target.percentile;
}

}  // namespace

std::optional<unsigned> min_devices_for(const ClusterFactory& factory,
                                        double total_rate,
                                        const SlaTarget& target,
                                        unsigned min_devices,
                                        unsigned max_devices,
                                        ModelOptions options,
                                        PredictionCache* cache) {
  COSM_REQUIRE(factory != nullptr, "cluster factory required");
  COSM_REQUIRE(min_devices >= 1 && min_devices <= max_devices,
               "device range must be non-empty");
  // Compliance is monotone in the device count (less load per device), so
  // binary search applies; guard with the endpoints first.
  if (!meets_target(factory(total_rate, max_devices), target, options,
                    cache)) {
    return std::nullopt;
  }
  unsigned lo = min_devices;  // possibly non-compliant
  unsigned hi = max_devices;  // compliant
  if (meets_target(factory(total_rate, lo), target, options, cache)) {
    return lo;
  }
  while (hi - lo > 1) {
    const unsigned mid = lo + (hi - lo) / 2;
    if (meets_target(factory(total_rate, mid), target, options, cache)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

double max_admission_rate(const ClusterFactory& factory,
                          unsigned device_count, const SlaTarget& target,
                          double rate_limit, double tolerance,
                          ModelOptions options,
                          PredictionCache* cache) {
  COSM_REQUIRE(factory != nullptr, "cluster factory required");
  COSM_REQUIRE(rate_limit > 0, "rate limit must be positive");
  COSM_REQUIRE(tolerance > 0, "tolerance must be positive");
  const auto ok = [&](double rate) {
    return meets_target(factory(rate, device_count), target, options,
                        cache);
  };
  if (ok(rate_limit)) return rate_limit;
  double lo = 0.0;
  double hi = rate_limit;
  // Find any compliant rate to anchor the bisection.
  double probe = rate_limit / 2.0;
  while (probe > tolerance && !ok(probe)) probe /= 2.0;
  if (probe <= tolerance) return 0.0;
  lo = probe;
  while (hi - lo > tolerance) {
    const double mid = 0.5 * (lo + hi);
    // A tolerance below the rates' spacing would never be met: stop once
    // lo and hi are adjacent doubles.
    if (mid <= lo || mid >= hi) break;
    (ok(mid) ? lo : hi) = mid;
  }
  return lo;
}

std::vector<std::optional<unsigned>> elastic_schedule(
    const ClusterFactory& factory, const std::vector<double>& period_rates,
    const SlaTarget& target, unsigned max_devices, ModelOptions options,
    PredictionCache* cache) {
  COSM_REQUIRE(factory != nullptr, "cluster factory required");
  obs::Span span("whatif.elastic");
  std::vector<std::optional<unsigned>> schedule;
  schedule.reserve(period_rates.size());
  for (const double rate : period_rates) {
    schedule.push_back(min_devices_for(factory, rate, target, 1, max_devices,
                                       options, cache));
  }
  return schedule;
}

void DegradedScenario::validate(std::size_t device_count) const {
  COSM_REQUIRE(std::isfinite(service_inflation) && service_inflation >= 1.0,
               "service_inflation must be finite and >= 1");
  COSM_REQUIRE(std::isfinite(retry_rate_factor) && retry_rate_factor >= 1.0,
               "retry_rate_factor must be finite and >= 1");
  if (slow_device) {
    COSM_REQUIRE(*slow_device < device_count,
                 "slow_device must name an existing device");
  }
  if (failed_device) {
    COSM_REQUIRE(*failed_device < device_count,
                 "failed_device must name an existing device");
    COSM_REQUIRE(device_count > 1,
                 "failed_device needs a surviving device to fail over to");
    COSM_REQUIRE(!slow_device || *slow_device != *failed_device,
                 "a device cannot be both slow and failed");
  }
}

double retry_arrival_inflation(double failure_prob, unsigned max_retries) {
  COSM_REQUIRE(std::isfinite(failure_prob) && failure_prob >= 0 &&
                   failure_prob < 1,
               "failure probability must be in [0, 1)");
  if (failure_prob == 0.0 || max_retries == 0) return 1.0;
  // Expected attempts: 1 + p + p^2 + ... + p^R = (1 - p^{R+1}) / (1 - p).
  return (1.0 - std::pow(failure_prob, max_retries + 1)) /
         (1.0 - failure_prob);
}

SystemParams degrade(const SystemParams& healthy,
                     const DegradedScenario& scenario) {
  scenario.validate(healthy.devices.size());
  SystemParams params = healthy;

  if (scenario.slow_device && scenario.service_inflation != 1.0) {
    DeviceParams& slow = params.devices[*scenario.slow_device];
    slow.index_disk =
        numerics::scale_dist(slow.index_disk, scenario.service_inflation);
    slow.meta_disk =
        numerics::scale_dist(slow.meta_disk, scenario.service_inflation);
    slow.data_disk =
        numerics::scale_dist(slow.data_disk, scenario.service_inflation);
  }

  if (scenario.failed_device) {
    // Evenly redistribute the dead device's traffic: random failover over
    // the survivors (the simulator's replica rotation averages to this).
    const DeviceParams dead = params.devices[*scenario.failed_device];
    const double survivors =
        static_cast<double>(params.devices.size() - 1);
    params.devices.erase(params.devices.begin() +
                         static_cast<std::ptrdiff_t>(*scenario.failed_device));
    for (DeviceParams& device : params.devices) {
      device.arrival_rate += dead.arrival_rate / survivors;
      device.data_read_rate += dead.data_read_rate / survivors;
    }
  }

  if (scenario.retry_rate_factor != 1.0) {
    params.frontend.arrival_rate *= scenario.retry_rate_factor;
    for (DeviceParams& device : params.devices) {
      device.arrival_rate *= scenario.retry_rate_factor;
      device.data_read_rate *= scenario.retry_rate_factor;
    }
  }

  return params;
}

double redundancy_arrival_inflation(const RedundancyOptions& redundancy,
                                    double cdf_at_delay) {
  validate_redundancy(redundancy);
  COSM_REQUIRE(std::isfinite(cdf_at_delay) && cdf_at_delay >= 0 &&
                   cdf_at_delay <= 1,
               "cdf_at_delay must be a probability");
  using Mode = RedundancyOptions::Mode;
  switch (redundancy.mode) {
    case Mode::kNone:
      return 1.0;
    case Mode::kHedge:
      // A hedge fires iff the primary is still outstanding at d.
      return 2.0 - cdf_at_delay;
    case Mode::kMinOfN:
    case Mode::kKthOfN:
      return static_cast<double>(redundancy.n);
  }
  return 1.0;  // unreachable; placates -Wreturn-type
}

double redundancy_data_inflation(const RedundancyOptions& redundancy,
                                 double cdf_at_delay) {
  if (redundancy.mode == RedundancyOptions::Mode::kKthOfN) {
    validate_redundancy(redundancy);
    // n coded attempts each reading 1/k of the object.
    return static_cast<double>(redundancy.n) /
           static_cast<double>(redundancy.k);
  }
  return redundancy_arrival_inflation(redundancy, cdf_at_delay);
}

SystemParams apply_redundancy_load(const SystemParams& healthy,
                                   const RedundancyOptions& redundancy,
                                   double cdf_at_delay) {
  const double arrival_factor =
      redundancy_arrival_inflation(redundancy, cdf_at_delay);
  const double data_factor =
      redundancy_data_inflation(redundancy, cdf_at_delay);
  SystemParams params = healthy;
  params.frontend.arrival_rate *= arrival_factor;
  for (DeviceParams& device : params.devices) {
    device.arrival_rate *= arrival_factor;
    device.data_read_rate *= data_factor;
    // Coded attempts read less data per attempt than a full request, so
    // the inflated data rate can fall below the inflated request rate;
    // the backend model requires r_data >= r (at least one data read per
    // union operation), which still holds per attempt.
    device.data_read_rate =
        std::max(device.data_read_rate, device.arrival_rate);
  }
  return params;
}

std::optional<RedundancyChoice> best_redundancy_policy(
    const SystemParams& healthy,
    const std::vector<RedundancyOptions>& candidates, double sla,
    ModelOptions options, PredictionCache* cache) {
  COSM_REQUIRE(sla > 0, "SLA bound must be positive");
  for (const RedundancyOptions& candidate : candidates) {
    validate_redundancy(candidate);
  }
  obs::Span span("whatif.redundancy_search");
  options.redundancy = RedundancyOptions{};
  const double baseline =
      attainment(healthy, {sla}, options, cache).percentiles.front();
  std::optional<RedundancyChoice> best;
  for (const RedundancyOptions& candidate : candidates) {
    options.redundancy = candidate;
    const double percentile =
        attainment(healthy, {sla}, options, cache).percentiles.front();
    if (percentile > baseline && (!best || percentile > best->percentile)) {
      best = RedundancyChoice{candidate, percentile};
    }
  }
  return best;
}

std::vector<std::pair<std::size_t, double>> sla_miss_contributions(
    const SystemModel& model, double sla) {
  COSM_REQUIRE(sla > 0, "SLA bound must be positive");
  std::vector<std::pair<std::size_t, double>> contributions;
  double total = 0.0;
  for (std::size_t d = 0; d < model.devices().size(); ++d) {
    const double missed =
        model.devices()[d].arrival_rate() *
        (1.0 - model.predict_sla_percentile_device(d, sla));
    contributions.emplace_back(d, missed);
    total += missed;
  }
  for (auto& [device, value] : contributions) {
    value = total > 0 ? value / total : 0.0;
  }
  std::sort(contributions.begin(), contributions.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return contributions;
}

std::optional<TierPlanPoint> min_tier_capacity_for(
    const TierFactory& factory, const std::vector<TierCandidate>& candidates,
    const SlaTarget& target, ModelOptions options,
    PredictionCache* cache) {
  COSM_REQUIRE(factory != nullptr, "tier factory required");
  target.validate();
  for (const TierCandidate& candidate : candidates) {
    COSM_REQUIRE(candidate.hit_ratio >= 0 && candidate.hit_ratio <= 1,
                 "tier candidate hit ratio must be in [0, 1]");
  }
  obs::Span span("whatif.tier_sweep");
  std::optional<TierPlanPoint> best;
  for (const TierCandidate& candidate : candidates) {
    const double percentile =
        attainment(factory(candidate), {target.sla}, options, cache)
            .percentiles.front();
    if (percentile >= target.percentile &&
        (!best ||
         candidate.capacity_chunks < best->candidate.capacity_chunks)) {
      best = TierPlanPoint{candidate, percentile};
    }
  }
  return best;
}

}  // namespace cosm::core
