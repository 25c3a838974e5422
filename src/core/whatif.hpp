// What-if analyses (paper Sec. I): the three applications that motivate
// having an analytic model at all — capacity planning, overload control,
// and elastic storage — exposed as library functions over SystemModel so
// operators (and the example programs) don't re-derive the searches.
//
// All functions treat "overloaded" (model precondition violation) as
// "target not met" rather than propagating the exception: an overloaded
// configuration certainly misses any SLA target (the paper's "it is
// enough to know that the system does not perform well in such
// situations").
//
// Execution: every search takes a trailing PredictOptions.  The sweeps
// (elastic_schedule over periods, degraded_sla_percentiles over
// scenarios) fan their independent iterations across
// PredictOptions::num_threads; the inner model builds then run serially
// per iteration but still share PredictOptions::cache, so repeated
// configurations (the same candidate device count at several periods,
// the same healthy devices across scenarios) are built once.  Sequential
// searches (min_devices_for, max_admission_rate) can't fan out — each
// probe depends on the last — but benefit from the cache the same way.
// Results are bit-identical for every num_threads and cache setting.
//
// Thread-safety: when num_threads != 1 the ClusterFactory is invoked
// concurrently from pool threads and MUST be thread-safe (a factory that
// only reads captured parameters and allocates qualifies; one mutating
// shared state does not).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "core/errors.hpp"
#include "core/system_model.hpp"

namespace cosm::core {

struct SlaTarget {
  double sla = 0.1;           // latency bound, seconds
  double percentile = 0.95;   // required fraction meeting it

  void validate() const;
};

// Builds SystemParams for a candidate configuration: given a total
// arrival rate (req/s) and a device count, returns the parameter set to
// evaluate.  Callers encode their hardware assumptions (disk profiles,
// miss ratios, process counts) inside the factory.  Must be thread-safe
// when used with PredictOptions::num_threads != 1 (see file comment).
using ClusterFactory =
    std::function<SystemParams(double total_rate, unsigned device_count)>;

// Whether `params` meets the target; false when overloaded.
bool meets_target(const SystemParams& params, const SlaTarget& target,
                  ModelOptions options = {}, const PredictOptions& predict = {});

// Capacity planning: smallest device count in [min_devices, max_devices]
// meeting the target at `total_rate`; nullopt if none does.
// Preconditions: factory non-null, 1 <= min_devices <= max_devices.
std::optional<unsigned> min_devices_for(const ClusterFactory& factory,
                                        double total_rate,
                                        const SlaTarget& target,
                                        unsigned min_devices,
                                        unsigned max_devices,
                                        ModelOptions options = {},
                                        const PredictOptions& predict = {});

// Overload control: largest admitted rate in (0, rate_limit] meeting the
// target with `device_count` devices, found by bisection to `tolerance`
// (requests/s), or until the bracket is two adjacent doubles when
// `tolerance` is finer than their spacing.  Returns 0 when even vanishing
// load misses the target.
// Preconditions: factory non-null, rate_limit > 0, tolerance > 0.
double max_admission_rate(const ClusterFactory& factory,
                          unsigned device_count, const SlaTarget& target,
                          double rate_limit, double tolerance = 0.5,
                          ModelOptions options = {},
                          const PredictOptions& predict = {});

// Elastic storage: per-period minimum active device counts for a workload
// curve (e.g. hourly rates); entries are nullopt where even max_devices
// misses the target.  Periods are independent and fan out across
// PredictOptions::num_threads (the per-period binary search stays
// serial).
std::vector<std::optional<unsigned>> elastic_schedule(
    const ClusterFactory& factory, const std::vector<double>& period_rates,
    const SlaTarget& target, unsigned max_devices,
    ModelOptions options = {}, const PredictOptions& predict = {});

// Bottleneck identification: per-device share of SLA misses,
// share_j = r_j (1 - F_j(sla)) / sum_k r_k (1 - F_k(sla)), descending by
// contribution, with F_j = model.predict_sla_percentile_device(j, sla) —
// the value (and cache entry) of the predictions the shares explain.
// Pairs of (device index, contribution in [0, 1]).
// Precondition: sla > 0 (seconds).
std::vector<std::pair<std::size_t, double>> sla_miss_contributions(
    const SystemModel& model, double sla);

// ----- Degraded what-if (robustness extension) -----
//
// The model's Eq. 3 mixture already supports heterogeneous per-device
// parameters, so a degraded cluster is just a *transformed* parameter
// set: a slow device gets its disk service distributions inflated
// (numerics::Scaled), a failed device drops out with its traffic
// redistributed, and client retries inflate every arrival rate.  The same
// M/G/1 machinery then predicts the degraded percentiles.

struct DegradedScenario {
  // One device serving `service_inflation`-times-slower disk operations
  // (e.g. the window of a FaultSchedule disk_slowdown).
  std::optional<std::size_t> slow_device;
  double service_inflation = 1.0;

  // One device entirely failed; its arrival rates are spread evenly over
  // the surviving devices (random replica failover).
  std::optional<std::size_t> failed_device;

  // Multiplier >= 1 on every arrival rate: the retry-inflated effective
  // lambda (see retry_arrival_inflation).
  double retry_rate_factor = 1.0;

  void validate(std::size_t device_count) const;
};

// Expected attempts per request when each attempt independently fails
// with probability `failure_prob` and up to `max_retries` retries are
// allowed: (1 - p^{R+1}) / (1 - p).  Precondition: failure_prob in
// [0, 1).
double retry_arrival_inflation(double failure_prob, unsigned max_retries);

// Applies the scenario to healthy parameters, returning the degraded set.
SystemParams degrade(const SystemParams& healthy,
                     const DegradedScenario& scenario);

// P[latency <= sla] under the scenario; 0 when the degraded system is
// overloaded (the degraded system certainly misses the SLA then).
// Precondition: sla > 0 (seconds).
double degraded_sla_percentile(const SystemParams& healthy,
                               const DegradedScenario& scenario, double sla,
                               ModelOptions options = {},
                               const PredictOptions& predict = {});

// Scenario sweep: one percentile per entry of `scenarios`, fanned across
// PredictOptions::num_threads.  Bit-identical to — and the parallel
// equivalent of — calling degraded_sla_percentile per element.  Sharing
// a PredictionCache pays off here: scenarios touching one device leave
// the other devices' backends (and often their CDF points) identical.
std::vector<double> degraded_sla_percentiles(
    const SystemParams& healthy,
    const std::vector<DegradedScenario>& scenarios, double sla,
    ModelOptions options = {}, const PredictOptions& predict = {});

// ----- Redundancy what-if (tail-tolerance extension) -----
//
// Redundant reads cut the per-request tail but multiply the offered
// load: every hedge and every fan-out sibling is a real attempt the
// devices must serve (the simulator counts them in per-device attempted
// load, SimMetrics::on_attempt).  The model mirrors both sides:
// ModelOptions::redundancy wraps the response in the order statistic
// (the help), and apply_redundancy_load inflates the arrival rates (the
// hurt).  Their crossing is the help->hurt crossover the
// extension_redundancy bench locates.

// Arrival-rate multiplier for the request stream under `redundancy`.
//  * kHedge:  1 + P[T > d] = 2 - F(d) — a hedge fires only when the
//    primary is still outstanding at the deadline; `cdf_at_delay` is
//    F(d) of the per-request response (pass 0 for the worst case).
//  * kMinOfN / kKthOfN: n — every attempt is dispatched up front.
//    Cancellation trims the tail of that work in the simulator, so n is
//    a (documented) conservative ceiling.
double redundancy_arrival_inflation(const RedundancyOptions& redundancy,
                                    double cdf_at_delay = 0.0);

// Data-read-rate multiplier.  Differs from the request multiplier only
// for kKthOfN, where each of the n coded attempts reads 1/k of the
// object: n/k.  Applying both multipliers also shrinks the per-attempt
// extra-read ratio (data_read_rate / arrival_rate) by k — exactly the
// smaller coded chunks the backend model should see.
double redundancy_data_inflation(const RedundancyOptions& redundancy,
                                 double cdf_at_delay = 0.0);

// Applies the two multipliers to every device (and the frontend rate),
// returning the redundancy-inflated parameter set.
SystemParams apply_redundancy_load(const SystemParams& healthy,
                                   const RedundancyOptions& redundancy,
                                   double cdf_at_delay = 0.0);

// P[latency <= sla] under `options.redundancy`, with the arrival
// inflation applied self-consistently: for hedging, F(d) depends on the
// inflated load which depends on F(d), so the helper iterates the fixed
// point (a few rounds; the map is a contraction for stable systems).
// Returns 0 when the inflated system is overloaded — redundancy that
// saturates the cluster certainly misses the SLA, which is the "hurt"
// side of the crossover.  Precondition: sla > 0.
double redundant_sla_percentile(const SystemParams& healthy, double sla,
                                ModelOptions options = {},
                                const PredictOptions& predict = {});

// One evaluated redundancy policy: the options, the achieved percentile
// at the target SLA (0 when overloaded), and whether it beats the
// single-attempt baseline.
struct RedundancyChoice {
  RedundancyOptions options;
  double percentile = 0.0;
  bool beats_baseline = false;
};

// Policy search: evaluates every candidate (fanning across
// PredictOptions::num_threads) plus the single-attempt baseline, and
// returns the candidates in input order with `beats_baseline` filled.
// The best policy is the max-percentile entry; ties resolve to the
// earliest candidate.  Use candidates spanning hedge deadlines and
// redundancy degrees to search both axes against one SLA target.
std::vector<RedundancyChoice> evaluate_redundancy_policies(
    const SystemParams& healthy,
    const std::vector<RedundancyOptions>& candidates, double sla,
    ModelOptions options = {}, const PredictOptions& predict = {});

// The argmax over evaluate_redundancy_policies — nullopt when no
// candidate beats the single-attempt baseline at the target.
std::optional<RedundancyChoice> best_redundancy_policy(
    const SystemParams& healthy,
    const std::vector<RedundancyOptions>& candidates, double sla,
    ModelOptions options = {}, const PredictOptions& predict = {});

// ----- Tiering what-if (two-tier storage extension) -----
//
// Capacity planning over SSD tier sizes: each candidate pairs a tier
// capacity with the hit ratio predicted for it — typically
// calibration::predict_tier_hit_ratio over the Zipf catalog, kept out of
// this layer so core stays independent of calibration.  The factory
// builds SystemParams with core::TierOptions filled from the candidate
// (capacity 0 conventionally means "no tier").  Derivation and validity
// limits: docs/TIERING.md.

struct TierCandidate {
  std::size_t capacity_chunks = 0;  // SSD size, in data chunks
  double hit_ratio = 0.0;           // predicted tier hit ratio in [0, 1]
};

using TierFactory = std::function<SystemParams(const TierCandidate&)>;

struct TierPlanPoint {
  TierCandidate candidate;
  double percentile = 0.0;  // P[latency <= sla]; 0 when overloaded
  bool meets_target = false;
};

// Evaluates every candidate (fanned across PredictOptions::num_threads),
// returned in input order.  Must be thread-safe factory, as elsewhere.
std::vector<TierPlanPoint> tier_capacity_sweep(
    const TierFactory& factory, const std::vector<TierCandidate>& candidates,
    const SlaTarget& target, ModelOptions options = {},
    const PredictOptions& predict = {});

// "How much SSD buys p99 <= d?": the smallest-capacity candidate meeting
// the target, or nullopt when none does.  Ties on capacity resolve to
// the earliest candidate.
std::optional<TierPlanPoint> min_tier_capacity_for(
    const TierFactory& factory, const std::vector<TierCandidate>& candidates,
    const SlaTarget& target, ModelOptions options = {},
    const PredictOptions& predict = {});

}  // namespace cosm::core
