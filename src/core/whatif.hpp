// What-if analyses (paper Sec. I): the three applications that motivate
// having an analytic model at all — capacity planning, overload control,
// and elastic storage — exposed as library functions over SystemModel so
// operators (and the example programs) don't re-derive the searches.
//
// The attainment contract.  Every what-if asks one question of one
// parameter set: "P[latency <= sla] for each SLA, or is it overloaded?",
// and attainment() is the one function that answers it.  On overload
// (the model's stability precondition violated) every entry is 0 and
// `overloaded` is true: an overloaded configuration certainly misses any
// SLA (the paper's "it is enough to know that the system does not
// perform well in such situations").  Invalid parameters still throw
// std::invalid_argument.  Under options.redundancy the answer is for the
// redundancy-inflated load (apply_redundancy_load; a hedge at its
// self-consistent fixed point).  Entry i of a multi-SLA call equals the
// one-SLA call attainment(params, {slas[i]}) bit for bit, and without
// redundancy it equals SystemModel::predict_sla_percentile(slas[i]).
// Every recommender below is a search over attainment(): a bisection
// (min_devices_for, max_admission_rate, elastic_schedule), an argmax
// (best_redundancy_policy) or a scan (min_tier_capacity_for).
//
// Execution: every search runs on the calling thread and takes a
// trailing PredictionCache* (nullptr: no caching).  Every model a search
// builds shares it, so repeated configurations (the same candidate device
// count at several periods, a bisection probe revisited) are built once.
// Results are bit-identical with and without a cache.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

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
// miss ratios, process counts) inside the factory.
using ClusterFactory =
    std::function<SystemParams(double total_rate, unsigned device_count)>;

// The attainment of one parameter set at every SLA bound (seconds).
struct Attainment {
  std::vector<double> percentiles;  // P[latency <= slas[i]]; 0 if overloaded
  bool overloaded = false;
};

// The one what-if primitive (see the contract above).  `params` is taken
// by value so a freshly built parameter set moves into the model.
// Preconditions: every sla > 0; valid options.redundancy.
Attainment attainment(SystemParams params, const std::vector<double>& slas,
                      ModelOptions options = {},
                      PredictionCache* cache = nullptr);

// Capacity planning: smallest device count in [min_devices, max_devices]
// whose attainment at target.sla reaches target.percentile at
// `total_rate`; nullopt if none does.
// Preconditions: factory non-null, 1 <= min_devices <= max_devices.
std::optional<unsigned> min_devices_for(const ClusterFactory& factory,
                                        double total_rate,
                                        const SlaTarget& target,
                                        unsigned min_devices,
                                        unsigned max_devices,
                                        ModelOptions options = {},
                                        PredictionCache* cache = nullptr);

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
                          PredictionCache* cache = nullptr);

// Elastic storage: per-period minimum active device counts for a workload
// curve (e.g. hourly rates); entries are nullopt where even max_devices
// misses the target.  One min_devices_for binary search per period.
std::vector<std::optional<unsigned>> elastic_schedule(
    const ClusterFactory& factory, const std::vector<double>& period_rates,
    const SlaTarget& target, unsigned max_devices,
    ModelOptions options = {}, PredictionCache* cache = nullptr);

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

// Applies the scenario to healthy parameters, returning the degraded set;
// attainment(degrade(healthy, scenario), slas) is the degraded what-if.
SystemParams degrade(const SystemParams& healthy,
                     const DegradedScenario& scenario);

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
// returning the redundancy-inflated parameter set.  attainment() applies
// it under options.redundancy; for a hedge, F(d) depends on the inflated
// load which depends on F(d), so it iterates the fixed point (a few
// rounds; the map is a contraction for stable systems).  Redundancy that
// saturates the cluster reads as overloaded: the "hurt" side.
SystemParams apply_redundancy_load(const SystemParams& healthy,
                                   const RedundancyOptions& redundancy,
                                   double cdf_at_delay = 0.0);

// Policy search: the candidate with the highest attainment at `sla`
// among those beating the single-attempt (kNone) baseline; ties resolve
// to the earliest candidate, and nullopt means no candidate beats the
// baseline.  Use candidates spanning hedge deadlines and redundancy
// degrees to search both axes against one SLA target.
struct RedundancyChoice {
  RedundancyOptions options;
  double percentile = 0.0;  // attainment at the target SLA
};

std::optional<RedundancyChoice> best_redundancy_policy(
    const SystemParams& healthy,
    const std::vector<RedundancyOptions>& candidates, double sla,
    ModelOptions options = {}, PredictionCache* cache = nullptr);

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
  double percentile = 0.0;  // attainment at target.sla
};

// "How much SSD buys p99 <= d?": a scan evaluating every candidate in
// input order, returning the smallest-capacity candidate meeting the
// target, or nullopt when none does.  Ties on capacity resolve to the
// earliest candidate.
std::optional<TierPlanPoint> min_tier_capacity_for(
    const TierFactory& factory, const std::vector<TierCandidate>& candidates,
    const SlaTarget& target, ModelOptions options = {},
    PredictionCache* cache = nullptr);

}  // namespace cosm::core
