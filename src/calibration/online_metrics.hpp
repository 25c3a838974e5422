// Section IV-B: "System online metrics".
//
// In production, the model's online inputs come from monitoring, not from
// simulator internals:
//  * arrival and data-read rates — request/chunk counting;
//  * cache miss ratios — a latency threshold separates memory hits from
//    disk misses ("thanks to the huge speed gap between memory and disk";
//    the paper uses 0.015 ms);
//  * per-kind mean disk service times — Linux only reports one aggregate
//    disk service time, so the paper splits it using the service-time
//    proportions measured offline (Sec. IV-A) by solving
//        b_i/p_i = b_m/p_m = b_d/p_d
//        m_i b_i r + m_m b_m r + m_d b_d r_d = (m_i r + m_m r + m_d r_d) b.
//
// This module implements those estimators, plus a builder that assembles
// core::DeviceParams from simulator measurements the way an operator
// would from monitoring data.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "calibration/disk_benchmark.hpp"
#include "core/params.hpp"
#include "sim/metrics.hpp"

namespace cosm::calibration {

// Fraction of operation latencies above the hit/miss threshold (seconds).
// The paper's threshold is 0.015 ms.
double estimate_miss_ratio(std::span<const double> operation_latencies,
                           double threshold = 0.015e-3);

struct ServiceSplit {
  double index_mean = 0.0;
  double meta_mean = 0.0;
  double data_mean = 0.0;
};

// Solves the Sec. IV-B equations: given the offline proportions
// (p_i, p_m, p_d), the miss ratios, the rates (r, r_d) and the aggregate
// mean disk service time b, recover per-kind means.
ServiceSplit split_disk_service(double aggregate_mean_service,
                                double index_proportion,
                                double meta_proportion,
                                double data_proportion,
                                double index_miss_ratio,
                                double meta_miss_ratio,
                                double data_miss_ratio, double request_rate,
                                double data_read_rate);

struct DeviceObservation {
  double request_rate = 0.0;
  double data_read_rate = 0.0;
  double index_miss_ratio = 0.0;
  double meta_miss_ratio = 0.0;
  double data_miss_ratio = 0.0;
};

// Reads one device's online metrics out of a simulation run of duration
// `window` seconds (counts / window).
DeviceObservation observe_device(const sim::SimMetrics& metrics,
                                 std::uint32_t device, double window);

// One closed measurement window, derived from counter deltas between two
// snapshots of a device's counters (the calibration loop's unit of
// observation).
struct WindowObservation {
  DeviceObservation observation;
  // Aggregate mean disk service time over the window (all kinds pooled) —
  // the operator-visible `b` that split_disk_service consumes, and a
  // drift signal in its own right.
  double aggregate_mean_service = 0.0;
  std::uint64_t requests = 0;  // raw delta counts backing the estimates
  std::uint64_t disk_ops = 0;
};

// Windowed counterpart of observe_device: estimates one device's online
// metrics from the counter deltas `end - start` over `window` seconds.
//
// Insufficiency is an outcome, not an error: a window with fewer than
// `min_requests` requests or with no disk operation at all cannot support
// a trustworthy fit, so the function returns nullopt (callers count it
// under calib.insufficient_windows) instead of throwing the way the
// whole-run estimators do on misuse.
//
// Boundary skew: a window can close with fewer data reads than requests
// because chunk reads of requests admitted near the boundary land in the
// next window — a transient violation of the r_d >= r identity that
// split_disk_service rightly rejects.  observe_window clamps the window
// to r_d = r, counts the clamp under calib.window_skew, and carries the
// deficit in `*skew_carry` so the surplus reads arriving next window are
// not double-counted.  Pass the same carry slot (initialised to 0) across
// consecutive windows of one device.
std::optional<WindowObservation> observe_window(
    const sim::DeviceCounters& start, const sim::DeviceCounters& end,
    double window, std::uint64_t min_requests, double* skew_carry);

// Rescales a fitted distribution to a new mean, preserving its shape: for
// the Gamma winner this keeps k and scales the rate (the paper's "the
// proportion of b_i, b_m, b_d remains in the context of fluctuating disk
// service times").  A fitted distribution reporting non-positive variance
// (or mean) cannot form the coefficient of variation the generic fallback
// needs; such inputs route to Degenerate(new_mean) — counted under
// calib.refit.degenerate_rescale — instead of a fabricated near-zero-CV
// Gamma.  Precondition: new_mean > 0.
numerics::DistPtr rescale_to_mean(const numerics::DistPtr& fitted,
                                  double new_mean);

// Assembles model parameters for one device the way an operator would:
// online observation + offline disk calibration (fitted distributions are
// rescaled so their means satisfy the service-split equations; their
// shapes come from the offline fit, mirroring the paper's assumption that
// the *proportions* of service times persist).
core::DeviceParams build_device_params(
    const DeviceObservation& observation,
    const DiskCalibration& disk_calibration,
    numerics::DistPtr backend_parse, std::uint32_t processes,
    double aggregate_mean_service);

}  // namespace cosm::calibration
