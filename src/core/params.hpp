// Model parameters — the inputs of Section III/IV.
//
// Two categories, as the paper classifies them (Sec. IV):
//  * device performance properties (benchmarked offline): the disk
//    service-time distributions per operation kind and the request-parsing
//    distributions;
//  * system online metrics (monitored): arrival rates, data-read rates,
//    and cache miss ratios.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "numerics/distribution.hpp"

namespace cosm::core {

struct PredictionCache;  // core/system_model.hpp

// Two-tier storage (tiering extension): the model-side mirror of the
// simulator's SSD cache tier (sim::TierConfig).  A data read that missed
// the page cache is served by the SSD with probability `hit_ratio` and
// by the capacity disk otherwise; the backend model composes the two as
// a numerics::TieredService mixture feeding the existing M/G/1/K device
// model.  Hit ratios are predicted from the Zipf catalog
// (calibration::predict_tier_hit_ratio) rather than measured.
// Derivation and validity limits: docs/TIERING.md.
struct TierOptions {
  bool enabled = false;
  // P(SSD serves a data read that missed the page cache), in [0, 1].
  double hit_ratio = 0.0;
  // SSD read service — the hit branch of the mixture.
  numerics::DistPtr read_service;
  // SSD install write service: with promote_on_read, every tier miss
  // pays an asynchronous SSD write that shares the SSD queue with the
  // blocking reads (it matters only in the N_be > 1 queue substitution).
  numerics::DistPtr write_service;
  bool promote_on_read = true;

  void validate() const;
};

// Everything the backend model needs for ONE storage device.
struct DeviceParams {
  // Request arrival rate r at this device (req/s).
  double arrival_rate = 0.0;
  // Data-read (chunk) arrival rate r_data >= r.
  double data_read_rate = 0.0;

  // Cache miss ratios m_index, m_meta, m_data.
  double index_miss_ratio = 0.0;
  double meta_miss_ratio = 0.0;
  double data_miss_ratio = 0.0;

  // Disk service-time distributions index_d, meta_d, data_d (Sec. IV-A;
  // Gamma on the paper's testbed).
  numerics::DistPtr index_disk;
  numerics::DistPtr meta_disk;
  numerics::DistPtr data_disk;

  // Request parsing at the backend (Degenerate on the paper's testbed).
  numerics::DistPtr backend_parse;

  // N_be: number of processes dedicated to this device.
  std::uint32_t processes = 1;

  // SSD cache tier in front of the disk (disabled reproduces the paper's
  // single-tier model exactly).
  TierOptions tier;

  void validate() const;
};

// One homogeneous group of frontend processes.  Sec. III-C: "the frontend
// tier of heterogeneous servers can be divided into several sets of
// homogeneous servers, and the distribution of queueing latencies can be
// calculated separately."
struct FrontendGroup {
  // Number of identical processes in this group.
  std::uint32_t processes = 1;
  // Fraction of system traffic routed to this group (weights over all
  // groups must sum to 1).
  double traffic_share = 1.0;
  numerics::DistPtr frontend_parse;
};

// Frontend-tier parameters (shared by all devices).  The common
// homogeneous case uses `processes` + `frontend_parse`; heterogeneous
// tiers list `groups` instead (leaving frontend_parse null).
struct FrontendParams {
  // Total request arrival rate at the frontend tier (req/s).
  double arrival_rate = 0.0;
  // N_fe: number of frontend processes (homogeneous case).
  std::uint32_t processes = 1;
  numerics::DistPtr frontend_parse;
  // Heterogeneous case: non-empty overrides the two fields above.
  std::vector<FrontendGroup> groups;

  void validate() const;
};

struct SystemParams {
  FrontendParams frontend;
  std::vector<DeviceParams> devices;

  void validate() const;
};

// Redundancy-aware response shaping (tail-tolerance extension): the
// model-side mirror of the simulator's hedged GETs and (n,k) fan-out
// reads.  Each device's single-attempt response S_fe keeps its own
// transform tape; the matching order statistic is applied on top, in the
// time domain, as a pointwise map of the tape's (F, f)
// (numerics::RedundancyWrap) under the independent-replica
// approximation; see docs/MODEL.md §10 for the math and its limits.
struct RedundancyOptions {
  enum class Mode {
    kNone,    // single attempt (the paper's model, the default)
    kHedge,   // second attempt after hedge_delay, first response wins
    kMinOfN,  // n concurrent attempts, first response wins
    kKthOfN,  // n coded attempts, k-th response completes
  };
  Mode mode = Mode::kNone;
  // Concurrent attempts for kMinOfN / kKthOfN (hedging always races 2).
  unsigned n = 2;
  // Responses required for kKthOfN (1 <= k <= n).
  unsigned k = 1;
  // Hedge deadline in seconds (kHedge only; must be > 0).
  double hedge_delay = 0.01;
  // Fork-join correction: blend the independent order statistic toward
  // the single-attempt tail by the backend utilization (busy queues are
  // exactly when concurrent attempts correlate).  Off = pure
  // independence, the optimistic bound.
  bool fork_join_correction = true;
};

// Model variants for the paper's baseline comparison (Sec. V-C) and the
// disk-queue extension.
struct ModelOptions {
  // false: the noWTA baseline (no waiting time for being accept()-ed).
  bool include_wta = true;
  // true: the ODOPR baseline ("One Disk Operation Per Request"): index
  // lookups, metadata reads and *extra* data reads all considered cache
  // hits; only the first data read may touch the disk.
  bool odopr = false;
  // How the N_be > 1 shared disk queue is solved.  The paper uses the
  // M/M/1/K substitution "for simplicity" and notes that any alternative
  // with a closed-form sojourn transform would do; kMG1K plugs in the
  // embedded-chain solution with exact state weights (see
  // queueing::MG1K::sojourn_time), removing the exponential-service
  // assumption the paper blames for S16's systematic error.
  enum class DiskQueue { kMM1K, kMG1K };
  DiskQueue disk_queue = DiskQueue::kMM1K;
  // Redundant-read response shaping (kNone reproduces the paper exactly).
  RedundancyOptions redundancy = {};
};

}  // namespace cosm::core
