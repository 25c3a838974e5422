// Open-loop workload source: the one generator of the simulator's arrival
// stream, sharded or not.
//
// Drives a Cluster with Poisson arrivals through a workload::PhasePlan
// without materializing the trace: each arrival event samples an object,
// draws the index of its primary replica (random, like Swift's proxy) and
// the write bit, hands the drawn Arrival on, and schedules the next
// arrival.  Open loop means arrivals never wait for completions — exactly
// the paper's modified-ssbench behaviour (Sec. V-A).
//
// Where a drawn arrival goes is the only thing that differs between
// callers.  By default it is submitted at once on the source's own cluster
// (submit_arrival).  A sharded run (sim/shard.hpp) gives every shard one
// source at rate / shards and hands each arrival off to its owner shard,
// which submits it one window later.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "sim/cluster.hpp"
#include "workload/arrivals.hpp"
#include "workload/catalog.hpp"
#include "workload/placement.hpp"
#include "workload/trace.hpp"

namespace cosm::sim {

// One drawn arrival.  Only the replica *index* is drawn; submit_arrival
// resolves it against the serving placement's ring, so the record is a
// small POD that fits a mailbox and an event capture.
struct Arrival {
  double time = 0.0;  // submission time (the draw time unless handed off)
  workload::ObjectId object_id = 0;
  std::uint32_t primary = 0;  // index into the object's replica ring
  bool is_write = false;
};

// Submits `arrival` on `cluster` now: the object's replica list rotated to
// start at the drawn primary when the cluster can use several replicas
// (failover retries, hedges, fan-out, replica choice), else the primary
// alone.  Both forms consume the same draws.
void submit_arrival(Cluster& cluster, const workload::Placement& placement,
                    const workload::ObjectCatalog& catalog,
                    const Arrival& arrival);

class OpenLoopSource;

namespace detail {
// Sends every arrival `source` draws to fn(context, arrival) instead of
// submitting it on the source's own cluster: the sharded runner's seam
// (sim/shard.cpp), one indirect call and no allocation per arrival.
using ArrivalHandOff = void (*)(void* context, const Arrival& arrival);
void hand_off_arrivals(OpenLoopSource& source, ArrivalHandOff fn,
                       void* context);
}  // namespace detail

class OpenLoopSource {
 public:
  // `arrivals` defaults to Poisson (the model's assumption); pass a
  // Deterministic or Mmpp process for sensitivity studies.
  OpenLoopSource(Cluster& cluster, const workload::ObjectCatalog& catalog,
                 const workload::Placement& placement,
                 const workload::PhasePlan& plan, cosm::Rng rng,
                 double write_fraction = 0.0,
                 workload::ArrivalProcessPtr arrivals = nullptr);

  // Segments-direct form, for rate shapes a PhasePlan cannot express
  // (workload::stepped_ramp_segments, flash_crowd_segments).  Segments
  // must be contiguous and in time order, as expand_phases produces them.
  OpenLoopSource(Cluster& cluster, const workload::ObjectCatalog& catalog,
                 const workload::Placement& placement,
                 std::vector<workload::PhaseSegment> segments, cosm::Rng rng,
                 double write_fraction = 0.0,
                 workload::ArrivalProcessPtr arrivals = nullptr);

  // Schedules the first arrival; the chain then sustains itself.  Call
  // before Engine::run_until.
  void start();

  std::uint64_t arrivals() const { return arrivals_; }
  std::uint64_t write_arrivals() const { return write_arrivals_; }
  // End of the last phase segment (the natural run horizon).
  double horizon() const;

  // The simulated time at which the benchmark phase begins (samples before
  // it are warmup; feed to SimMetrics::sample_start_time).
  double benchmark_start_time() const;

 private:
  friend void detail::hand_off_arrivals(OpenLoopSource&,
                                        detail::ArrivalHandOff, void*);

  void schedule_next(std::size_t segment_index, double time);
  void fire(std::size_t segment_index, double time);

  Cluster& cluster_;
  const workload::ObjectCatalog& catalog_;
  const workload::Placement& placement_;
  std::vector<workload::PhaseSegment> segments_;
  cosm::Rng rng_;
  double write_fraction_;
  workload::ArrivalProcessPtr arrival_process_;
  detail::ArrivalHandOff hand_off_ = nullptr;  // null: submit_arrival
  void* hand_off_context_ = nullptr;
  std::uint64_t arrivals_ = 0;
  std::uint64_t write_arrivals_ = 0;
};

// Replays a pre-materialized trace (e.g. read from CSV) against a cluster;
// returns the number of scheduled arrivals.  Each record's replica is
// chosen randomly among the placement's replicas.
std::uint64_t replay_trace(Cluster& cluster,
                           const std::vector<workload::TraceRecord>& trace,
                           const workload::Placement& placement,
                           cosm::Rng& rng);

}  // namespace cosm::sim
