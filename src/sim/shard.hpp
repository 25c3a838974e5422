// Sharded simulation: one topology partitioned into per-shard engines
// running on their own threads, synchronized conservatively in bounded
// time windows at the frontend boundary.
//
// A shard is a full single-threaded sub-Cluster (engine, pools, RNGs,
// metrics — nothing shared) owning a balanced contiguous range of the
// topology's backend devices and frontend processes.  Objects are routed
// to an owner shard by hash, each shard's placement ring is built over its
// own devices, and every replica set is therefore shard-local — retries,
// failover, hedges, and (n,k) fan-out reads never cross a shard boundary.
// The only cross-shard interaction is the open-loop arrival stream, and
// it crosses in exactly one direction.  Every shard runs an ordinary
// sim::OpenLoopSource at rate/shards (Poisson splitting: the superposition
// over shards is the plan's full Poisson process); the source's hand-off
// files each drawn arrival on its owner shard one window after the draw —
// on the shard's own calendar when it owns the object, else in the
// (sender, owner) mailbox.  The owner submits it with sim::submit_arrival,
// exactly as an unsharded source submits at once.  An unsharded
// replication (run_replication, defined in shard.cpp) is built by the same
// set-up as one shard owning the whole topology.
//
// Window protocol (the conservative synchronization):
//
//   fence_k = min(k * W, horizon), W = shard_window_length(config)
//
//   per window k, every shard:         between windows, every shard:
//     run_until(fence_k)  ──barrier──▶   drain inbound mailboxes,
//                                        filing arrivals at their
//                         ◀─barrier──    submit times (all > fence_k)
//
// Correctness rests on a lookahead the workload provides by construction:
// an arrival generated at t_gen (inside window k) is *submitted* at
// t_sub = t_gen + W, which lies strictly beyond fence_k — so when the
// owner drains its mailboxes at the barrier, every filed event is in
// that engine's future and the per-shard (time, seq) total order is a
// pure function of (local schedule order, sender-ordered drain order).
// Both are deterministic, hence the hard gate: bit-identical results for
// a fixed (shard count, seed set), threaded or serial.  The classical
// conservative lookahead here would be the frontend→backend floor
// (network_latency + frontend parse); dispatching arrivals one full
// window ahead decouples W from that floor — any W > 0 is correct, and
// since a time-shifted stationary Poisson stream is the same process,
// shifting the open-loop arrivals by W is statistically free (the phase
// plan's rate profile shifts by W ≪ segment durations).  Larger W only
// amortizes barrier cost; docs/ARCHITECTURE.md derives the default.
//
// What sharding does NOT preserve: results across *different* shard
// counts.  Arrival streams are split per shard, placement rings are
// per-shard, and objects are hash-routed, so a 4-shard run is a different
// (equally valid) sample of the same scenario than a 1-shard run — the
// two agree statistically (moments, quantiles), not bitwise.  The full
// story lives in docs/PERFORMANCE.md.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/replication.hpp"

namespace cosm::sim {

// Balanced contiguous partition of a topology's devices and frontends
// into config.shards ranges: shard s owns devices
// [device_offset(s), device_offset(s + 1)), earlier shards take the
// remainder devices.
struct ShardTopology {
  std::uint32_t shards = 1;
  std::vector<std::uint32_t> device_offsets;    // size shards + 1
  std::vector<std::uint32_t> frontend_offsets;  // size shards + 1

  static ShardTopology build(const ClusterConfig& config);

  std::uint32_t device_offset(std::uint32_t shard) const {
    return device_offsets[shard];
  }
  std::uint32_t devices_of(std::uint32_t shard) const {
    return device_offsets[shard + 1] - device_offsets[shard];
  }
  std::uint32_t frontends_of(std::uint32_t shard) const {
    return frontend_offsets[shard + 1] - frontend_offsets[shard];
  }
  // Smallest per-shard device count (the replica-set feasibility bound).
  std::uint32_t min_devices() const;
};

// The owner shard of an object: a SplitMix64 hash of (id ^ route_seed),
// reduced mod shards.  Deterministic, uniform over shards, and
// independent of the placement hash so per-shard rings stay unbiased.
std::uint32_t shard_of_object(std::uint64_t object_id,
                              std::uint64_t route_seed,
                              std::uint32_t shards);

// The synchronization window length: config.shard_window when set, else
// max(network_latency, 2.5 ms).  Any positive value is conservative-
// correct (see the protocol note above); the floor keeps the barrier
// count per simulated second small enough that synchronization cost
// cannot dominate window work.
double shard_window_length(const ClusterConfig& config);

// Runs one replication of the plan sharded plan.cluster.shards ways and
// merges the per-shard outputs (metrics via SimMetrics::merge_from in
// shard order, events summed) into a ReplicationResult with the same
// fingerprint scheme as the unsharded path.  plan.shard_threads picks the
// execution mode: 0 (default) = one dedicated thread per shard, 1 =
// serial round-robin on the calling thread — both produce bit-identical
// results, which tests/sim/test_shard.cpp pins.  Called automatically by
// run_replication when shards > 1.
ReplicationResult run_sharded_replication(const ReplicationPlan& plan,
                                          std::uint64_t seed);

}  // namespace cosm::sim
