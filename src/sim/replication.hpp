// Parallel replications: N independent simulation runs of one scenario,
// each under its own derived seed, fanned out over cosm::parallel_for.
//
// Every replication owns a full Cluster (engine, pools, RNGs — nothing
// shared), writes into its own pre-allocated result slot, and the
// reduction happens on the calling thread in seed order AFTER the fan-out
// returns.  Consequently the merged result is bit-identical for any
// thread count, including the inline serial path (threads == 1) —
// the property tests/sim/test_replication.cpp pins and the perf harness
// gates on.
//
// Seed derivation per replication follows the figure benches' run_point
// (cluster s, catalog s+1, placement s+2, source s+3; written once, in
// the set-up sim/shard.cpp shares between sharded and unsharded runs), so
// a single-seed plan reproduces exactly what a hand-rolled run produces.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "sim/config.hpp"
#include "sim/metrics.hpp"
#include "stats/summary.hpp"
#include "workload/catalog.hpp"
#include "workload/placement.hpp"
#include "workload/trace.hpp"

namespace cosm::sim {

struct ReplicationPlan {
  // Per-replication seeds (one replication per entry).  The seed fields
  // inside `cluster`, `catalog`, and `placement` are overridden by each
  // replication's derived seeds.
  std::vector<std::uint64_t> seeds;

  ClusterConfig cluster;
  workload::CatalogConfig catalog;
  workload::PlacementConfig placement;
  workload::PhasePlan phases;
  double write_fraction = 0.0;

  // Constant-memory latency accounting (long runs): per-request samples
  // are dropped, quantiles come from the log histogram.
  bool streaming = false;
  StreamingConfig streaming_config{};

  // Execution mode for sharded replications (cluster.shards > 1; ignored
  // otherwise): 0 = one thread per shard (the default; shard workers block
  // at window barriers, so each needs a thread of its own), 1 = serial
  // round-robin on the calling thread.  Both are bit-identical — the
  // serial path is the reference the threaded path is tested against.
  unsigned shard_threads = 0;
};

struct ReplicationResult {
  std::uint64_t seed = 0;
  std::uint64_t completed = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t failures = 0;
  std::uint64_t events = 0;  // engine events processed

  // Wall-clock milliseconds spent inside the event loop (source start
  // through drain) — excludes cluster/catalog/placement construction, so
  // throughput harnesses can report simulation speed rather than setup
  // speed.  Real time, not part of the deterministic output.
  double engine_wall_ms = 0.0;

  // Successful post-warmup latencies: moments always, raw samples only in
  // sampled mode.
  std::uint64_t latency_count = 0;
  stats::StreamingStats moments;
  std::vector<double> latencies;

  // Headline latency quantiles (seconds; 0 when no latencies landed).
  // Exact in sampled mode, within a histogram bucket in streaming mode.
  // Convenience outputs only — NOT folded into the fingerprint, so the
  // bit-identity gates stay pinned to the raw observable stream.
  double q50 = 0.0;
  double q99 = 0.0;
  double q999 = 0.0;

  // Order-sensitive 64-bit fold of the replication's observable output
  // (per-request samples in sampled mode; counters + moments in streaming
  // mode).  Equal fingerprints mean bit-identical runs.
  std::uint64_t fingerprint = 0;
};

struct ReplicationSet {
  // One entry per plan seed, in plan order regardless of thread count.
  std::vector<ReplicationResult> replications;

  // Reductions, merged in plan order on the calling thread.
  std::uint64_t completed = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t failures = 0;
  std::uint64_t events = 0;
  std::uint64_t latency_count = 0;
  stats::StreamingStats moments;
  // Fold of the per-replication fingerprints in plan order.
  std::uint64_t fingerprint = 0;
};

// Runs one replication to completion.  With plan.cluster.shards > 1 the
// run is dispatched to sim::run_sharded_replication (per-shard engines,
// conservative window synchronization — see sim/shard.hpp); otherwise it
// runs on the calling thread.
ReplicationResult run_replication(const ReplicationPlan& plan,
                                  std::uint64_t seed);

namespace detail {
// Shared result summary + fingerprint over a finished run's metrics (the
// unsharded path hands its cluster's metrics, the sharded path its merged
// metrics).  The fingerprint folds the observable output stream — per-
// request samples in sampled mode, counters + moments in streaming mode —
// so equal fingerprints mean bit-identical runs under either path.
ReplicationResult summarize_replication(const SimMetrics& metrics,
                                        std::uint64_t events,
                                        double wall_ms, bool streaming,
                                        std::uint64_t seed);

// The catalog's Zipf popularity table depends only on (object_count,
// zipf_skew), never on the seed, so replications share it through this
// memo.  It keeps the most recent key only: a new key releases the old
// table before building its own.  Thread-safe.
std::shared_ptr<const cosm::ZipfSampler> shared_popularity(
    std::uint64_t object_count, double zipf_skew);
}  // namespace detail

// Fans the plan's replications out over up to `threads` threads
// (1 = serial on the calling thread, 0 = hardware concurrency) and merges
// in plan order.  Bit-identical for every `threads` value.
ReplicationSet run_replications(const ReplicationPlan& plan,
                                unsigned threads);

}  // namespace cosm::sim
