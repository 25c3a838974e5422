#include "sim/shard.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <limits>
#include <memory>
#include <thread>
#include <utility>

#include "common/parallel_for.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "obs/obs.hpp"
#include "sim/cluster.hpp"
#include "sim/source.hpp"
#include "workload/catalog.hpp"
#include "workload/placement.hpp"

namespace cosm::sim {

ShardTopology ShardTopology::build(const ClusterConfig& config) {
  ShardTopology topo;
  topo.shards = config.shards;
  const auto split = [](std::uint32_t total, std::uint32_t parts) {
    std::vector<std::uint32_t> offsets(parts + 1, 0);
    const std::uint32_t base = total / parts;
    const std::uint32_t extra = total % parts;
    for (std::uint32_t s = 0; s < parts; ++s) {
      offsets[s + 1] = offsets[s] + base + (s < extra ? 1 : 0);
    }
    return offsets;
  };
  topo.device_offsets = split(config.device_count, config.shards);
  topo.frontend_offsets = split(config.frontend_processes, config.shards);
  return topo;
}

std::uint32_t ShardTopology::min_devices() const {
  std::uint32_t smallest = std::numeric_limits<std::uint32_t>::max();
  for (std::uint32_t s = 0; s < shards; ++s) {
    smallest = std::min(smallest, devices_of(s));
  }
  return smallest;
}

std::uint32_t shard_of_object(std::uint64_t object_id,
                              std::uint64_t route_seed,
                              std::uint32_t shards) {
  cosm::SplitMix64 mixer(object_id ^ route_seed);
  return static_cast<std::uint32_t>(mixer.next() % shards);
}

double shard_window_length(const ClusterConfig& config) {
  // 2.5 ms floor: at that width a simulated second costs 400 windows (800
  // barrier crossings), which profiling puts well under one window's event
  // work on the scaled scenarios — while still shifting the arrival
  // profile by an amount far below any phase segment duration.
  constexpr double kWindowFloor = 2.5e-3;
  if (config.shard_window > 0) return config.shard_window;
  return std::max(config.network_latency, kWindowFloor);
}

namespace {

// Seed lanes: shard s takes cluster seed + 16s, placement seed + 16s + 2
// and source seed + 16s + 3; the one catalog takes seed + 1 and the object
// router seed + 7.  Shard 0 therefore has the figure benches' run_point
// lanes (cluster s, catalog s+1, placement s+2, source s+3), and lanes
// never collide for shards <= 64 (the ClusterConfig::validate cap).
constexpr std::uint64_t kShardSeedStride = 16;
constexpr std::uint64_t kCatalogSeedOffset = 1;
constexpr std::uint64_t kPlacementSeedOffset = 2;
constexpr std::uint64_t kSourceSeedOffset = 3;
constexpr std::uint64_t kRouteSeedOffset = 7;

// One shard: a Cluster over its devices and frontends, its placement ring,
// and the source drawing its rate / shards share of the arrivals.
struct Shard {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<workload::Placement> placement;
  std::unique_ptr<OpenLoopSource> source;
};

// Everything one replication simulates; an unsharded plan is one shard.
struct ReplicationSetup {
  ShardTopology topo;
  std::unique_ptr<const workload::ObjectCatalog> catalog;  // one, global
  std::vector<Shard> shards;
};

// Builds a replication's shards on the seed lanes above.  A shard gets the
// faults of its own devices, renumbered to local ids, and every
// network-jitter event.
ReplicationSetup set_up_replication(const ReplicationPlan& plan,
                                    std::uint64_t seed) {
  {
    // Validate the whole topology (shard bounds, lookahead, fault targets)
    // before any per-shard config is derived from it.
    ClusterConfig base = plan.cluster;
    base.seed = seed;
    base.finalize();
  }
  ReplicationSetup setup;
  setup.topo = ShardTopology::build(plan.cluster);
  const std::uint32_t shards = setup.topo.shards;
  COSM_REQUIRE(plan.placement.device_count == plan.cluster.device_count,
               "placement and cluster disagree on device count");
  COSM_REQUIRE(
      plan.placement.replica_count <= setup.topo.min_devices(),
      "replica sets are shard-local: placement.replica_count must fit the "
      "smallest shard (floor(device_count / shards) devices); lower shards "
      "or replica_count");

  workload::CatalogConfig cat_config = plan.catalog;
  cat_config.seed = seed + kCatalogSeedOffset;
  setup.catalog = std::make_unique<const workload::ObjectCatalog>(
      cat_config,
      detail::shared_popularity(cat_config.object_count,
                                cat_config.zipf_skew));

  // Poisson splitting: each shard's source draws rate / shards, and the
  // shards' superposed streams are the plan's full Poisson process.
  std::vector<workload::PhaseSegment> segments =
      workload::expand_phases(plan.phases);
  for (workload::PhaseSegment& segment : segments) segment.rate /= shards;

  setup.shards.resize(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    const std::uint64_t lane = seed + kShardSeedStride * s;
    ClusterConfig config = plan.cluster;
    config.shards = 1;
    config.shard_window = 0.0;
    config.device_count = setup.topo.devices_of(s);
    config.frontend_processes = setup.topo.frontends_of(s);
    config.seed = lane;
    // Jitter mutates the live network latency, which cannot break the
    // lookahead: the dispatch delay is the configured window, fixed
    // before the run.
    config.faults = FaultSchedule{};
    const std::uint32_t offset = setup.topo.device_offset(s);
    for (const FaultEvent& event : plan.cluster.faults.events()) {
      if (event.kind == FaultKind::kNetworkJitter) {
        config.faults.add(event);
      } else if (event.device >= offset &&
                 event.device < offset + config.device_count) {
        FaultEvent local = event;
        local.device -= offset;
        config.faults.add(local);
      }
    }
    Shard& shard = setup.shards[s];
    shard.cluster = std::make_unique<Cluster>(std::move(config));
    if (plan.streaming) {
      shard.cluster->metrics().enable_streaming(plan.streaming_config);
    }

    workload::PlacementConfig placement_config = plan.placement;
    placement_config.device_count = setup.topo.devices_of(s);
    placement_config.seed = lane + kPlacementSeedOffset;
    shard.placement = std::make_unique<workload::Placement>(placement_config);

    shard.source = std::make_unique<OpenLoopSource>(
        *shard.cluster, *setup.catalog, *shard.placement, segments,
        cosm::Rng(lane + kSourceSeedOffset), plan.write_fraction);
  }
  return setup;
}

// Centralized barrier: counter + generation, acquire/release on the
// generation so everything a shard wrote before arriving (mailboxes, its
// engine state) is visible to every shard after release.  Bounded spin
// then yield — shard workers outnumbering cores (the CI case) must not
// burn a scheduling quantum busy-waiting.
class SpinBarrier {
 public:
  explicit SpinBarrier(std::uint32_t parties) : parties_(parties) {}

  void arrive_and_wait() {
    if (!obs::enabled()) {
      arrive();
      return;
    }
    const auto start = std::chrono::steady_clock::now();
    arrive();
    const auto stop = std::chrono::steady_clock::now();
    obs::add(obs::Counter::kSimShardBarrierNanos,
             static_cast<std::uint64_t>(
                 std::chrono::duration_cast<std::chrono::nanoseconds>(stop -
                                                                      start)
                     .count()));
  }

 private:
  void arrive() {
    const std::uint64_t gen = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      arrived_.store(0, std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_release);
    } else {
      int spins = 0;
      while (generation_.load(std::memory_order_acquire) == gen) {
        if (++spins >= 64) {
          std::this_thread::yield();
          spins = 0;
        }
      }
    }
  }

  const std::uint32_t parties_;
  std::atomic<std::uint32_t> arrived_{0};
  std::atomic<std::uint64_t> generation_{0};
};

struct ShardedRun;

// The hand-off context of one shard's source.
struct Sender {
  ShardedRun* run = nullptr;
  std::uint32_t shard = 0;
};

// Its sources and queued events hold pointers into it, so it never moves.
struct ShardedRun {
  ShardedRun() = default;
  ShardedRun(ShardedRun&&) = delete;

  ReplicationSetup setup;
  double window = 0.0;
  double horizon = 0.0;
  std::uint64_t route_seed = 0;
  std::vector<Sender> senders;
  // Per-(sender, owner) SPSC mailboxes: the sender appends during its
  // window, the owner drains between the two barriers — the phases never
  // overlap, so plain vectors suffice.
  std::vector<std::vector<Arrival>> mailboxes;

  std::uint32_t shards() const { return setup.topo.shards; }
  Engine& engine(std::uint32_t shard) {
    return setup.shards[shard].cluster->engine();
  }
  std::vector<Arrival>& mailbox(std::uint32_t sender, std::uint32_t owner) {
    return mailboxes[static_cast<std::size_t>(sender) * shards() + owner];
  }
};

// Files an arrival on its owner's calendar at arrival.time, where it runs
// submit_arrival against the owner's cluster and ring.
void file_arrival(ShardedRun& run, std::uint32_t owner,
                  const Arrival& arrival) {
  const Shard& shard = run.setup.shards[owner];
  Cluster* cluster = shard.cluster.get();
  const workload::Placement* placement = shard.placement.get();
  const workload::ObjectCatalog* catalog = run.setup.catalog.get();
  cluster->engine().schedule_at_inline(
      arrival.time, [cluster, placement, catalog, arrival] {
        submit_arrival(*cluster, *placement, *catalog, arrival);
      });
}

// The hand-off of every shard's OpenLoopSource.  A drawn arrival resolves
// its owner shard by object hash and is submitted one full window after
// its draw — the dispatch delay that gives the conservative protocol its
// lookahead.  A shard-local arrival is filed mid-window like any other
// event; a crossing one waits in the mailbox for the owner's drain.
void hand_off(void* context, const Arrival& drawn) {
  const Sender& sender = *static_cast<const Sender*>(context);
  ShardedRun& run = *sender.run;
  Arrival arrival = drawn;
  arrival.time += run.window;
  const std::uint32_t owner =
      shard_of_object(arrival.object_id, run.route_seed, run.shards());
  if (owner == sender.shard) {
    file_arrival(run, owner, arrival);
  } else {
    run.mailbox(sender.shard, owner).push_back(arrival);
  }
}

// One window of one shard: run to the fence, with the obs window /
// empty-window (wasted lookahead) accounting gated so the disabled path
// reads no extra state.
void run_window(ShardedRun& run, std::uint32_t shard, double fence) {
  Engine& engine = run.engine(shard);
  if (!obs::enabled()) {
    engine.run_until(fence);
    return;
  }
  const std::uint64_t before = engine.events_processed();
  engine.run_until(fence);
  obs::add(obs::Counter::kSimShardWindows);
  if (engine.events_processed() == before) {
    obs::add(obs::Counter::kSimShardEmptyWindows);
  }
}

// Drains every mailbox addressed to `owner` in sender order, filing each
// arrival on the owner's calendar.  This is the one place events enter an
// engine from outside its own event flow, and it is safe because:
//  - it runs on the thread driving the owner's engine, between the two
//    window barriers (or in the serial round-robin), so the engine is
//    quiescent and no sender is appending;
//  - every arrival lands strictly beyond the fence of the window just
//    run (it was drawn inside that window and shifted by a full window),
//    so it is in the engine's future;
//  - filing order assigns seq, so the owner's (time, seq) total order is
//    a pure function of (local schedule order, sender-ordered drain
//    order), both deterministic.
void drain_inbound(ShardedRun& run, std::uint32_t owner) {
  std::uint64_t delivered = 0;
  for (std::uint32_t sender = 0; sender < run.shards(); ++sender) {
    if (sender == owner) continue;
    std::vector<Arrival>& box = run.mailbox(sender, owner);
    for (const Arrival& arrival : box) file_arrival(run, owner, arrival);
    delivered += box.size();
    box.clear();  // capacity retained for the next window
  }
  if (delivered != 0) {
    obs::add(obs::Counter::kSimShardCrossMessages, delivered);
  }
}

// Runs shards [first, last) through every window, calling sync() after
// the window's events and again after its drains.  The threaded path runs
// one shard per worker with a barrier as sync (SPMD: every worker computes
// the identical fence sequence, pure double arithmetic from the shared
// window and horizon, so the barriers line up without a coordinator); the
// serial round-robin runs all shards on one thread with no sync, in the
// same per-shard event and drain orders.  After the final window no
// source can generate further cross-shard traffic — sources are the only
// producers and their last event precedes the horizon — so the closing
// run_all needs no drain.
template <typename Sync>
void run_windows(ShardedRun& run, std::uint32_t first, std::uint32_t last,
                 Sync&& sync) {
  double fence = 0.0;
  while (fence < run.horizon) {
    fence = std::min(fence + run.window, run.horizon);
    for (std::uint32_t s = first; s < last; ++s) run_window(run, s, fence);
    sync();
    for (std::uint32_t s = first; s < last; ++s) drain_inbound(run, s);
    sync();
  }
  for (std::uint32_t s = first; s < last; ++s) run.engine(s).run_all();
}

}  // namespace

ReplicationResult run_replication(const ReplicationPlan& plan,
                                  std::uint64_t seed) {
  if (plan.cluster.shards > 1) return run_sharded_replication(plan, seed);
  obs::Span span("sim.replication");
  obs::add(obs::Counter::kSimReplications);
  // One shard owning the whole topology: its source submits every arrival
  // at once on its own cluster.
  const ReplicationSetup setup = set_up_replication(plan, seed);
  Cluster& cluster = *setup.shards.front().cluster;
  OpenLoopSource& source = *setup.shards.front().source;
  cluster.metrics().sample_start_time = source.benchmark_start_time();
  const auto loop_start = std::chrono::steady_clock::now();
  source.start();
  cluster.engine().run_until(source.horizon());
  cluster.engine().run_all();
  const auto loop_stop = std::chrono::steady_clock::now();

  return detail::summarize_replication(
      cluster.metrics(), cluster.engine().events_processed(),
      std::chrono::duration<double, std::milli>(loop_stop - loop_start)
          .count(),
      plan.streaming, seed);
}

ReplicationResult run_sharded_replication(const ReplicationPlan& plan,
                                          std::uint64_t seed) {
  obs::Span span("sim.sharded_replication");
  obs::add(obs::Counter::kSimReplications);
  COSM_REQUIRE(plan.cluster.shards > 1,
               "run_sharded_replication needs shards > 1");

  ShardedRun run;
  run.setup = set_up_replication(plan, seed);
  run.window = shard_window_length(plan.cluster);
  run.route_seed = seed + kRouteSeedOffset;
  const std::uint32_t shards = run.shards();
  run.mailboxes.assign(static_cast<std::size_t>(shards) * shards, {});
  run.senders.resize(shards);
  run.horizon = run.setup.shards.front().source->horizon();
  for (std::uint32_t s = 0; s < shards; ++s) {
    const Shard& shard = run.setup.shards[s];
    run.senders[s] = Sender{&run, s};
    detail::hand_off_arrivals(*shard.source, hand_off, &run.senders[s]);
    // Arrivals are submitted one window after their draw, so the warmup
    // boundary shifts with them: a sample belongs to the benchmark phase
    // iff its draw did.
    shard.cluster->metrics().sample_start_time =
        shard.source->benchmark_start_time() + run.window;
  }

  const auto loop_start = std::chrono::steady_clock::now();
  for (const Shard& shard : run.setup.shards) shard.source->start();
  if (plan.shard_threads == 1) {
    // Serial round-robin: the reference the bit-identity tests compare
    // the threaded path against.
    run_windows(run, 0, shards, [] {});
  } else {
    // One thread per shard (threads == shards): workers block at window
    // barriers, so no two shards may share a thread.  noexcept: a worker
    // that threw would leave the others spinning at the barrier forever,
    // so an error inside a window terminates the process instead.
    SpinBarrier barrier(shards);
    cosm::parallel_for(shards, shards, [&](std::size_t s) noexcept {
      const auto shard = static_cast<std::uint32_t>(s);
      run_windows(run, shard, shard + 1, [&] { barrier.arrive_and_wait(); });
    });
  }
  const auto loop_stop = std::chrono::steady_clock::now();

  // Reduce in shard order on the calling thread: deterministic merge
  // sequence, hence a deterministic fingerprint.
  SimMetrics merged(plan.cluster.device_count);
  if (plan.streaming) merged.enable_streaming(plan.streaming_config);
  std::uint64_t events = 0;
  for (std::uint32_t s = 0; s < shards; ++s) {
    merged.merge_from(run.setup.shards[s].cluster->metrics(),
                      run.setup.topo.device_offset(s));
    events += run.engine(s).events_processed();
  }
  return detail::summarize_replication(
      merged, events,
      std::chrono::duration<double, std::milli>(loop_stop - loop_start)
          .count(),
      plan.streaming, seed);
}

}  // namespace cosm::sim
