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
#include "workload/arrivals.hpp"

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

// Per-shard seed lane: shard s derives cluster/placement/source seeds at
// base + 16s + {0, 2, 3}, so shard 0 reuses the unsharded derivation and
// lanes never collide for shards <= 64 (the validate() cap).  The object
// router takes the otherwise-unused +7 lane.
constexpr std::uint64_t kShardSeedStride = 16;
constexpr std::uint64_t kRouteSeedOffset = 7;

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

// One generated arrival, possibly crossing a shard boundary.  All RNG
// draws happen on the SENDER (one uniform_index for the replica pick plus
// an optional bernoulli for the write bit, mirroring
// OpenLoopSource::fire), but only the drawn index travels: the owner
// re-derives the replica list from its own ring at submission time, so
// the mailbox record stays a small POD and the submission callback fits
// EventCallback's inline storage.
struct ShardArrival {
  double submit_time = 0.0;   // t_gen + window, strictly beyond the fence
  std::uint64_t object_id = 0;
  std::uint32_t primary = 0;  // replica index drawn in the owner's ring
  bool multi = false;         // replica-list path vs single-device path
  bool is_write = false;
};

class ShardSource;

struct Shard {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<workload::Placement> placement;
};

struct ShardedRun {
  const ReplicationPlan* plan = nullptr;
  ShardTopology topo;
  double window = 0.0;
  double horizon = 0.0;
  std::uint64_t route_seed = 0;
  const workload::ObjectCatalog* catalog = nullptr;
  std::vector<Shard> shards;
  std::vector<std::unique_ptr<ShardSource>> sources;
  // Per-(sender, owner) SPSC mailboxes: the sender appends during its
  // window, the owner drains between the two barriers — the phases never
  // overlap, so plain vectors suffice.
  std::vector<std::vector<ShardArrival>> mailboxes;

  std::vector<ShardArrival>& mailbox(std::uint32_t sender,
                                     std::uint32_t owner) {
    return mailboxes[static_cast<std::size_t>(sender) * topo.shards + owner];
  }
};

// Executes one arrival on its owner: resolve the replica pick against the
// owner's ring (the sender only drew the index) and submit.  Runs at
// engine.now() == arrival.submit_time.
void submit_arrival(Cluster& cluster, const workload::Placement& placement,
                    const workload::ObjectCatalog& catalog,
                    const ShardArrival& arrival) {
  const std::uint64_t size = catalog.size_of(arrival.object_id);
  if (arrival.multi) {
    std::vector<std::uint32_t> replicas =
        placement.replicas_of(arrival.object_id);
    std::rotate(replicas.begin(),
                replicas.begin() + static_cast<std::ptrdiff_t>(
                                       arrival.primary),
                replicas.end());
    cluster.submit_request(arrival.object_id, size, std::move(replicas),
                           arrival.is_write);
  } else {
    const auto& ring = placement.replicas_of_partition(
        placement.partition_of(arrival.object_id));
    cluster.submit_request(arrival.object_id, size, ring[arrival.primary],
                           arrival.is_write);
  }
}

// Files an arrival on its owner's calendar: the mailbox drain injects
// (engine quiescent between windows), a shard-local arrival schedules
// mid-window like any other event.
void file_arrival(ShardedRun& run, std::uint32_t owner,
                  const ShardArrival& arrival, bool injected) {
  Cluster* cluster = run.shards[owner].cluster.get();
  const workload::Placement* placement = run.shards[owner].placement.get();
  const workload::ObjectCatalog* catalog = run.catalog;
  auto fire = [cluster, placement, catalog, arrival] {
    submit_arrival(*cluster, *placement, *catalog, arrival);
  };
  if (injected) {
    cluster->engine().inject_at_inline(arrival.submit_time, std::move(fire));
  } else {
    cluster->engine().schedule_at_inline(arrival.submit_time,
                                         std::move(fire));
  }
}

// Open-loop source of one shard: OpenLoopSource's phase walk at
// rate / shards (Poisson splitting: the shards' superposed arrival stream
// is the plan's full Poisson process; only Poisson arrivals shard this
// way, which is all ReplicationPlan generates).  Every arrival resolves
// its owner shard by object hash and is submitted one full window after
// its generation time — the dispatch delay that gives the conservative
// protocol its lookahead.
class ShardSource {
 public:
  ShardSource(ShardedRun& run, std::uint32_t shard, cosm::Rng rng)
      : run_(run),
        shard_(shard),
        segments_(workload::expand_phases(run.plan->phases)),
        rng_(rng),
        write_fraction_(run.plan->write_fraction) {
    COSM_REQUIRE(!segments_.empty(), "phase plan expands to no segments");
    for (auto& segment : segments_) segment.rate /= run.topo.shards;
    const ClusterConfig& config = run.plan->cluster;
    const bool redundancy =
        config.hedge_delay > 0.0 || config.fanout_n > 1 ||
        config.replica_choice != ClusterConfig::ReplicaChoice::kPrimary;
    multi_ = (config.max_retries > 0 && config.failover) || redundancy;
  }

  double horizon() const {
    const auto& last = segments_.back();
    return last.start_time + last.duration;
  }

  double benchmark_start_time() const {
    for (const auto& segment : segments_) {
      if (segment.is_benchmark) return segment.start_time;
    }
    return horizon();
  }

  void start() {
    double expected = 0.0;
    for (const auto& segment : segments_) {
      if (segment.is_benchmark) expected += segment.rate * segment.duration;
    }
    constexpr double kReserveCap = 1 << 24;
    run_.shards[shard_].cluster->metrics().reserve_request_samples(
        static_cast<std::size_t>(std::min(1.1 * expected, kReserveCap)));
    schedule_next(0, segments_.front().start_time);
  }

 private:
  void schedule_next(std::size_t segment_index, double time) {
    while (segment_index < segments_.size()) {
      const auto& segment = segments_[segment_index];
      const double gap = arrivals_.next_gap(segment.rate, rng_);
      const double at = std::max(time, segment.start_time) + gap;
      if (at < segment.start_time + segment.duration) {
        run_.shards[shard_].cluster->engine().schedule_at_inline(
            at, [this, segment_index, at] { fire(segment_index, at); });
        return;
      }
      ++segment_index;
      if (segment_index < segments_.size()) {
        time = segments_[segment_index].start_time;
      }
    }
  }

  void fire(std::size_t segment_index, double generated_at) {
    const workload::ObjectId object = run_.catalog->sample_object(rng_);
    const std::uint32_t owner =
        shard_of_object(object, run_.route_seed, run_.topo.shards);
    const workload::Placement& placement = *run_.shards[owner].placement;
    ShardArrival arrival;
    arrival.submit_time = generated_at + run_.window;
    arrival.object_id = object;
    arrival.multi = multi_;
    // One uniform_index draw either way, exactly like OpenLoopSource: the
    // primary rotation of the replica-list path and choose_replica's pick
    // both reduce to an index into the owner's replica ring.
    arrival.primary = static_cast<std::uint32_t>(
        rng_.uniform_index(placement.replica_count()));
    arrival.is_write =
        write_fraction_ > 0.0 && rng_.bernoulli(write_fraction_);
    if (owner == shard_) {
      file_arrival(run_, owner, arrival, /*injected=*/false);
    } else {
      run_.mailbox(shard_, owner).push_back(arrival);
    }
    schedule_next(segment_index, generated_at);
  }

  ShardedRun& run_;
  const std::uint32_t shard_;
  std::vector<workload::PhaseSegment> segments_;
  cosm::Rng rng_;
  workload::PoissonArrivals arrivals_;
  const double write_fraction_;
  bool multi_ = false;
};

// One window of one shard: run to the fence, with the obs window /
// empty-window (wasted lookahead) accounting gated so the disabled path
// reads no extra state.
void run_window(ShardedRun& run, std::uint32_t shard, double fence) {
  Engine& engine = run.shards[shard].cluster->engine();
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

// Drains every mailbox addressed to `owner` in sender order, injecting
// each arrival on the owner's calendar.  Runs between the two window
// barriers (or in the serial round-robin), so no sender is appending.
void drain_inbound(ShardedRun& run, std::uint32_t owner) {
  std::uint64_t delivered = 0;
  for (std::uint32_t sender = 0; sender < run.topo.shards; ++sender) {
    if (sender == owner) continue;
    std::vector<ShardArrival>& box = run.mailbox(sender, owner);
    for (const ShardArrival& arrival : box) {
      file_arrival(run, owner, arrival, /*injected=*/true);
    }
    delivered += box.size();
    box.clear();  // capacity retained for the next window
  }
  if (delivered != 0) {
    obs::add(obs::Counter::kSimShardCrossMessages, delivered);
  }
}

// SPMD body of one shard worker.  Every worker computes the identical
// fence sequence (pure double arithmetic from shared window/horizon), so
// the barriers line up without any coordinator thread.  After the final
// window no source can generate further cross-shard traffic — sources
// are the only producers and their last event precedes the horizon — so
// the post-loop drain is barrier-free.  noexcept: a worker that threw
// would leave the others spinning at the barrier forever, so an error
// inside a window terminates the process instead.
void run_shard_windows(ShardedRun& run, std::uint32_t shard,
                       SpinBarrier& barrier) noexcept {
  double fence = 0.0;
  while (fence < run.horizon) {
    fence = std::min(fence + run.window, run.horizon);
    run_window(run, shard, fence);
    barrier.arrive_and_wait();
    drain_inbound(run, shard);
    barrier.arrive_and_wait();
  }
  run.shards[shard].cluster->engine().run_all();
}

}  // namespace

ReplicationResult run_sharded_replication(const ReplicationPlan& plan,
                                          std::uint64_t seed) {
  obs::Span span("sim.sharded_replication");
  obs::add(obs::Counter::kSimReplications);
  COSM_REQUIRE(plan.cluster.shards > 1,
               "run_sharded_replication needs shards > 1");
  {
    // Trigger the sharding validations (lookahead, shard/device bounds)
    // on the base topology before any sub-config is derived.
    ClusterConfig base = plan.cluster;
    base.seed = seed;
    base.finalize();
  }

  ShardedRun run;
  run.plan = &plan;
  run.topo = ShardTopology::build(plan.cluster);
  run.window = shard_window_length(plan.cluster);
  run.route_seed = seed + kRouteSeedOffset;
  const std::uint32_t shards = run.topo.shards;

  COSM_REQUIRE(
      plan.placement.replica_count <= run.topo.min_devices(),
      "replica sets are shard-local: placement.replica_count must fit the "
      "smallest shard (floor(device_count / shards) devices); lower shards "
      "or replica_count");

  workload::CatalogConfig cat_config = plan.catalog;
  cat_config.seed = seed + 1;  // one global catalog, same lane as unsharded
  const workload::ObjectCatalog catalog(
      cat_config, detail::shared_popularity(cat_config.object_count,
                                            cat_config.zipf_skew));
  run.catalog = &catalog;

  run.shards.resize(shards);
  run.mailboxes.assign(static_cast<std::size_t>(shards) * shards, {});
  run.sources.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    ClusterConfig config = plan.cluster;
    config.shards = 1;
    config.shard_window = 0.0;
    config.device_count = run.topo.devices_of(s);
    config.frontend_processes = run.topo.frontends_of(s);
    config.seed = seed + kShardSeedStride * s;
    // Faults retarget to their owner shard's local device ids; network
    // jitter is cluster-wide and lands on every shard.  (Jitter mutates
    // the live network latency, which cannot break the lookahead: the
    // dispatch delay is the configured window, fixed before the run.)
    config.faults = FaultSchedule{};
    const std::uint32_t offset = run.topo.device_offset(s);
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
    run.shards[s].cluster = std::make_unique<Cluster>(std::move(config));
    if (plan.streaming) {
      run.shards[s].cluster->metrics().enable_streaming(
          plan.streaming_config);
    }

    workload::PlacementConfig placement_config = plan.placement;
    placement_config.device_count = run.topo.devices_of(s);
    placement_config.seed = seed + kShardSeedStride * s + 2;
    run.shards[s].placement =
        std::make_unique<workload::Placement>(placement_config);

    run.sources.push_back(std::make_unique<ShardSource>(
        run, s, cosm::Rng(seed + kShardSeedStride * s + 3)));
  }

  run.horizon = run.sources.front()->horizon();
  for (std::uint32_t s = 0; s < shards; ++s) {
    // Arrivals are submitted one window after generation, so the warmup
    // boundary shifts with them: a sample belongs to the benchmark phase
    // iff its generating draw did.
    run.shards[s].cluster->metrics().sample_start_time =
        run.sources[s]->benchmark_start_time() + run.window;
  }

  const auto loop_start = std::chrono::steady_clock::now();
  for (std::uint32_t s = 0; s < shards; ++s) run.sources[s]->start();
  if (plan.shard_threads == 1) {
    // Serial round-robin: the same windows, drains, and per-shard event
    // orders as the threaded path, interleaved on one thread — the
    // reference the bit-identity tests compare against.
    double fence = 0.0;
    while (fence < run.horizon) {
      fence = std::min(fence + run.window, run.horizon);
      for (std::uint32_t s = 0; s < shards; ++s) run_window(run, s, fence);
      for (std::uint32_t s = 0; s < shards; ++s) drain_inbound(run, s);
    }
    for (std::uint32_t s = 0; s < shards; ++s) {
      run.shards[s].cluster->engine().run_all();
    }
  } else {
    // One thread per shard (threads == shards): workers block at window
    // barriers, so no two shards may share a thread.
    SpinBarrier barrier(shards);
    cosm::parallel_for(shards, shards, [&](std::size_t s) {
      run_shard_windows(run, static_cast<std::uint32_t>(s), barrier);
    });
  }
  const auto loop_stop = std::chrono::steady_clock::now();

  // Reduce in shard order on the calling thread: deterministic merge
  // sequence, hence a deterministic fingerprint.
  SimMetrics merged(plan.cluster.device_count);
  if (plan.streaming) merged.enable_streaming(plan.streaming_config);
  std::uint64_t events = 0;
  for (std::uint32_t s = 0; s < shards; ++s) {
    merged.merge_from(run.shards[s].cluster->metrics(),
                      run.topo.device_offset(s));
    events += run.shards[s].cluster->engine().events_processed();
  }
  return detail::summarize_replication(
      merged, events,
      std::chrono::duration<double, std::milli>(loop_stop - loop_start)
          .count(),
      plan.streaming, seed);
}

}  // namespace cosm::sim
