#include "sim/cluster.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"
#include "obs/obs.hpp"

namespace cosm::sim {

void ClusterConfig::validate() const {
  COSM_REQUIRE(frontend_processes >= 1, "frontend_processes must be >= 1");
  COSM_REQUIRE(device_count >= 1, "device_count must be >= 1");
  COSM_REQUIRE(processes_per_device >= 1,
               "processes_per_device must be >= 1");
  COSM_REQUIRE(chunk_bytes > 0, "chunk_bytes must be positive");
  COSM_REQUIRE(std::isfinite(accept_cost) && accept_cost >= 0,
               "accept_cost must be finite and non-negative");
  COSM_REQUIRE(std::isfinite(network_latency) && network_latency >= 0,
               "network_latency must be finite and non-negative");
  COSM_REQUIRE(std::isfinite(network_bandwidth_bytes_per_sec) &&
                   network_bandwidth_bytes_per_sec > 0,
               "network_bandwidth_bytes_per_sec must be finite and positive");
  COSM_REQUIRE(std::isfinite(request_timeout) && request_timeout >= 0,
               "request_timeout must be finite and non-negative");
  COSM_REQUIRE(max_retries == 0 || request_timeout > 0 || !faults.empty(),
               "max_retries without a request_timeout or faults never fires");
  COSM_REQUIRE(std::isfinite(retry_backoff_base) && retry_backoff_base >= 0,
               "retry_backoff_base must be finite and non-negative");
  COSM_REQUIRE(std::isfinite(retry_backoff_cap) && retry_backoff_cap >= 0,
               "retry_backoff_cap must be finite and non-negative");
  COSM_REQUIRE(std::isfinite(retry_jitter) && retry_jitter >= 0.0 &&
                   retry_jitter <= 1.0,
               "retry_jitter must be in [0, 1]");
  COSM_REQUIRE(std::isfinite(hedge_delay) && hedge_delay >= 0,
               "hedge_delay must be finite and non-negative");
  COSM_REQUIRE(hedge_delay == 0.0 || hedge_max >= 1,
               "hedge_max must be >= 1 when hedging is enabled");
  COSM_REQUIRE(fanout_n <= 1 || (fanout_k >= 1 && fanout_k <= fanout_n),
               "fanout_k must be in [1, fanout_n]");
  COSM_REQUIRE(fanout_n <= 1 || hedge_delay == 0.0,
               "fanout reads and hedged requests are mutually exclusive");
  const auto ratio_ok = [](double r) {
    return std::isfinite(r) && r >= 0.0 && r <= 1.0;
  };
  COSM_REQUIRE(ratio_ok(cache.index_miss_ratio),
               "cache.index_miss_ratio must be in [0, 1]");
  COSM_REQUIRE(ratio_ok(cache.meta_miss_ratio),
               "cache.meta_miss_ratio must be in [0, 1]");
  COSM_REQUIRE(ratio_ok(cache.data_miss_ratio),
               "cache.data_miss_ratio must be in [0, 1]");
  if (tier.enabled) {
    COSM_REQUIRE(tier.capacity_chunks >= 1,
                 "tier.capacity_chunks must be >= 1 when the tier is on");
  }
  COSM_REQUIRE(shards >= 1, "shards must be >= 1");
  // 64 keeps the per-shard seed stride (16 per shard, sim/shard.hpp) clear
  // of the per-replication stride (1000, sim/replication.cpp).
  COSM_REQUIRE(shards <= 64, "shards must be <= 64");
  COSM_REQUIRE(std::isfinite(shard_window) && shard_window >= 0,
               "shard_window must be finite and non-negative");
  if (shards > 1) {
    COSM_REQUIRE(device_count >= shards,
                 "shards must not exceed device_count: every shard needs at "
                 "least one backend device (lower shards or add devices)");
    COSM_REQUIRE(frontend_processes >= shards,
                 "shards must not exceed frontend_processes: every shard "
                 "needs at least one frontend (lower shards or add "
                 "frontends)");
    // Conservative synchronization needs a positive lookahead: the
    // frontend->backend network hop is the natural floor, and shard_window
    // can widen it.  With both zero, no window length is safe.
    COSM_REQUIRE(network_latency > 0 || shard_window > 0,
                 "sharded runs need a positive lookahead: set "
                 "network_latency > 0 or an explicit shard_window > 0");
  }
  faults.validate(device_count, processes_per_device);
}

void ClusterConfig::finalize() {
  if (!frontend_parse) {
    frontend_parse = std::make_shared<numerics::Degenerate>(0.8e-3);
  }
  if (!backend_parse) {
    backend_parse = std::make_shared<numerics::Degenerate>(0.5e-3);
  }
  if (!disk.index_service || !disk.meta_service || !disk.data_service) {
    disk = default_hdd_profile();
  }
  if (tier.enabled && (!tier.read_service || !tier.write_service)) {
    const DiskProfile ssd = default_ssd_profile();
    if (!tier.read_service) tier.read_service = ssd.data_service;
    if (!tier.write_service) tier.write_service = ssd.write_service;
  }
  validate();
}

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)),
      metrics_((config_.finalize(), config_.device_count)),
      rng_(config_.seed) {
  // A Cluster is one shard's worth of simulation — the sharded coordinator
  // (sim/shard.hpp) builds one Cluster per shard from a derived config.
  COSM_REQUIRE(config_.shards == 1,
               "Cluster simulates a single shard; shards > 1 runs go "
               "through sim::run_sharded_replication (see sim/shard.hpp)");
  outstanding_.assign(config_.device_count, 0);
  devices_.reserve(config_.device_count);
  for (std::uint32_t d = 0; d < config_.device_count; ++d) {
    devices_.push_back(std::make_unique<BackendDevice>(
        engine_, config_, metrics_, d, rng_));
    devices_.back()->set_response_started_callback(
        [this](const RequestPtr& req) { on_response_started(req); });
    devices_.back()->set_request_failed_callback(
        [this](const RequestPtr& req) { on_attempt_failed(req); });
  }
  frontends_.reserve(config_.frontend_processes);
  for (std::uint32_t f = 0; f < config_.frontend_processes; ++f) {
    frontends_.push_back(std::make_unique<FrontendProcess>(
        engine_, config_,
        [this](RequestPtr req) {
          devices_[req->device]->connection_arrived(std::move(req));
        },
        rng_.fork()));
  }
  arm_faults();
}

void Cluster::arm_faults() {
  for (const FaultEvent& event : config_.faults.events()) {
    engine_.schedule_at(event.start,
                        [this, event] { apply_fault(event, true); });
    engine_.schedule_at(event.start + event.duration,
                        [this, event] { apply_fault(event, false); });
  }
}

void Cluster::apply_fault(const FaultEvent& event, bool begin) {
  BackendDevice& dev = *devices_[event.device];
  switch (event.kind) {
    case FaultKind::kDiskSlowdown:
      // Multiplicative so overlapping slowdown windows compose and each
      // window's end restores exactly what its start applied.
      dev.disk().set_degradation(begin
                                     ? dev.disk().degradation() * event.factor
                                     : dev.disk().degradation() / event.factor);
      break;
    case FaultKind::kDeviceOutage:
      dev.set_online(!begin);
      break;
    case FaultKind::kProcessCrash:
      if (begin) {
        dev.crash_processes(event.processes);
      } else {
        dev.restart_processes(event.processes);
      }
      break;
    case FaultKind::kNetworkJitter:
      config_.network_latency = begin ? config_.network_latency * event.factor
                                      : config_.network_latency / event.factor;
      break;
  }
}

void Cluster::submit_request(std::uint64_t object_id,
                             std::uint64_t size_bytes,
                             std::uint32_t device, bool is_write) {
  COSM_REQUIRE(device < devices_.size(), "device id out of range");
  RequestPtr req = pool_.acquire();
  // Single-replica fast path: push into the pooled request's (cleared but
  // capacity-retaining) replica vector instead of materializing a fresh
  // one-element vector per arrival.
  req->replicas.push_back(device);
  submit_acquired(std::move(req), object_id, size_bytes, is_write);
}

void Cluster::submit_request(std::uint64_t object_id,
                             std::uint64_t size_bytes,
                             std::span<const std::uint32_t> ring,
                             std::size_t primary, bool is_write) {
  COSM_REQUIRE(primary < ring.size(), "primary must index the replica ring");
  for (std::uint32_t device : ring) {
    COSM_REQUIRE(device < devices_.size(), "device id out of range");
  }
  RequestPtr req = pool_.acquire();
  // Rotate into the pooled (cleared, capacity-retaining) vector.
  const auto first = ring.begin() + static_cast<std::ptrdiff_t>(primary);
  req->replicas.assign(first, ring.end());
  req->replicas.insert(req->replicas.end(), ring.begin(), first);
  submit_acquired(std::move(req), object_id, size_bytes, is_write);
}

void Cluster::submit_acquired(RequestPtr req, std::uint64_t object_id,
                              std::uint64_t size_bytes, bool is_write) {
  req->id = next_request_id_++;
  req->is_write = is_write;
  req->object_id = object_id;
  req->size_bytes = size_bytes;
  req->device = req->replicas.front();
  req->original_arrival = engine_.now();
  req->chunks_total = static_cast<std::uint32_t>(std::max<std::uint64_t>(
      1, (size_bytes + config_.chunk_bytes - 1) / config_.chunk_bytes));
  // Redundancy applies to multi-replica reads only; writes and
  // single-replica requests keep the legacy path bit-for-bit.
  if (!req->is_write && req->replicas.size() > 1) {
    if (config_.fanout_n > 1) {
      submit_fanout(std::move(req));
      return;
    }
    choose_first_replica(req);
    if (config_.hedge_delay > 0.0) {
      const std::uint32_t gid = acquire_group();
      FanoutGroup& g = group(gid);
      g.needed = 1;
      g.outstanding = 1;
      g.is_hedge = true;
      g.original_arrival = req->original_arrival;
      g.chunks_total = req->chunks_total;
      req->group_id = gid;
      arm_hedge_timer(gid, g.generation);
    }
  }
  dispatch_attempt(std::move(req));
}

void Cluster::choose_first_replica(const RequestPtr& req) {
  if (config_.replica_choice == ClusterConfig::ReplicaChoice::kPrimary) {
    return;
  }
  const auto& reps = req->replicas;
  std::size_t pick;
  if (config_.replica_choice ==
      ClusterConfig::ReplicaChoice::kLeastOutstanding) {
    pick = 0;
    for (std::size_t i = 1; i < reps.size(); ++i) {
      if (outstanding_[reps[i]] < outstanding_[reps[pick]]) pick = i;
    }
  } else {  // kPowerOfTwo
    const std::size_t a = rng_.uniform_index(reps.size());
    const std::size_t b = rng_.uniform_index(reps.size());
    pick = outstanding_[reps[b]] < outstanding_[reps[a]] ? b : a;
  }
  req->replica_index = static_cast<std::uint32_t>(pick);
  req->device = reps[pick];
}

void Cluster::submit_fanout(RequestPtr req) {
  const auto n = static_cast<std::uint32_t>(
      std::min<std::size_t>(config_.fanout_n, req->replicas.size()));
  const std::uint32_t k = std::min(config_.fanout_k, n);
  const std::uint32_t gid = acquire_group();
  FanoutGroup& g = group(gid);
  g.needed = k;
  g.outstanding = n;
  g.base_attempts = n;
  g.original_arrival = req->original_arrival;
  g.chunks_total = req->chunks_total;
  metrics_.on_fanout_group();
  // Every attempt fetches one coded chunk of ceil(size / k) bytes; any k
  // of the n responses reconstruct the object (FAST-CLOUD-style reads).
  const std::uint64_t coded_bytes =
      std::max<std::uint64_t>(1, (req->size_bytes + k - 1) / k);
  const auto coded_chunks = static_cast<std::uint32_t>(std::max<std::uint64_t>(
      1, (coded_bytes + config_.chunk_bytes - 1) / config_.chunk_bytes));
  req->group_id = gid;
  req->size_bytes = coded_bytes;
  req->chunks_total = coded_chunks;
  // Dispatch in replica order (primary first) — deterministic, and each
  // sibling is cloned from the primary before it goes out.
  dispatch_attempt(req);
  for (std::uint32_t i = 1; i < n; ++i) {
    RequestPtr sibling = pool_.acquire();
    sibling->id = next_request_id_++;
    sibling->object_id = req->object_id;
    sibling->size_bytes = coded_bytes;
    sibling->chunks_total = coded_chunks;
    sibling->replicas = req->replicas;  // copy reuses pooled capacity
    sibling->replica_index = i;
    sibling->device = sibling->replicas[i];
    sibling->original_arrival = g.original_arrival;
    sibling->group_id = gid;
    dispatch_attempt(std::move(sibling));
  }
}

void Cluster::arm_hedge_timer(std::uint32_t group_id,
                              std::uint64_t generation) {
  // Deliberately NOT the engine's monotone lane: that lane's ordering
  // contract belongs to the fixed request_timeout; hedge deadlines are a
  // second, different delay and would interleave non-monotonically.
  engine_.schedule_after_inline(
      config_.hedge_delay, [this, group_id, generation] {
        FanoutGroup& g = group_slabs_[group_id];
        // Generation mismatch = the group finished and its slot may
        // already coordinate a different request (pool-epoch discipline).
        if (g.generation != generation || g.done) return;
        issue_hedge(group_id);
        if (g.hedges_issued < config_.hedge_max) {
          arm_hedge_timer(group_id, generation);
        }
      });
}

void Cluster::issue_hedge(std::uint32_t group_id) {
  FanoutGroup& g = group_slabs_[group_id];
  COSM_CHECK(!g.attempts.empty(), "hedge group lost its primary attempt");
  const RequestPtr& origin = g.attempts.front();
  RequestPtr hedge = pool_.acquire();
  hedge->id = next_request_id_++;
  hedge->object_id = origin->object_id;
  hedge->size_bytes = origin->size_bytes;
  hedge->chunks_total = origin->chunks_total;
  hedge->replicas = origin->replicas;  // copy reuses pooled capacity
  hedge->original_arrival = g.original_arrival;
  hedge->group_id = group_id;
  hedge->is_hedge = true;
  const auto& reps = hedge->replicas;
  // Aim away from the primary: rotate one replica per hedge, or — with a
  // load-aware replica_choice — the least-loaded replica on another
  // device.
  std::size_t pick =
      (origin->replica_index + g.hedges_issued + 1) % reps.size();
  if (config_.replica_choice != ClusterConfig::ReplicaChoice::kPrimary) {
    for (std::size_t i = 0; i < reps.size(); ++i) {
      if (reps[i] == origin->device) continue;
      if (reps[pick] == origin->device ||
          outstanding_[reps[i]] < outstanding_[reps[pick]]) {
        pick = i;
      }
    }
  }
  hedge->replica_index = static_cast<std::uint32_t>(pick);
  hedge->device = reps[pick];
  ++g.hedges_issued;
  ++g.outstanding;
  metrics_.on_hedge_issued();
  dispatch_attempt(std::move(hedge));
}

void Cluster::dispatch_attempt(RequestPtr req) {
  if (req->group_id != kNoGroup) {
    FanoutGroup& g = group(req->group_id);
    if (g.done) {
      // A retry fired after its group already completed: the attempt is
      // cancelled before it ever reaches a frontend.  It was never
      // dispatched, so mark it settled without touching the per-device
      // outstanding count.
      req->cancelled = true;
      req->settled = true;
      metrics_.on_attempt_cancelled();
      group_chain_done(req->group_id);
      return;
    }
    ++g.attempts_total;
    if (req->failed_over_attempt) ++g.failovers_total;
    g.attempts.push_back(req);
  }
  metrics_.on_attempt(req->device, req->attempt > 0,
                      req->failed_over_attempt);
  ++outstanding_[req->device];
  const auto frontend = rng_.uniform_index(frontends_.size());
  // Arm the client-side timeout before handing the attempt over: if the
  // response has not started by then, the attempt is abandoned (the
  // backend's work continues and is wasted) and the cluster retries or
  // records the timeout.
  // now() + a fixed timeout is non-decreasing across dispatches, so the
  // standing population of armed timers qualifies for the engine's
  // monotone lane and stays out of every other event's heap sift path.
  // The timer holds a WeakRequestRef, not a strong one: a finished
  // attempt's slot recycles immediately, and the generation check makes
  // resurrecting a recycled slot impossible.
  if (config_.request_timeout > 0.0) {
    engine_.schedule_after_monotone_inline(
        config_.request_timeout, [this, watched = WeakRequestRef(req)] {
          const RequestPtr req = watched.lock();
          if (!req) return;  // attempt finished; slot already recycled
          if (!req->responded && !req->timed_out && !req->failed &&
              !req->cancelled) {
            req->timed_out = true;
            on_timeout(req);
          }
        });
  }
  frontends_[frontend]->accept_request(std::move(req));
}

double Cluster::backoff_delay(std::uint32_t attempt) {
  double delay = std::min(config_.retry_backoff_cap,
                          config_.retry_backoff_base * std::ldexp(1.0, attempt));
  // With jitter off (the default) no RNG draw happens and the delay is the
  // exact capped exponential — legacy runs stay bit-identical.  With
  // jitter j, the delay scales by a uniform factor in (1-j, 1], breaking
  // up the synchronized retry storm after a scripted outage while staying
  // bit-deterministic per seed.
  if (config_.retry_jitter > 0.0) {
    delay *= 1.0 - config_.retry_jitter * rng_.uniform();
  }
  return delay;
}

RequestPtr Cluster::make_retry_attempt(const RequestPtr& prev) {
  RequestPtr next = pool_.acquire();
  next->id = next_request_id_++;
  next->is_write = prev->is_write;
  next->object_id = prev->object_id;
  next->size_bytes = prev->size_bytes;
  next->chunks_total = prev->chunks_total;
  next->attempt = prev->attempt + 1;
  next->replicas = prev->replicas;
  next->replica_index = prev->replica_index;
  next->failover_count = prev->failover_count;
  next->original_arrival = prev->original_arrival;
  next->group_id = prev->group_id;
  next->is_hedge = prev->is_hedge;
  if (config_.failover && next->replicas.size() > 1) {
    next->replica_index =
        (prev->replica_index + 1) % next->replicas.size();
    next->failed_over_attempt = true;
    ++next->failover_count;
  }
  next->device = next->replicas[next->replica_index];
  return next;
}

void Cluster::settle_attempt(const RequestPtr& req) {
  if (req->settled) return;
  req->settled = true;
  --outstanding_[req->device];
}

void Cluster::retry_or_record(const RequestPtr& req) {
  settle_attempt(req);
  if (req->group_id != kNoGroup) {
    group_chain_failed(req);
    return;
  }
  if (req->attempt < config_.max_retries) {
    engine_.schedule_after_inline(
        backoff_delay(req->attempt),
        [this, next = make_retry_attempt(req)]() mutable {
          dispatch_attempt(std::move(next));
        });
    return;
  }
  // Retry budget spent (or retries disabled): the client gives up, and the
  // request completes as one timed-out / failed sample spanning all
  // attempts.
  RequestSample sample;
  sample.is_write = req->is_write;
  sample.timed_out = req->timed_out;
  sample.failed = req->failed;
  sample.retried = req->attempt > 0;
  sample.frontend_arrival = req->original_arrival;
  sample.response_latency = engine_.now() - req->original_arrival;
  sample.backend_latency = 0.0;
  sample.accept_wait =
      req->accept_time > 0 ? req->accept_time - req->pool_enter_time : 0.0;
  sample.device = req->device;
  sample.chunks = req->chunks_total;
  sample.attempts = req->attempt + 1;
  sample.failovers = req->failover_count;
  metrics_.on_request_complete(sample);
}

void Cluster::on_timeout(const RequestPtr& req) { retry_or_record(req); }

void Cluster::on_attempt_failed(const RequestPtr& req) {
  retry_or_record(req);
}

// ----- Fan-out / hedge group lifecycle -----

std::uint32_t Cluster::acquire_group() {
  if (!group_free_.empty()) {
    const std::uint32_t gid = group_free_.back();
    group_free_.pop_back();
    FanoutGroup& g = group_slabs_[gid];
    // Reset in place, preserving the recycle generation and the attempts
    // vector's capacity.
    g.needed = 1;
    g.responded = 0;
    g.outstanding = 0;
    g.hedges_issued = 0;
    g.base_attempts = 1;
    g.attempts_total = 0;
    g.failovers_total = 0;
    g.done = false;
    g.is_hedge = false;
    g.original_arrival = 0.0;
    g.chunks_total = 0;
    return gid;
  }
  group_slabs_.emplace_back();
  return static_cast<std::uint32_t>(group_slabs_.size() - 1);
}

void Cluster::release_group(std::uint32_t group_id) {
  FanoutGroup& g = group_slabs_[group_id];
  g.attempts.clear();
  ++g.generation;  // expire every timer still pointing at this slot
  group_free_.push_back(group_id);
}

void Cluster::group_chain_done(std::uint32_t group_id) {
  FanoutGroup& g = group_slabs_[group_id];
  COSM_CHECK(g.outstanding > 0, "fan-out group chain accounting underflow");
  --g.outstanding;
  if (g.outstanding == 0) release_group(group_id);
}

void Cluster::group_response(const RequestPtr& req) {
  const std::uint32_t gid = req->group_id;
  FanoutGroup& g = group(gid);
  if (g.done) {
    // The k-th response arrived elsewhere while this one was already on
    // the wire (responded before the cancel sweep could mark it).  Its
    // bytes are discarded by the client — pure wasted work.
    obs::add(obs::Counter::kSimCancelLateResponses);
    group_chain_done(gid);
    return;
  }
  ++g.responded;
  if (g.responded >= g.needed) {
    complete_group(gid, req);
  }
  group_chain_done(gid);
}

void Cluster::complete_group(std::uint32_t group_id,
                             const RequestPtr& winner) {
  FanoutGroup& g = group_slabs_[group_id];
  g.done = true;
  if (winner->is_hedge) metrics_.on_hedge_win();
  RequestSample sample;
  sample.is_write = winner->is_write;
  sample.retried = g.attempts_total > g.base_attempts + g.hedges_issued;
  sample.frontend_arrival = g.original_arrival;
  sample.response_latency = engine_.now() - g.original_arrival;
  sample.backend_latency = winner->respond_time - winner->backend_enqueue_time;
  sample.accept_wait = winner->accept_time - winner->pool_enter_time;
  sample.device = winner->device;
  sample.chunks = g.chunks_total;
  sample.attempts = g.attempts_total;
  sample.failovers = g.failovers_total;
  sample.hedges = g.hedges_issued;
  metrics_.on_request_complete(sample);
  // Cancel-on-first-complete: mark every losing live attempt; its queued
  // work unwinds at the next frontend/backend task boundary, and its
  // in-flight disk operation finishes as wasted work (as on real servers).
  for (const RequestPtr& attempt : g.attempts) {
    if (attempt == winner) continue;
    if (attempt->settled || attempt->responded || attempt->timed_out ||
        attempt->failed || attempt->cancelled) {
      continue;  // already terminal (or about to report its own response)
    }
    attempt->cancelled = true;
    settle_attempt(attempt);
    metrics_.on_attempt_cancelled();
    COSM_CHECK(g.outstanding > 1, "cancelled chain was not outstanding");
    --g.outstanding;
  }
  // Drop the group's strong refs; queued backend work keeps losers alive
  // exactly as long as something still processes them.
  g.attempts.clear();
}

void Cluster::record_group_failure(std::uint32_t group_id) {
  // Every chain died before k responses arrived: one failed/timed-out
  // sample for the whole group, spanning all its attempts.
  FanoutGroup& g = group_slabs_[group_id];
  g.done = true;
  bool timed_out = false;
  bool failed = false;
  std::uint32_t device = 0;
  for (const RequestPtr& attempt : g.attempts) {
    timed_out = timed_out || attempt->timed_out;
    failed = failed || attempt->failed;
    device = attempt->device;
  }
  RequestSample sample;
  sample.is_write = false;
  sample.timed_out = timed_out && !failed;
  sample.failed = failed;
  sample.retried = g.attempts_total > g.base_attempts + g.hedges_issued;
  sample.frontend_arrival = g.original_arrival;
  sample.response_latency = engine_.now() - g.original_arrival;
  sample.backend_latency = 0.0;
  sample.accept_wait = 0.0;
  sample.device = device;
  sample.chunks = g.chunks_total;
  sample.attempts = g.attempts_total;
  sample.failovers = g.failovers_total;
  sample.hedges = g.hedges_issued;
  metrics_.on_request_complete(sample);
  g.attempts.clear();
}

void Cluster::group_chain_failed(const RequestPtr& req) {
  const std::uint32_t gid = req->group_id;
  FanoutGroup& g = group(gid);
  if (g.done) {  // lost a race with completion; the chain just winds down
    group_chain_done(gid);
    return;
  }
  if (req->attempt < config_.max_retries) {
    // Per-chain retries stay within the group; the chain remains
    // outstanding while the backoff timer runs.
    engine_.schedule_after_inline(
        backoff_delay(req->attempt),
        [this, next = make_retry_attempt(req)]() mutable {
          dispatch_attempt(std::move(next));
        });
    return;
  }
  if (g.outstanding == 1) {
    // This was the last live chain and the group never reached k
    // responses: the logical request fails as a whole.
    record_group_failure(gid);
  }
  group_chain_done(gid);
}

BackendDevice& Cluster::device(std::uint32_t id) {
  COSM_REQUIRE(id < devices_.size(), "device id out of range");
  return *devices_[id];
}

FrontendProcess& Cluster::frontend(std::uint32_t id) {
  COSM_REQUIRE(id < frontends_.size(), "frontend id out of range");
  return *frontends_[id];
}

void Cluster::on_response_started(const RequestPtr& req) {
  if (req->timed_out || req->failed) return;  // abandoned; work was wasted
  if (req->cancelled) {
    // Cancelled after its response had already started queueing through
    // the device callback — counted with the other late arrivals.
    obs::add(obs::Counter::kSimCancelLateResponses);
    return;
  }
  settle_attempt(req);
  if (req->group_id != kNoGroup) {
    group_response(req);
    return;
  }
  RequestSample sample;
  sample.is_write = req->is_write;
  sample.retried = req->attempt > 0;
  sample.frontend_arrival = req->original_arrival;
  sample.response_latency = engine_.now() - req->original_arrival;
  sample.backend_latency = req->respond_time - req->backend_enqueue_time;
  sample.accept_wait = req->accept_time - req->pool_enter_time;
  sample.device = req->device;
  sample.chunks = req->chunks_total;
  sample.attempts = req->attempt + 1;
  sample.failovers = req->failover_count;
  metrics_.on_request_complete(sample);
}

}  // namespace cosm::sim
