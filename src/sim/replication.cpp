#include "sim/replication.hpp"

#include <algorithm>
#include <bit>
#include <mutex>
#include <thread>

#include "common/parallel_for.hpp"
#include "common/require.hpp"

namespace cosm::sim {

namespace {

// SplitMix64 finalizer as an order-sensitive fold (the same construction
// the golden-trace test uses, kept self-contained on purpose).
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t z = h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

}  // namespace

std::shared_ptr<const cosm::ZipfSampler> detail::shared_popularity(
    std::uint64_t object_count, double zipf_skew) {
  static std::mutex mutex;
  static std::shared_ptr<const cosm::ZipfSampler> table;  // guarded by mutex
  const std::lock_guard<std::mutex> lock(mutex);
  if (table == nullptr || table->size() != object_count ||
      table->skew() != zipf_skew) {
    table.reset();
    table = std::make_shared<const cosm::ZipfSampler>(object_count, zipf_skew);
  }
  return table;
}

ReplicationResult detail::summarize_replication(const SimMetrics& metrics,
                                                std::uint64_t events,
                                                double wall_ms,
                                                bool streaming,
                                                std::uint64_t seed) {
  ReplicationResult result;
  result.engine_wall_ms = wall_ms;
  result.seed = seed;
  result.completed = metrics.completed_requests();
  result.timeouts = metrics.timeouts();
  result.failures = metrics.failures();
  result.events = events;
  result.latency_count = metrics.latency_count();
  result.moments = metrics.latency_moments();
  if (result.latency_count > 0) {
    result.q50 = metrics.latency_quantile(0.50);
    result.q99 = metrics.latency_quantile(0.99);
    result.q999 = metrics.latency_quantile(0.999);
  }

  std::uint64_t h = 0x243F6A8885A308D3ULL;
  if (streaming) {
    // No retained samples; the fingerprint folds everything streaming mode
    // observes.  Welford moments are order-sensitive in their float error,
    // so equal bits really do mean the same samples in the same order.
    h = mix(h, result.latency_count);
    if (result.latency_count > 0) {
      h = mix(h, bits(result.moments.mean()));
      h = mix(h, bits(result.moments.variance()));
      h = mix(h, bits(result.moments.min()));
      h = mix(h, bits(result.moments.max()));
    }
  } else {
    result.latencies.reserve(metrics.requests().size());
    for (const RequestSample& sample : metrics.requests()) {
      h = mix(h, bits(sample.response_latency));
      h = mix(h, bits(sample.frontend_arrival));
      h = mix(h, (static_cast<std::uint64_t>(sample.device) << 8) |
                     (sample.timed_out ? 2u : 0u) |
                     (sample.failed ? 1u : 0u));
      if (!sample.timed_out && !sample.failed) {
        result.latencies.push_back(sample.response_latency);
      }
    }
  }
  h = mix(h, result.completed);
  h = mix(h, result.timeouts);
  h = mix(h, result.failures);
  result.fingerprint = h;
  return result;
}

ReplicationSet run_replications(const ReplicationPlan& plan,
                                unsigned threads) {
  COSM_REQUIRE(!plan.seeds.empty(), "replication plan needs >= 1 seed");
  ReplicationSet set;
  set.replications.resize(plan.seeds.size());

  // Sharded replications spawn their own per-shard worker threads, so the
  // replication fan-out is narrowed to keep shards × replications near the
  // requested thread budget (threads == 0 means "the hardware").
  unsigned fanout = threads;
  const unsigned per_replication =
      plan.cluster.shards > 1 && plan.shard_threads != 1
          ? plan.cluster.shards
          : 1;
  if (per_replication > 1) {
    const unsigned budget =
        threads != 0 ? threads
                         : std::max(1u, std::thread::hardware_concurrency());
    fanout = std::max(1u, budget / per_replication);
  }

  // Fan out: slot-indexed writes only, no shared state between indices.
  cosm::parallel_for(plan.seeds.size(), fanout, [&](std::size_t i) {
    set.replications[i] = run_replication(plan, plan.seeds[i]);
  });

  // Reduce on the calling thread, in plan order — float merges happen in
  // a fixed sequence, so the set-level numbers cannot depend on which
  // thread finished first.
  std::uint64_t h = 0x243F6A8885A308D3ULL;
  for (const ReplicationResult& r : set.replications) {
    set.completed += r.completed;
    set.timeouts += r.timeouts;
    set.failures += r.failures;
    set.events += r.events;
    set.latency_count += r.latency_count;
    set.moments.merge(r.moments);
    h = mix(h, r.fingerprint);
  }
  set.fingerprint = h;
  return set;
}

}  // namespace cosm::sim
