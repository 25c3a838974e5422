// Keyed, size-bounded memoization for repeated expensive kernels.
//
// The prediction pipeline re-evaluates the same numerics constantly: a
// homogeneous cluster builds one backend model per *distinct* device
// parameter set but the serial pipeline rebuilds it per device; a
// percentile sweep inverts the same response transform at the same SLA
// for every identical device; what-if variants re-derive every component
// they did not change.  MemoCache lets callers reuse those results across
// devices, percentile points, and what-if variants, with hit/miss/eviction
// counters exposed for observability (bench/perf_pipeline reports them in
// BENCH_pipeline.json).
//
// MemoCache<Key, Value> is a lock-striped LRU map:
//  * lookup/insert/get_or_compute are safe to call concurrently;
//  * get_or_compute runs the compute callback *outside* the lock, so a
//    slow kernel never serializes other threads (two threads missing on
//    the same key may both compute — last insert wins, which is harmless
//    exactly when cached values are deterministic functions of their key,
//    the contract every caller here satisfies);
//  * capacity is a hard bound on resident entries; inserting past it
//    evicts the least-recently-used entry.
//
// Sharding.  The single constructor mutex was the bottleneck when many
// threads share one PredictionCache (the what-if service hits it from
// every tenant): `shards` > 1 splits the table into independently locked
// stripes selected by key hash.  Each stripe is an exact LRU over its own
// keys with its own slice of the capacity, so eviction is per-stripe
// (approximate global LRU) while hit/miss/eviction counters stay exact —
// they are summed over stripes under their locks.  The default of one
// shard preserves strict global LRU order; callers that need scalability
// over strict recency (PredictionCache) opt into more.
//
// Keys are compared with operator== (hash collisions inside the table are
// therefore handled exactly, not probabilistically).  Callers that fold a
// *composite* identity into a 64-bit key via hash_mix/fingerprint accept
// the usual 2^-64-per-pair fingerprint collision odds — see
// fingerprint(const Distribution&) below.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

namespace cosm::numerics {

class Distribution;

// Counter snapshot; all fields are totals since construction or clear().
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t size = 0;      // resident entries
  std::size_t capacity = 0;  // maximum resident entries

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                     : 0.0;
  }
};

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class MemoCache {
 public:
  // Capacity must be >= 1 (a zero-capacity cache would turn every insert
  // into an immediate eviction; reject it loudly instead).  `shards` is
  // clamped to [1, capacity] so every stripe owns at least one entry.
  explicit MemoCache(std::size_t capacity, std::size_t shards = 1) {
    if (capacity == 0) {
      throw std::invalid_argument("MemoCache capacity must be >= 1");
    }
    if (shards == 0) shards = 1;
    if (shards > capacity) shards = capacity;
    shards_.reserve(shards);
    // Distribute capacity exactly: the first (capacity % shards) stripes
    // take one extra entry, so stripe capacities sum to `capacity`.
    const std::size_t base = capacity / shards;
    const std::size_t extra = capacity % shards;
    for (std::size_t i = 0; i < shards; ++i) {
      shards_.push_back(std::make_unique<Shard>(base + (i < extra ? 1 : 0)));
    }
  }

  // Returns the cached value and refreshes its recency, or nullopt.
  std::optional<Value> lookup(const Key& key) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++shard.misses;
      return std::nullopt;
    }
    ++shard.hits;
    shard.entries.splice(shard.entries.begin(), shard.entries, it->second);
    return it->second->second;
  }

  // Inserts (or overwrites) key -> value, evicting the stripe's least
  // recently used entry when the stripe is full.
  void insert(const Key& key, Value value) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->second = std::move(value);
      shard.entries.splice(shard.entries.begin(), shard.entries, it->second);
      return;
    }
    if (shard.entries.size() >= shard.capacity) {
      shard.index.erase(shard.entries.back().first);
      shard.entries.pop_back();
      ++shard.evictions;
    }
    shard.entries.emplace_front(key, std::move(value));
    shard.index[key] = shard.entries.begin();
  }

  // lookup(); on miss, runs compute() outside the lock and inserts the
  // result.  `compute` must be a deterministic function of `key`.
  template <typename F>
  Value get_or_compute(const Key& key, F&& compute) {
    if (auto cached = lookup(key)) return std::move(*cached);
    Value value = std::forward<F>(compute)();
    insert(key, value);
    return value;
  }

  // Removes `key` if resident; returns whether an entry was dropped.  The
  // targeted-invalidation primitive of the online calibration loop: a
  // re-fit makes a *known* set of fingerprints stale, so the loop erases
  // exactly those keys instead of clearing caches that other tenants are
  // still hitting.  Not counted as an eviction (evictions measure capacity
  // pressure; erasure is a correctness action).
  bool erase(const Key& key) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it == shard.index.end()) return false;
    shard.entries.erase(it->second);
    shard.index.erase(it);
    return true;
  }

  CacheStats stats() const {
    CacheStats total;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      total.hits += shard->hits;
      total.misses += shard->misses;
      total.evictions += shard->evictions;
      total.size += shard->entries.size();
      total.capacity += shard->capacity;
    }
    return total;
  }

  void clear() {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      shard->entries.clear();
      shard->index.clear();
      shard->hits = shard->misses = shard->evictions = 0;
    }
  }

  std::size_t shard_count() const { return shards_.size(); }

 private:
  // front = most recently used.
  using EntryList = std::list<std::pair<Key, Value>>;

  struct Shard {
    explicit Shard(std::size_t cap) : capacity(cap) {}
    mutable std::mutex mutex;
    EntryList entries;
    std::unordered_map<Key, typename EntryList::iterator, Hash> index;
    std::size_t capacity;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  Shard& shard_for(const Key& key) {
    if (shards_.size() == 1) return *shards_.front();
    // Spread the raw hash before reducing: std::hash<uint64_t> is the
    // identity on libstdc++, and MemoCache keys are often fingerprints
    // whose low bits alone would stripe unevenly.
    std::uint64_t h = static_cast<std::uint64_t>(Hash{}(key));
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return *shards_[h % shards_.size()];
  }

  // unique_ptr keeps Shard (with its mutex) immovable while the vector
  // itself stays constructible; the shard set is fixed after construction.
  std::vector<std::unique_ptr<Shard>> shards_;
};

// ------------------------- key fingerprinting ----------------------------

// Order-sensitive 64-bit mixing (splitmix64 core), for folding composite
// identities — parameter sets, (distribution, SLA point) pairs — into
// MemoCache keys.  Doubles are mixed by IEEE-754 bit pattern, so keys are
// exact: two parameter sets collide only if every field is bit-equal (or
// with ~2^-64 fingerprint-collision probability otherwise).
std::uint64_t hash_mix(std::uint64_t seed, std::uint64_t value);
std::uint64_t hash_mix(std::uint64_t seed, double value);

// Value-based fingerprint of a distribution: hashes its name, moments,
// and Laplace-transform probes at fixed contour points, so two separately
// constructed but identically parameterized distributions (e.g. the same
// Gamma built twice) fingerprint equal — the property that lets identical
// devices share cached work.
//
// Memoized per object: the first call stores the hash in the object (one
// relaxed atomic, safe under concurrent callers) and later calls return
// it, bit-identical to a fresh computation.  Precondition: the
// distribution is immutable (distribution.hpp) — a value that changed
// after the first call would keep its stale fingerprint.  A copy starts
// without a memo and assignment drops it, so both recompute from the
// value they now hold.
std::uint64_t fingerprint(const Distribution& dist);

}  // namespace cosm::numerics
