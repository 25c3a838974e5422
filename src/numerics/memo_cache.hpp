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
// MemoCache<Key, Value> is one mutex over one exact LRU map:
//  * lookup/insert/erase/stats/clear are safe to call concurrently (the
//    what-if service shares one PredictionCache across request threads);
//  * capacity is a hard bound on resident entries; inserting past it
//    evicts the least-recently-used entry.
// Callers compute a missing value outside the cache (lookup, compute,
// insert): two threads missing on the same key may both compute, and the
// last insert wins, which is harmless exactly when cached values are
// deterministic functions of their key — the contract every caller here
// satisfies.
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
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

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
  // into an immediate eviction; reject it loudly instead).
  explicit MemoCache(std::size_t capacity) : capacity_(capacity) {
    if (capacity == 0) {
      throw std::invalid_argument("MemoCache capacity must be >= 1");
    }
  }

  // Returns the cached value and refreshes its recency, or nullopt.
  std::optional<Value> lookup(const Key& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    entries_.splice(entries_.begin(), entries_, it->second);
    return it->second->second;
  }

  // Inserts (or overwrites) key -> value, evicting the least recently
  // used entry when the cache is full.
  void insert(const Key& key, Value value) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      entries_.splice(entries_.begin(), entries_, it->second);
      return;
    }
    if (entries_.size() >= capacity_) {
      index_.erase(entries_.back().first);
      entries_.pop_back();
      ++evictions_;
    }
    entries_.emplace_front(key, std::move(value));
    index_[key] = entries_.begin();
  }

  // Removes `key` if resident; returns whether an entry was dropped.  The
  // targeted-invalidation primitive of the online calibration loop: a
  // re-fit makes a *known* set of fingerprints stale, so the loop erases
  // exactly those keys instead of clearing caches that other tenants are
  // still hitting.  Not counted as an eviction (evictions measure capacity
  // pressure; erasure is a correctness action).
  bool erase(const Key& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end()) return false;
    entries_.erase(it->second);
    index_.erase(it);
    return true;
  }

  CacheStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    CacheStats stats;
    stats.hits = hits_;
    stats.misses = misses_;
    stats.evictions = evictions_;
    stats.size = entries_.size();
    stats.capacity = capacity_;
    return stats;
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    index_.clear();
    hits_ = misses_ = evictions_ = 0;
  }

 private:
  // front = most recently used.
  using EntryList = std::list<std::pair<Key, Value>>;

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  EntryList entries_;
  std::unordered_map<Key, typename EntryList::iterator, Hash> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
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
