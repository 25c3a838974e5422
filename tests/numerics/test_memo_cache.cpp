// MemoCache: LRU bookkeeping, exact collision handling, counters, and the
// value-fingerprint helpers the prediction cache keys on.
#include "numerics/memo_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "numerics/distribution.hpp"

namespace {

using cosm::numerics::CacheStats;
using cosm::numerics::MemoCache;

TEST(MemoCache, MissThenHitWithCounters) {
  MemoCache<int, std::string> cache(4);
  EXPECT_FALSE(cache.lookup(1).has_value());
  cache.insert(1, "one");
  const auto hit = cache.lookup(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "one");
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.capacity, 4u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(MemoCache, EvictsLeastRecentlyUsed) {
  MemoCache<int, int> cache(3);
  cache.insert(1, 10);
  cache.insert(2, 20);
  cache.insert(3, 30);
  // Touch 1 so 2 becomes the least recently used.
  EXPECT_TRUE(cache.lookup(1).has_value());
  cache.insert(4, 40);
  EXPECT_FALSE(cache.lookup(2).has_value());
  EXPECT_TRUE(cache.lookup(1).has_value());
  EXPECT_TRUE(cache.lookup(3).has_value());
  EXPECT_TRUE(cache.lookup(4).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().size, 3u);
}

TEST(MemoCache, OverwriteRefreshesRecencyWithoutEviction) {
  MemoCache<int, int> cache(2);
  cache.insert(1, 10);
  cache.insert(2, 20);
  cache.insert(1, 11);  // overwrite: 2 is now the LRU entry
  cache.insert(3, 30);
  EXPECT_FALSE(cache.lookup(2).has_value());
  const auto refreshed = cache.lookup(1);
  ASSERT_TRUE(refreshed.has_value());
  EXPECT_EQ(*refreshed, 11);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

// A pathological hash maps every key to one bucket: entries must still be
// distinguished exactly (operator==), only slower.
struct CollidingHash {
  std::size_t operator()(int) const { return 42; }
};

TEST(MemoCache, HashCollisionsResolvedExactly) {
  MemoCache<int, int, CollidingHash> cache(8);
  for (int k = 0; k < 8; ++k) cache.insert(k, k * 100);
  for (int k = 0; k < 8; ++k) {
    const auto value = cache.lookup(k);
    ASSERT_TRUE(value.has_value()) << "key " << k;
    EXPECT_EQ(*value, k * 100);
  }
  EXPECT_FALSE(cache.lookup(99).has_value());
}

TEST(MemoCache, ZeroCapacityRejected) {
  using Cache = MemoCache<int, int>;
  EXPECT_THROW(Cache cache(0), std::invalid_argument);
}

TEST(MemoCache, ClearResetsEntriesAndCounters) {
  MemoCache<int, int> cache(2);
  cache.insert(1, 10);
  (void)cache.lookup(1);
  (void)cache.lookup(2);
  cache.clear();
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.size, 0u);
  EXPECT_FALSE(cache.lookup(1).has_value());
}

TEST(MemoCache, ClearAfterFillingKeepsCapacity) {
  MemoCache<int, int> cache(32);
  for (int k = 0; k < 20; ++k) cache.insert(k, k);
  (void)cache.lookup(0);
  cache.clear();
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.size, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.capacity, 32u);
}

TEST(MemoCache, ConcurrentMissersOfOneKeyAgree) {
  // Eight threads race to fill the same key. Racing missers may each
  // compute and insert, but the value is deterministic, so every caller
  // sees 49 and every lookup is counted exactly once.
  MemoCache<int, int> cache(64);
  std::atomic<int> computations{0};
  std::vector<std::thread> threads;
  std::vector<int> results(8, -1);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      std::optional<int> value = cache.lookup(7);
      if (!value) {
        ++computations;
        value = 49;
        cache.insert(7, *value);
      }
      results[static_cast<std::size_t>(t)] = *value;
    });
  }
  for (auto& thread : threads) thread.join();
  for (const int r : results) EXPECT_EQ(r, 49);
  EXPECT_GE(computations.load(), 1);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 8u);
  EXPECT_EQ(stats.size, 1u);
}

TEST(MemoCache, ConcurrentLookupInsertIsConsistent) {
  // Callers compute a miss outside the cache and insert it; racing
  // missers may both insert, but every reader sees the key's one value
  // and every lookup is counted exactly once.
  MemoCache<int, int> cache(128);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int key = (t * 31 + i) % 200;
        std::optional<int> value = cache.lookup(key);
        if (!value) {
          value = key * key;
          cache.insert(key, *value);
        }
        if (*value != key * key) ++wrong;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_LE(stats.size, 128u);
}

TEST(HashMix, DistinguishesValuesAndOrder) {
  using cosm::numerics::hash_mix;
  EXPECT_NE(hash_mix(0, 1.0), hash_mix(0, 2.0));
  EXPECT_NE(hash_mix(0, std::uint64_t{1}), hash_mix(0, std::uint64_t{2}));
  // Order-sensitive: (a, b) and (b, a) fold differently.
  EXPECT_NE(hash_mix(hash_mix(7, 1.0), 2.0), hash_mix(hash_mix(7, 2.0), 1.0));
  // -0.0 and +0.0 have distinct bit patterns, so they key differently —
  // exactness beats IEEE equality for cache identity.
  EXPECT_NE(hash_mix(0, 0.0), hash_mix(0, -0.0));
}

TEST(Fingerprint, EqualForIdenticalDistributions) {
  using cosm::numerics::fingerprint;
  const cosm::numerics::Gamma a(3.0, 300.0);
  const cosm::numerics::Gamma b(3.0, 300.0);  // separately constructed
  const cosm::numerics::Gamma c(3.0, 301.0);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  EXPECT_NE(fingerprint(a), fingerprint(c));
  const cosm::numerics::Degenerate d(0.5e-3);
  EXPECT_NE(fingerprint(a), fingerprint(d));
  EXPECT_EQ(fingerprint(d), fingerprint(cosm::numerics::Degenerate(0.5e-3)));
}

// fingerprint() memoizes per object; every path must return the bits a
// fresh, never-fingerprinted object of the same value computes.
TEST(FingerprintMemo, MemoizedValueMatchesFreshObject) {
  using cosm::numerics::fingerprint;
  using cosm::numerics::Gamma;
  const Gamma a(3.0, 300.0);
  const std::uint64_t first = fingerprint(a);
  EXPECT_EQ(fingerprint(a), first);  // served from the memo
  EXPECT_EQ(fingerprint(Gamma(3.0, 300.0)), first);

  const Gamma copy(a);  // a copy recomputes from its value
  EXPECT_EQ(fingerprint(copy), first);

  // Copy-assignment from a differently parameterized distribution must
  // not leave the old value's memo behind.
  Gamma b(2.5, 312.5);
  const std::uint64_t b_first = fingerprint(b);
  ASSERT_NE(b_first, first);
  b = a;
  EXPECT_EQ(fingerprint(b), first);
  b = Gamma(2.8, 233.33);
  EXPECT_EQ(fingerprint(b), fingerprint(Gamma(2.8, 233.33)));
  EXPECT_NE(fingerprint(b), first);
  b = Gamma(2.5, 312.5);
  EXPECT_EQ(fingerprint(b), b_first);
}

TEST(FingerprintMemo, ConcurrentFirstCallsAgree) {
  using cosm::numerics::fingerprint;
  const cosm::numerics::Gamma shared(2.8, 233.33);
  const std::uint64_t expected =
      fingerprint(cosm::numerics::Gamma(2.8, 233.33));
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        if (fingerprint(shared) != expected) ++mismatches;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
