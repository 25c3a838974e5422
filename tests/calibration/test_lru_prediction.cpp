// Che-approximation LRU hit-ratio prediction (tiering extension): the
// predicted hit ratios must track a direct LRU simulation of the same
// catalog stream, for a single cache and for the SSD tier behind the
// page cache.
#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <unordered_map>

#include "calibration/lru_prediction.hpp"
#include "common/rng.hpp"
#include "workload/catalog.hpp"

namespace cosm::calibration {
namespace {

constexpr std::uint64_t kChunkBytes = 65536;

workload::ObjectCatalog test_catalog() {
  workload::CatalogConfig config;
  config.object_count = 2000;
  config.zipf_skew = 0.9;
  // Fixed 100 KB objects (2 chunks each) keep the footprint exact.
  config.size_distribution = std::make_shared<numerics::Degenerate>(100000.0);
  config.seed = 41;
  return workload::ObjectCatalog(config);
}

// Minimal reference LRU over chunk keys, for measuring ground truth.
class DirectLru {
 public:
  explicit DirectLru(std::size_t capacity) : capacity_(capacity) {}

  // Access with promotion; returns true on hit.
  bool access(std::uint64_t key) {
    auto it = map_.find(key);
    if (it != map_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      return true;
    }
    if (capacity_ == 0) return false;
    if (map_.size() == capacity_) {
      map_.erase(order_.back());
      order_.pop_back();
    }
    order_.push_front(key);
    map_[key] = order_.begin();
    return false;
  }

 private:
  std::size_t capacity_;
  std::list<std::uint64_t> order_;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> map_;
};

std::uint64_t chunk_key(std::uint64_t object, std::uint64_t chunk) {
  return (object << 8) | chunk;
}

TEST(LruPrediction, ChunkPopulationIsNormalized) {
  const auto catalog = test_catalog();
  const ChunkPopulation pop = chunk_population(catalog, kChunkBytes);
  ASSERT_EQ(pop.weight.size(), 2000u);
  EXPECT_DOUBLE_EQ(pop.total_chunks, 4000.0);  // 2 chunks per object
  double reference_mass = 0.0;
  for (std::size_t i = 0; i < pop.weight.size(); ++i) {
    reference_mass += pop.chunks[i] * pop.weight[i];
  }
  EXPECT_NEAR(reference_mass, 1.0, 1e-12);
}

TEST(LruPrediction, CapacityEdgeCases) {
  const ChunkPopulation pop = chunk_population(test_catalog(), kChunkBytes);
  EXPECT_DOUBLE_EQ(predict_lru_hit_ratio(pop, 0), 0.0);
  EXPECT_DOUBLE_EQ(predict_lru_hit_ratio(pop, 4000), 1.0);  // full fit
  EXPECT_DOUBLE_EQ(predict_lru_hit_ratio(pop, 5000), 1.0);  // spare room
}

TEST(LruPrediction, HitRatioIsMonotoneInCapacity) {
  const ChunkPopulation pop = chunk_population(test_catalog(), kChunkBytes);
  double last = 0.0;
  for (std::size_t capacity : {50u, 200u, 800u, 2000u, 3500u}) {
    const double h = predict_lru_hit_ratio(pop, capacity);
    EXPECT_GT(h, last);
    EXPECT_LE(h, 1.0);
    last = h;
  }
}

TEST(LruPrediction, MemZeroTierEqualsDirectPrediction) {
  const ChunkPopulation pop = chunk_population(test_catalog(), kChunkBytes);
  // An empty page cache filters nothing: the tier sees the raw stream.
  EXPECT_NEAR(predict_tier_hit_ratio(pop, 0, 600),
              predict_lru_hit_ratio(pop, 600), 1e-9);
  // A page cache holding the whole catalog starves the tier.
  EXPECT_DOUBLE_EQ(predict_tier_hit_ratio(pop, 4000, 600), 0.0);
}

TEST(LruPrediction, CheMatchesDirectLruSimulation) {
  const auto catalog = test_catalog();
  const ChunkPopulation pop = chunk_population(catalog, kChunkBytes);
  for (std::size_t capacity : {200u, 800u}) {
    DirectLru lru(capacity);
    cosm::Rng rng(17);
    std::uint64_t hits = 0, accesses = 0;
    const int warmup = 50000, measured = 200000;
    for (int i = 0; i < warmup + measured; ++i) {
      const auto object = catalog.sample_object(rng);
      for (std::uint64_t c = 0; c < 2; ++c) {  // 2 chunks per object
        const bool hit = lru.access(chunk_key(object, c));
        if (i >= warmup) {
          ++accesses;
          hits += hit ? 1 : 0;
        }
      }
    }
    const double measured_ratio =
        static_cast<double>(hits) / static_cast<double>(accesses);
    EXPECT_NEAR(predict_lru_hit_ratio(pop, capacity), measured_ratio, 0.05)
        << "capacity " << capacity;
  }
}

TEST(LruPrediction, TierPredictionMatchesTwoLevelSimulation) {
  const auto catalog = test_catalog();
  const ChunkPopulation pop = chunk_population(catalog, kChunkBytes);
  const std::size_t mem_capacity = 200;
  const std::size_t tier_capacity = 800;
  DirectLru mem(mem_capacity);
  DirectLru tier(tier_capacity);
  cosm::Rng rng(29);
  std::uint64_t tier_hits = 0, tier_accesses = 0;
  const int warmup = 50000, measured = 300000;
  for (int i = 0; i < warmup + measured; ++i) {
    const auto object = catalog.sample_object(rng);
    for (std::uint64_t c = 0; c < 2; ++c) {
      if (mem.access(chunk_key(object, c))) continue;  // absorbed upstream
      const bool hit = tier.access(chunk_key(object, c));
      if (i >= warmup) {
        ++tier_accesses;
        tier_hits += hit ? 1 : 0;
      }
    }
  }
  const double measured_ratio =
      static_cast<double>(tier_hits) / static_cast<double>(tier_accesses);
  // The filtered-stream approximation is coarser than single-level Che
  // (the miss stream is not independent-reference), hence the wider band.
  EXPECT_NEAR(predict_tier_hit_ratio(pop, mem_capacity, tier_capacity),
              measured_ratio, 0.08);
}

}  // namespace
}  // namespace cosm::calibration
