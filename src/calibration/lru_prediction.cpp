#include "calibration/lru_prediction.hpp"

#include <cmath>
#include <limits>

#include "common/require.hpp"

namespace cosm::calibration {

namespace {

// Expected occupancy of a TTL cache with characteristic time t:
// sum_i c_i (1 - e^{-w_i t}).  Monotone increasing in t, saturating at
// the catalog footprint.
double occupancy(const ChunkPopulation& pop, double t) {
  double occ = 0.0;
  for (std::size_t i = 0; i < pop.weight.size(); ++i) {
    occ += pop.chunks[i] * -std::expm1(-pop.weight[i] * t);
  }
  return occ;
}

// Hit ratio of the TTL cache at characteristic time t: each chunk of
// object i is referenced with probability w_i and hits with probability
// 1 - e^{-w_i t}.
double ttl_hit_ratio(const ChunkPopulation& pop, double t) {
  double hit = 0.0;
  for (std::size_t i = 0; i < pop.weight.size(); ++i) {
    hit += pop.chunks[i] * pop.weight[i] * -std::expm1(-pop.weight[i] * t);
  }
  return hit;
}

double solve_characteristic_time(const ChunkPopulation& pop,
                                 std::size_t capacity_chunks) {
  const double capacity = static_cast<double>(capacity_chunks);
  if (capacity <= 0.0) return 0.0;
  if (capacity >= pop.total_chunks) {
    return std::numeric_limits<double>::infinity();
  }
  // Bracket: occupancy(0) = 0 and occupancy is monotone, so double the
  // upper end until it clears the capacity, then bisect.  The doubling
  // budget (2^200 ~ 1.6e60) is generous, but filtered tier populations
  // can carry weights as small as w * e^{-w t1} — far below 1e-60 — whose
  // occupancy never clears the capacity within the budget.  Bisecting
  // that unverified bracket would converge on hi and return a silently
  // wrong characteristic time, so exhaustion must fail loudly instead.
  double lo = 0.0;
  double hi = 1.0;
  int doublings = 0;
  while (occupancy(pop, hi) < capacity) {
    COSM_CHECK(++doublings <= 200,
               "characteristic-time bracket exhausted: occupancy cannot "
               "reach the cache capacity within 200 doublings (population "
               "weights too small; capacity effectively unreachable)");
    lo = hi;
    hi *= 2.0;
  }
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (occupancy(pop, mid) < capacity) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace

ChunkPopulation chunk_population(const workload::ObjectCatalog& catalog,
                                 std::uint64_t chunk_bytes) {
  COSM_REQUIRE(chunk_bytes > 0, "chunk_bytes must be positive");
  COSM_REQUIRE(catalog.object_count() > 0, "catalog must be non-empty");
  ChunkPopulation pop;
  const std::uint64_t n = catalog.object_count();
  pop.weight.reserve(n);
  pop.chunks.reserve(n);
  double reference_mass = 0.0;  // sum_j p_j c_j (chunk reads per request)
  for (std::uint64_t id = 0; id < n; ++id) {
    const std::uint64_t size = catalog.size_of(id);
    const double chunks = static_cast<double>(
        size == 0 ? 1 : (size + chunk_bytes - 1) / chunk_bytes);
    const double p = catalog.popularity(id);
    pop.weight.push_back(p);  // normalized below
    pop.chunks.push_back(chunks);
    pop.total_chunks += chunks;
    reference_mass += p * chunks;
  }
  COSM_REQUIRE(reference_mass > 0, "catalog popularity must not vanish");
  for (double& w : pop.weight) w /= reference_mass;
  return pop;
}

double predict_lru_hit_ratio(const ChunkPopulation& pop,
                             std::size_t capacity_chunks) {
  const double t = solve_characteristic_time(pop, capacity_chunks);
  if (std::isinf(t)) return 1.0;  // everything fits
  return ttl_hit_ratio(pop, t);
}

double predict_tier_hit_ratio(const ChunkPopulation& pop,
                              std::size_t mem_capacity_chunks,
                              std::size_t tier_capacity_chunks) {
  const double t1 = solve_characteristic_time(pop, mem_capacity_chunks);
  if (std::isinf(t1)) return 0.0;  // the page cache absorbs the stream
  // The tier sees the page cache's miss stream: chunk i leaks through
  // with probability e^{-w_i t1}, so its tier-stream weight re-scales.
  ChunkPopulation filtered;
  filtered.weight.reserve(pop.weight.size());
  filtered.chunks = pop.chunks;
  filtered.total_chunks = pop.total_chunks;
  double miss_mass = 0.0;
  for (std::size_t i = 0; i < pop.weight.size(); ++i) {
    const double leak = pop.weight[i] * std::exp(-pop.weight[i] * t1);
    filtered.weight.push_back(leak);
    miss_mass += pop.chunks[i] * leak;
  }
  if (miss_mass <= 0.0) return 0.0;
  for (double& w : filtered.weight) w /= miss_mass;
  return predict_lru_hit_ratio(filtered, tier_capacity_chunks);
}

}  // namespace cosm::calibration
