// Predicting LRU hit ratios from the Zipf catalog — Che's approximation.
//
// The tiering extension needs the SSD tier's hit ratio BEFORE any run
// exists (capacity planning: "how much SSD buys p99 <= d?"), so instead
// of measuring it the way the online-metrics path measures page-cache
// miss ratios, we predict it from the same catalog parameters the
// workload generator uses.
//
// Che's approximation (Che, Tung & Wang 2002): an LRU cache of C entries
// fed by an independent-reference stream where item j is referenced with
// probability w_j behaves like a TTL cache with one characteristic time
// T_C, the root of
//
//     sum_j (1 - e^{-w_j T}) = C,
//
// and item j hits with probability 1 - e^{-w_j T_C}; the stream hit
// ratio is H = sum_j w_j (1 - e^{-w_j T_C}).  The approximation is
// remarkably accurate for Zipf-like popularity at realistic cache sizes.
//
// Two-level hierarchy (page cache, then SSD tier): the tier sees the
// page cache's MISS stream.  Under the same TTL picture a chunk of
// reference probability w_j leaks through the page cache with
// probability e^{-w_j T_1}, so the tier's stream re-weights to
// w2_j ∝ w_j e^{-w_j T_1} and Che is applied again with the tier's
// capacity.  Validity limits (IRM assumption, promotion-on-read
// coupling): docs/TIERING.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "workload/catalog.hpp"

namespace cosm::calibration {

// Chunk-level reference weights of the catalog under the independent
// reference model: a request samples object i with popularity p_i and
// reads all of its c_i chunks, so every chunk of object i carries the
// per-chunk-access reference probability w_i = p_i / sum_j p_j c_j.
// Chunks of one object share a weight, so the vectors are per-object
// with an explicit chunk multiplicity.
struct ChunkPopulation {
  std::vector<double> weight;  // per-chunk reference probability, by object
  std::vector<double> chunks;  // chunks per object (>= 1)
  double total_chunks = 0.0;   // catalog footprint, in chunks
};

ChunkPopulation chunk_population(const workload::ObjectCatalog& catalog,
                                 std::uint64_t chunk_bytes);

// Predicted steady-state hit ratio of an LRU cache of `capacity_chunks`
// chunks fed directly by the catalog's chunk stream (the page cache's
// data bank in CacheBankConfig::Mode::kLru).
double predict_lru_hit_ratio(const ChunkPopulation& pop,
                             std::size_t capacity_chunks);

// Predicted hit ratio of an SSD tier of `tier_capacity_chunks` sitting
// BEHIND a page cache of `mem_capacity_chunks` (core::TierOptions::
// hit_ratio): Che applied to the page-cache-filtered miss stream.
double predict_tier_hit_ratio(const ChunkPopulation& pop,
                              std::size_t mem_capacity_chunks,
                              std::size_t tier_capacity_chunks);

}  // namespace cosm::calibration
