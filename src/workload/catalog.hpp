// Object catalog: the population of data objects ("blobs") the workload
// reads.
//
// Mirrors the paper's trace characteristics (Sec. V-A): object sizes are
// long-tailed with a small mean (~32KB objects, ~10KB mean request), and
// popularity follows a heavy-tailed (Zipf) law — which is what makes the
// index/metadata caches miss in the first place (Sec. II's long-tail
// argument).  Object identity is a dense rank; rank 0 is the most popular.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "numerics/distribution.hpp"

namespace cosm::workload {

using ObjectId = std::uint64_t;

struct CatalogConfig {
  std::uint64_t object_count = 100000;
  double zipf_skew = 0.9;
  // Object sizes are drawn i.i.d. from this distribution (bytes) at
  // catalog construction, then fixed — an object always has one size.
  numerics::DistPtr size_distribution;
  std::uint64_t min_object_bytes = 256;
  std::uint64_t max_object_bytes = 64ull << 20;  // 64 MiB cap
  std::uint64_t seed = 1;
};

// A lognormal with the given mean and sigma(log) — the shape observed for
// web media objects; mean defaults to the paper's ~32KB.
numerics::DistPtr default_size_distribution(double mean_bytes = 32.0 * 1024,
                                            double sigma_log = 1.2);

class ObjectCatalog {
 public:
  // Builds a private popularity table for (object_count, zipf_skew).
  explicit ObjectCatalog(const CatalogConfig& config);
  // Shares an existing popularity table, which depends only on
  // (object_count, zipf_skew) and never on the seed; only the sizes are
  // drawn here.  The table's size and skew must match the config's.
  ObjectCatalog(const CatalogConfig& config,
                std::shared_ptr<const cosm::ZipfSampler> popularity);

  std::uint64_t object_count() const { return sizes_.size(); }
  std::uint64_t size_of(ObjectId id) const;

  // Popularity-weighted object draw.
  ObjectId sample_object(cosm::Rng& rng) const;
  double popularity(ObjectId id) const;

 private:
  std::vector<std::uint64_t> sizes_;
  std::shared_ptr<const cosm::ZipfSampler> popularity_;
};

}  // namespace cosm::workload
