#include "workload/catalog.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"

namespace cosm::workload {

numerics::DistPtr default_size_distribution(double mean_bytes,
                                            double sigma_log) {
  COSM_REQUIRE(mean_bytes > 0, "mean object size must be positive");
  // E[X] = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2.
  const double mu = std::log(mean_bytes) - 0.5 * sigma_log * sigma_log;
  return std::make_shared<numerics::Lognormal>(mu, sigma_log);
}

namespace {

std::vector<double> zipf_weights(std::uint64_t n, double skew) {
  COSM_REQUIRE(n > 0, "catalog needs at least one object");
  COSM_REQUIRE(skew >= 0, "zipf skew must be non-negative");
  std::vector<double> weights(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), skew);
  }
  return weights;
}

}  // namespace

ObjectCatalog::ObjectCatalog(const CatalogConfig& config)
    : popularity_(zipf_weights(config.object_count, config.zipf_skew)) {
  COSM_REQUIRE(config.object_count > 0, "catalog needs at least one object");
  COSM_REQUIRE(config.size_distribution != nullptr,
               "catalog needs a size distribution");
  COSM_REQUIRE(config.min_object_bytes > 0 &&
                   config.min_object_bytes <= config.max_object_bytes,
               "invalid object size bounds");
  cosm::Rng rng(config.seed);
  sizes_.resize(config.object_count);
  double total = 0.0;
  for (auto& size : sizes_) {
    const double drawn = config.size_distribution->sample(rng);
    const auto clamped = std::clamp(
        static_cast<std::uint64_t>(std::llround(std::max(drawn, 1.0))),
        config.min_object_bytes, config.max_object_bytes);
    size = clamped;
    total += static_cast<double>(clamped);
  }
  mean_size_ = total / static_cast<double>(sizes_.size());
}

std::uint64_t ObjectCatalog::size_of(ObjectId id) const {
  COSM_REQUIRE(id < sizes_.size(), "object id out of range");
  return sizes_[id];
}

ObjectId ObjectCatalog::sample_object(cosm::Rng& rng) const {
  return popularity_.sample(rng);
}

double ObjectCatalog::popularity(ObjectId id) const {
  return popularity_.probability(id);
}

double ObjectCatalog::expected_chunks_per_request(
    std::uint64_t chunk_bytes) const {
  COSM_REQUIRE(chunk_bytes > 0, "chunk size must be positive");
  double expectation = 0.0;
  for (ObjectId id = 0; id < sizes_.size(); ++id) {
    const double chunks = std::ceil(static_cast<double>(sizes_[id]) /
                                    static_cast<double>(chunk_bytes));
    expectation += popularity_.probability(id) * chunks;
  }
  return expectation;
}

}  // namespace cosm::workload
