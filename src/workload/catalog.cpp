#include "workload/catalog.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/require.hpp"

namespace cosm::workload {

numerics::DistPtr default_size_distribution(double mean_bytes,
                                            double sigma_log) {
  COSM_REQUIRE(mean_bytes > 0, "mean object size must be positive");
  // E[X] = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2.
  const double mu = std::log(mean_bytes) - 0.5 * sigma_log * sigma_log;
  return std::make_shared<numerics::Lognormal>(mu, sigma_log);
}

ObjectCatalog::ObjectCatalog(const CatalogConfig& config)
    : ObjectCatalog(config, std::make_shared<const cosm::ZipfSampler>(
                                config.object_count, config.zipf_skew)) {}

ObjectCatalog::ObjectCatalog(
    const CatalogConfig& config,
    std::shared_ptr<const cosm::ZipfSampler> popularity)
    : popularity_(std::move(popularity)) {
  COSM_REQUIRE(config.object_count > 0, "catalog needs at least one object");
  COSM_REQUIRE(popularity_ != nullptr &&
                   popularity_->size() == config.object_count &&
                   popularity_->skew() == config.zipf_skew,
               "popularity table does not match the catalog's object count "
               "and zipf skew");
  COSM_REQUIRE(config.size_distribution != nullptr,
               "catalog needs a size distribution");
  COSM_REQUIRE(config.min_object_bytes > 0 &&
                   config.min_object_bytes <= config.max_object_bytes,
               "invalid object size bounds");
  cosm::Rng rng(config.seed);
  sizes_.resize(config.object_count);
  for (auto& size : sizes_) {
    const double drawn = config.size_distribution->sample(rng);
    size = std::clamp(
        static_cast<std::uint64_t>(std::llround(std::max(drawn, 1.0))),
        config.min_object_bytes, config.max_object_bytes);
  }
}

std::uint64_t ObjectCatalog::size_of(ObjectId id) const {
  COSM_REQUIRE(id < sizes_.size(), "object id out of range");
  return sizes_[id];
}

ObjectId ObjectCatalog::sample_object(cosm::Rng& rng) const {
  return popularity_->sample(rng);
}

double ObjectCatalog::popularity(ObjectId id) const {
  return popularity_->probability(id);
}

}  // namespace cosm::workload
