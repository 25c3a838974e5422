#include "workload/placement.hpp"

#include "common/require.hpp"

namespace cosm::workload {

Placement::Placement(const PlacementConfig& config)
    : replica_count_(config.replica_count),
      device_count_(config.device_count),
      hash_seed_(config.seed) {
  COSM_REQUIRE(config.partition_count > 0, "need at least one partition");
  COSM_REQUIRE(config.replica_count >= 1, "need at least one replica");
  COSM_REQUIRE(config.device_count >= config.replica_count,
               "replicas of one partition must land on distinct devices");
  ring_.resize(config.partition_count);
  // Swift-style ring build: for each partition pick a pseudo-random
  // starting device and stride across distinct devices.  This is simpler
  // than Swift's balance-aware assignment but preserves the properties the
  // model relies on: distinct replica devices and an even device load.
  cosm::Rng rng(config.seed);
  for (std::uint32_t p = 0; p < config.partition_count; ++p) {
    const auto start =
        static_cast<DeviceId>(rng.uniform_index(device_count_));
    ring_[p].reserve(replica_count_);
    for (std::uint32_t r = 0; r < replica_count_; ++r) {
      ring_[p].push_back((start + r) % device_count_);
    }
  }
}

std::uint32_t Placement::partition_of(ObjectId id) const {
  // SplitMix64 as the ring hash: uniform and deterministic.
  cosm::SplitMix64 mixer(id ^ hash_seed_);
  return static_cast<std::uint32_t>(mixer.next() % ring_.size());
}

const std::vector<DeviceId>& Placement::replicas_of_partition(
    std::uint32_t partition) const {
  COSM_REQUIRE(partition < ring_.size(), "partition out of range");
  return ring_[partition];
}

DeviceId Placement::choose_replica(ObjectId id, cosm::Rng& rng) const {
  const auto& replicas = ring_[partition_of(id)];
  return replicas[rng.uniform_index(replicas.size())];
}

std::vector<double> Placement::traffic_share(
    const ObjectCatalog& catalog) const {
  std::vector<double> share(device_count_, 0.0);
  for (ObjectId id = 0; id < catalog.object_count(); ++id) {
    const auto& replicas = ring_[partition_of(id)];
    const double per_replica =
        catalog.popularity(id) / static_cast<double>(replicas.size());
    for (const DeviceId device : replicas) share[device] += per_replica;
  }
  return share;
}

}  // namespace cosm::workload
