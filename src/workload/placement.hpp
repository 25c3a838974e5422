// Object placement: hash-based partitioning with replication, modeled on
// OpenStack Swift's ring (Sec. V-A: "Data objects are mapped to 1,024
// partitions based on hashing, and each partition has 3 replicas ...
// evenly distributed among the 4 disks, replicas of the same partition on
// different disks").
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "workload/catalog.hpp"

namespace cosm::workload {

using DeviceId = std::uint32_t;

struct PlacementConfig {
  std::uint32_t partition_count = 1024;
  std::uint32_t replica_count = 3;
  std::uint32_t device_count = 4;
  std::uint64_t seed = 99;
};

class Placement {
 public:
  explicit Placement(const PlacementConfig& config);

  std::uint32_t partition_of(ObjectId id) const;
  // The replica device list of a partition; devices are distinct as long
  // as replica_count <= device_count.
  const std::vector<DeviceId>& replicas_of_partition(
      std::uint32_t partition) const;

  // Swift frontends pick a replica (randomly in our router, matching the
  // paper's note that "randomness exists in the replica choosing scheme").
  DeviceId choose_replica(ObjectId id, cosm::Rng& rng) const;

  std::uint32_t device_count() const { return device_count_; }
  std::uint32_t partition_count() const {
    return static_cast<std::uint32_t>(ring_.size());
  }
  std::uint32_t replica_count() const { return replica_count_; }

  // Fraction of (popularity-weighted) traffic that lands on each device
  // under uniform random replica choice — feeds the model's per-device
  // arrival rates r_j (Eq. 3).
  std::vector<double> traffic_share(const ObjectCatalog& catalog) const;

 private:
  std::uint32_t replica_count_;
  std::uint32_t device_count_;
  std::uint64_t hash_seed_;
  // ring_[partition] = replica device list.
  std::vector<std::vector<DeviceId>> ring_;
};

}  // namespace cosm::workload
