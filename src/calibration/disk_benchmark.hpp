// Section IV-A: "The distribution of disk service times".
//
// The paper fills the disk with objects, then reads randomly selected
// objects one at a time (max 1 outstanding op, so no queueing), recording
// the latency of each index lookup / metadata read / data read, and fits a
// distribution per kind (Gamma wins on their testbed).  We run the same
// procedure against the simulator's Disk, which plays the role of
// /dev/sdX: the benchmark only observes op latencies, never the profile's
// parameters, so the whole estimate-then-fit pipeline is exercised
// honestly.
#pragma once

#include <cstdint>
#include <vector>

#include "numerics/fitting.hpp"
#include "sim/disk.hpp"

namespace cosm::calibration {

struct DiskBenchmarkConfig {
  // Number of randomly selected objects to read (one index + one meta +
  // one data op each).
  std::uint32_t objects = 5000;
  std::uint64_t seed = 7;
};

struct OperationFit {
  std::vector<double> samples;          // recorded latencies, unsorted
  numerics::FitSelection selection;     // all candidates, best first
  double mean = 0.0;
};

struct DiskCalibration {
  OperationFit index;
  OperationFit meta;
  OperationFit data;

  // Service-time proportions p_i : p_m : p_d (normalized to sum 1), the
  // quantity Sec. IV-B reuses online.
  double index_proportion() const;
  double meta_proportion() const;
  double data_proportion() const;
};

// Runs the benchmark against a fresh simulated disk with the given
// profile.  The profile is used only to *generate* latencies; the
// calibration result is computed purely from the recorded samples.
DiskCalibration benchmark_disk(const sim::DiskProfile& profile,
                               const DiskBenchmarkConfig& config = {});

}  // namespace cosm::calibration
