// The backend-tier model of Section III-B: the union operation, the
// M/G/1 queue of union operations, and the N_be > 1 extension through the
// M/M/1/K disk-queue substitution.
//
// Outputs:
//   waiting_time()  — W_be, the union-operation queue waiting time (also
//                     the paper's W_a approximation for the accept wait);
//   response_time() — S_be = W * parse * index * meta * data   (Eq. 1);
//   union_service() — B_be, the union-operation service distribution.
#pragma once

#include "core/params.hpp"
#include "numerics/compose.hpp"

namespace cosm::core {

class BackendModel {
 public:
  // `options.odopr` rewrites the parameters per the ODOPR baseline before
  // building.  Throws std::invalid_argument when the device is overloaded
  // (the model only covers the paper's "normal status").
  explicit BackendModel(DeviceParams params, ModelOptions options = {});

  const DeviceParams& params() const { return params_; }

  // Mean number of extra data reads per union operation,
  // p = (r_data - r) / r.
  double extra_data_reads() const { return extra_reads_; }

  // Utilization of the union-operation M/G/1 queue (per process).
  double utilization() const;
  bool stable() const { return utilization() < 1.0; }

  numerics::DistPtr union_service() const { return union_service_; }
  numerics::DistPtr waiting_time() const { return waiting_; }
  numerics::DistPtr response_time() const { return response_; }

  // The effective (possibly M/M/1/K-substituted) per-operation
  // distributions, exposed for tests and the ablation benches.
  numerics::DistPtr effective_index() const { return index_; }
  numerics::DistPtr effective_meta() const { return meta_; }
  numerics::DistPtr effective_data() const { return data_; }

  // N_be > 1 only: the disk queue model quantities (offered utilization
  // and the M/M/1/K mean sojourn used as "disk service time").
  double disk_arrival_rate() const { return disk_rate_; }
  double disk_mean_service() const { return disk_mean_service_; }

 private:
  void build();

  DeviceParams params_;
  ModelOptions options_;
  double extra_reads_ = 0.0;
  double disk_rate_ = 0.0;
  double disk_mean_service_ = 0.0;
  numerics::DistPtr index_;
  numerics::DistPtr meta_;
  numerics::DistPtr data_;
  numerics::DistPtr union_service_;
  numerics::DistPtr waiting_;
  numerics::DistPtr response_;
};

}  // namespace cosm::core
