#include "core/backend_model.hpp"

#include <cmath>

#include "common/require.hpp"
#include "core/errors.hpp"
#include "queueing/mg1.hpp"
#include "queueing/mg1k.hpp"
#include "queueing/mm1k.hpp"

namespace cosm::core {

using numerics::atom_at_zero_mixture;
using numerics::CompoundPoissonConvolution;
using numerics::Convolution;
using numerics::DistPtr;

void TierOptions::validate() const {
  if (!enabled) return;
  COSM_REQUIRE(hit_ratio >= 0 && hit_ratio <= 1,
               "tier hit ratio must be in [0, 1]");
  COSM_REQUIRE(read_service != nullptr,
               "tier read service distribution is required");
  COSM_REQUIRE(!promote_on_read || write_service != nullptr,
               "tier write service is required with promote_on_read");
}

void DeviceParams::validate() const {
  COSM_REQUIRE(arrival_rate > 0, "device arrival rate must be positive");
  COSM_REQUIRE(data_read_rate >= arrival_rate,
               "every request reads at least one chunk: r_data >= r");
  COSM_REQUIRE(index_miss_ratio >= 0 && index_miss_ratio <= 1,
               "index miss ratio must be in [0, 1]");
  COSM_REQUIRE(meta_miss_ratio >= 0 && meta_miss_ratio <= 1,
               "meta miss ratio must be in [0, 1]");
  COSM_REQUIRE(data_miss_ratio >= 0 && data_miss_ratio <= 1,
               "data miss ratio must be in [0, 1]");
  COSM_REQUIRE(index_disk && meta_disk && data_disk,
               "disk service distributions are required");
  COSM_REQUIRE(backend_parse != nullptr,
               "backend parse distribution is required");
  COSM_REQUIRE(processes >= 1, "device needs at least one process");
  tier.validate();
}

void FrontendParams::validate() const {
  COSM_REQUIRE(arrival_rate > 0, "frontend arrival rate must be positive");
  if (groups.empty()) {
    COSM_REQUIRE(processes >= 1, "frontend needs at least one process");
    COSM_REQUIRE(frontend_parse != nullptr,
                 "frontend parse distribution is required");
    return;
  }
  double total_share = 0.0;
  for (const auto& group : groups) {
    COSM_REQUIRE(group.processes >= 1,
                 "frontend group needs at least one process");
    COSM_REQUIRE(group.traffic_share >= 0,
                 "frontend group share must be non-negative");
    COSM_REQUIRE(group.frontend_parse != nullptr,
                 "frontend group parse distribution is required");
    total_share += group.traffic_share;
  }
  COSM_REQUIRE(std::abs(total_share - 1.0) < 1e-9,
               "frontend group traffic shares must sum to 1");
}

void SystemParams::validate() const {
  frontend.validate();
  COSM_REQUIRE(!devices.empty(), "system needs at least one device");
  double device_rate_sum = 0.0;
  for (const auto& device : devices) {
    device.validate();
    device_rate_sum += device.arrival_rate;
  }
  COSM_REQUIRE(std::abs(device_rate_sum - frontend.arrival_rate) <
                   1e-6 * frontend.arrival_rate + 1e-9,
               "device arrival rates must sum to the system arrival rate");
}

BackendModel::BackendModel(DeviceParams params, ModelOptions options)
    : params_(std::move(params)), options_(options) {
  params_.validate();
  if (options_.odopr) {
    // ODOPR baseline: index lookups, metadata reads, and extra data reads
    // are all served from memory; only one (possible) disk op per request.
    params_.index_miss_ratio = 0.0;
    params_.meta_miss_ratio = 0.0;
    params_.data_read_rate = params_.arrival_rate;
  }
  build();
}

void BackendModel::build() {
  const double r = params_.arrival_rate;
  const double r_data = params_.data_read_rate;
  extra_reads_ = (r_data - r) / r;

  // Per-process rates (requests spread uniformly over N_be processes).
  const double n_be = static_cast<double>(params_.processes);
  const double r_proc = r / n_be;

  DistPtr index_disk = params_.index_disk;
  DistPtr meta_disk = params_.meta_disk;
  DistPtr data_disk = params_.data_disk;

  // Two-tier storage: a fraction `tier_h` of page-cache data misses is
  // absorbed by the SSD tier and never reaches the capacity disk — the
  // disk's arrival stream and the mixed service both shrink accordingly,
  // and the data branch becomes a TieredService mixture below.
  const bool tiered = params_.tier.enabled;
  const double tier_h = tiered ? params_.tier.hit_ratio : 0.0;
  const double data_to_disk = 1.0 - tier_h;
  DistPtr ssd_service = tiered ? params_.tier.read_service : nullptr;

  if (params_.processes > 1) {
    // Sec. III-B, N_be > 1: the shared disk queue is M/G/1/K (K = N_be),
    // approximated by M/M/1/K.  Operations of all kinds mix in the disk
    // queue, so a single averaged service rate is used, and the M/M/1/K
    // sojourn time becomes the per-process "disk service time" for every
    // operation kind.
    disk_rate_ = params_.index_miss_ratio * r +
                 params_.meta_miss_ratio * r +
                 data_to_disk * params_.data_miss_ratio * r_data;
    if (disk_rate_ > 0) {
      disk_mean_service_ =
          (params_.index_miss_ratio * r * index_disk->mean() +
           params_.meta_miss_ratio * r * meta_disk->mean() +
           data_to_disk * params_.data_miss_ratio * r_data *
               data_disk->mean()) /
          disk_rate_;
      DistPtr sojourn;
      if (options_.disk_queue == ModelOptions::DiskQueue::kMM1K) {
        // The paper's substitution: one exponential server at the pooled
        // mean rate.
        const queueing::MM1K disk_queue(
            disk_rate_, 1.0 / disk_mean_service_,
            static_cast<int>(params_.processes));
        sojourn = disk_queue.sojourn_time();
      } else {
        // Extension: exact M/G/1/K state weights over the true mixed
        // service distribution (operations of all kinds mix in the disk
        // queue, so the service law is the rate-weighted mixture).
        const DistPtr mixed_service = std::make_shared<numerics::Mixture>(
            std::vector<numerics::Mixture::Component>{
                {params_.index_miss_ratio * r / disk_rate_, index_disk},
                {params_.meta_miss_ratio * r / disk_rate_, meta_disk},
                {data_to_disk * params_.data_miss_ratio * r_data /
                     disk_rate_,
                 data_disk}});
        const queueing::MG1K disk_queue(
            disk_rate_, mixed_service,
            static_cast<int>(params_.processes));
        sojourn = disk_queue.sojourn_time();
      }
      index_disk = sojourn;
      meta_disk = sojourn;
      data_disk = sojourn;
    }
    if (tiered) {
      // The SSD queue gets the same substitution: blocking hit reads
      // plus (with promote_on_read) the asynchronous install writes the
      // simulator pays after every tier miss.
      const double ssd_read_rate =
          tier_h * params_.data_miss_ratio * r_data;
      const double ssd_write_rate =
          params_.tier.promote_on_read
              ? data_to_disk * params_.data_miss_ratio * r_data
              : 0.0;
      const double ssd_rate = ssd_read_rate + ssd_write_rate;
      if (ssd_rate > 0) {
        DistPtr ssd_mixed = params_.tier.read_service;
        if (ssd_write_rate > 0) {
          ssd_mixed = std::make_shared<numerics::Mixture>(
              std::vector<numerics::Mixture::Component>{
                  {ssd_read_rate / ssd_rate, params_.tier.read_service},
                  {ssd_write_rate / ssd_rate, params_.tier.write_service}});
        }
        if (options_.disk_queue == ModelOptions::DiskQueue::kMM1K) {
          const queueing::MM1K ssd_queue(
              ssd_rate, 1.0 / ssd_mixed->mean(),
              static_cast<int>(params_.processes));
          ssd_service = ssd_queue.sojourn_time();
        } else {
          const queueing::MG1K ssd_queue(
              ssd_rate, ssd_mixed, static_cast<int>(params_.processes));
          ssd_service = ssd_queue.sojourn_time();
        }
      }
    }
  }

  // Two-tier mixture: a page-cache data miss is served by the SSD w.p.
  // tier_h and by the capacity disk behind it otherwise.
  DistPtr data_device = data_disk;
  if (tiered) {
    data_device = std::make_shared<numerics::TieredService>(
        tier_h, ssd_service, data_disk);
  }

  // Cache mixtures: op(t) = m * op_d(t) + (1 - m) * delta(t).
  index_ = atom_at_zero_mixture(params_.index_miss_ratio, index_disk);
  meta_ = atom_at_zero_mixture(params_.meta_miss_ratio, meta_disk);
  data_ = atom_at_zero_mixture(params_.data_miss_ratio, data_device);

  // Union operation: parse * index * meta * data^(j+1), j ~ Poisson(p).
  const DistPtr base = std::make_shared<Convolution>(std::vector<DistPtr>{
      params_.backend_parse, index_, meta_, data_});
  union_service_ =
      std::make_shared<CompoundPoissonConvolution>(base, extra_reads_, data_);

  const queueing::MG1 queue(r_proc, union_service_);
  if (!queue.stable()) {
    throw OverloadError(
        "backend device is overloaded (union-operation utilization >= 1); "
        "the model only covers the paper's 'normal status'");
  }
  waiting_ = queue.waiting_time();

  // Eq. (1): S_be = W * parse * index * meta * data.
  response_ = std::make_shared<Convolution>(std::vector<DistPtr>{
      waiting_, params_.backend_parse, index_, meta_, data_});
}

double BackendModel::utilization() const {
  const double r_proc =
      params_.arrival_rate / static_cast<double>(params_.processes);
  return r_proc * union_service_->mean();
}

}  // namespace cosm::core
