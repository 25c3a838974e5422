// The model's Euler order (kModelEulerOrder) is pinned by its envelope:
// over the service cluster family and its variants, at every SLA from 20
// to 500 ms, the order's CDF stays within numerics::kCdfErrorBudget of
// the library's M = 20 inversion, and one order less does not.
#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/system_model.hpp"
#include "numerics/distribution.hpp"
#include "numerics/lt_inversion.hpp"

namespace cosm::core {
namespace {

using numerics::Degenerate;
using numerics::Gamma;

// One variant of the service's cluster family (service::ClusterSpec).
struct Variant {
  unsigned processes = 1;
  ModelOptions options;
  double tier_hit_ratio = 0.0;
};

// Four devices of the family at `rate` req/s each; `data_miss` spans the
// range the service is asked about.
SystemParams family(double rate, double data_miss, const Variant& variant) {
  SystemParams params;
  params.frontend.processes = 3;
  params.frontend.frontend_parse = std::make_shared<Degenerate>(0.8e-3);
  DeviceParams device;
  device.arrival_rate = rate;
  device.data_read_rate = rate * 1.2;
  device.index_miss_ratio = 0.3;
  device.meta_miss_ratio = 0.3;
  device.data_miss_ratio = data_miss;
  device.index_disk = std::make_shared<Gamma>(3.0, 300.0);
  device.meta_disk = std::make_shared<Gamma>(2.5, 312.5);
  device.data_disk = std::make_shared<Gamma>(2.8, 233.33);
  device.backend_parse = std::make_shared<Degenerate>(0.5e-3);
  device.processes = variant.processes;
  if (variant.tier_hit_ratio > 0.0) {
    device.tier.enabled = true;
    device.tier.hit_ratio = variant.tier_hit_ratio;
    device.tier.read_service = std::make_shared<Degenerate>(0.4e-3);
    device.tier.write_service = std::make_shared<Degenerate>(0.6e-3);
  }
  for (int d = 0; d < 4; ++d) {
    params.frontend.arrival_rate += rate;
    params.devices.push_back(device);
  }
  return params;
}

// The default family, 4-process devices under both disk-queue solutions,
// the noWTA baseline and a 50% SSD tier.
std::vector<Variant> variants() {
  using Queue = ModelOptions::DiskQueue;
  return {
      {1, {}, 0.0},
      {4, {.disk_queue = Queue::kMM1K}, 0.0},
      {4, {.disk_queue = Queue::kMG1K}, 0.0},
      {1, {.include_wta = false}, 0.0},
      {1, {}, 0.5},
  };
}

// Max over the envelope of |F_m - F_20| at each order in `orders`.
std::vector<double> worst_errors(const std::vector<int>& orders) {
  std::vector<double> slas;
  for (int i = 0; i <= 40; ++i) {
    slas.push_back(0.02 * std::pow(25.0, i / 40.0));  // 20 ms .. 500 ms
  }
  std::vector<double> worst(orders.size(), 0.0);
  for (const Variant& variant : variants()) {
    for (double rate = 5.0; rate <= 55.0; rate += 5.0) {
      for (const double data_miss : {0.55, 0.7, 0.75}) {
        const SystemModel model(family(rate, data_miss, variant),
                                variant.options);
        const numerics::TransformTape& tape =
            model.devices()[0].response_tape();
        const std::vector<double> reference = tape.cdf_many(slas, 20);
        for (std::size_t o = 0; o < orders.size(); ++o) {
          const std::vector<double> got = tape.cdf_many(slas, orders[o]);
          for (std::size_t i = 0; i < slas.size(); ++i) {
            worst[o] = std::max(worst[o], std::abs(got[i] - reference[i]));
          }
        }
      }
    }
  }
  return worst;
}

TEST(ModelEulerOrder, SmallestOrderWithinTheBudgetOverTheEnvelope) {
  const std::vector<double> worst =
      worst_errors({kModelEulerOrder, kModelEulerOrder - 1});
  EXPECT_LE(worst[0], numerics::kCdfErrorBudget)
      << "order " << kModelEulerOrder << " misses the budget";
  EXPECT_GT(worst[1], numerics::kCdfErrorBudget)
      << "order " << kModelEulerOrder - 1 << " also meets the budget";
}

}  // namespace
}  // namespace cosm::core
