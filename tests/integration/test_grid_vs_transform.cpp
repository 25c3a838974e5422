// Integration: two independent numerical paths through the full model.
//
// The model's response CDF (Eq. 2: S_q * W_a * S_be) is evaluated (a)
// through Laplace transforms + Euler inversion (the production path) and
// (b) by discretizing each component and convolving grids via FFT.  The
// two pipelines share no numerical machinery beyond the component
// definitions, so agreement across loads and SLAs is strong evidence both
// are computing Eq. 2 correctly.
#include <gtest/gtest.h>

#include <memory>

#include "core/backend_model.hpp"
#include "core/system_model.hpp"
#include "numerics/grid.hpp"

namespace cosm {
namespace {

using numerics::GridDensity;

core::SystemParams one_device(double rate, unsigned processes) {
  core::SystemParams params;
  params.frontend.arrival_rate = rate;
  params.frontend.processes = 3;
  params.frontend.frontend_parse =
      std::make_shared<numerics::Degenerate>(0.8e-3);
  core::DeviceParams device;
  device.arrival_rate = rate;
  device.data_read_rate = rate * 1.2;
  device.index_miss_ratio = 0.3;
  device.meta_miss_ratio = 0.3;
  device.data_miss_ratio = 0.7;
  device.index_disk = std::make_shared<numerics::Gamma>(3.0, 300.0);
  device.meta_disk = std::make_shared<numerics::Gamma>(2.5, 312.5);
  device.data_disk = std::make_shared<numerics::Gamma>(2.8, 233.33);
  device.backend_parse = std::make_shared<numerics::Degenerate>(0.5e-3);
  device.processes = processes;
  params.devices.push_back(std::move(device));
  return params;
}

class GridVsTransform
    : public ::testing::TestWithParam<std::tuple<double, unsigned>> {};

TEST_P(GridVsTransform, Eq2CdfAgreesAcrossPipelines) {
  const double rate = std::get<0>(GetParam());
  const unsigned processes = std::get<1>(GetParam());
  const core::SystemParams params = one_device(rate, processes);
  const core::SystemModel model(params);
  const core::BackendModel backend(params.devices.front());
  const numerics::DistPtr s_fe =
      core::response_tree(model.frontend(), params.devices.front(), {});

  // Grid convolution biases mass ~half a bin early per convolution (bin
  // masses convolve by start index), so the bin width directly bounds the
  // achievable agreement; 0.1 ms keeps the bias within the tolerance.
  constexpr double kDt = 1e-4;
  constexpr double kHorizon = 1.2;
  const auto max_bins = static_cast<std::size_t>(kHorizon / kDt) * 2;
  const GridDensity s_q = GridDensity::discretize(
      *model.frontend().queueing_latency(), kDt, kHorizon);
  const GridDensity w_a =
      GridDensity::discretize(*backend.waiting_time(), kDt, kHorizon);
  const GridDensity s_be =
      GridDensity::discretize(*backend.response_time(), kDt, kHorizon);
  const GridDensity response =
      s_q.convolve_with(w_a, max_bins).convolve_with(s_be, max_bins);

  for (double sla : {0.010, 0.030, 0.050, 0.100, 0.200}) {
    const double via_transform = s_fe->cdf(sla);
    const double via_grid = response.cdf(sla);
    EXPECT_NEAR(via_grid, via_transform, 1e-2)
        << "rate=" << rate << " N_be=" << processes << " sla=" << sla;
  }
}

INSTANTIATE_TEST_SUITE_P(LoadAndProcesses, GridVsTransform,
                         ::testing::Values(std::make_tuple(20.0, 1u),
                                           std::make_tuple(45.0, 1u),
                                           std::make_tuple(55.0, 1u),
                                           std::make_tuple(55.0, 16u)));

}  // namespace
}  // namespace cosm
