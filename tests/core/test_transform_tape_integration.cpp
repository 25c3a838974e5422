// Core-layer guarantees of the transform tape: the compiled tape is what
// every prediction query evaluates, its CDF is bit-identical to the
// scalar tree walk, and its fingerprint keys the PredictionCache so
// identically configured devices share entries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/system_model.hpp"
#include "core/whatif.hpp"
#include "numerics/lt_inversion.hpp"

namespace cosm::core {
namespace {

using numerics::Degenerate;
using numerics::DistPtr;
using numerics::Gamma;

FrontendParams tape_frontend(double rate) {
  FrontendParams params;
  params.arrival_rate = rate;
  params.processes = 3;
  params.frontend_parse = std::make_shared<Degenerate>(0.0008);
  return params;
}

DeviceParams tape_device(double rate) {
  DeviceParams params;
  params.arrival_rate = rate;
  params.data_read_rate = rate * 1.2;
  params.index_miss_ratio = 0.3;
  params.meta_miss_ratio = 0.3;
  params.data_miss_ratio = 0.7;
  params.index_disk = std::make_shared<Gamma>(3.0, 300.0);
  params.meta_disk = std::make_shared<Gamma>(2.5, 312.5);
  params.data_disk = std::make_shared<Gamma>(2.8, 233.33);
  params.backend_parse = std::make_shared<Degenerate>(0.0005);
  params.processes = 1;
  return params;
}

SystemParams tape_system(double total_rate, unsigned devices) {
  SystemParams params;
  params.frontend = tape_frontend(total_rate);
  for (unsigned d = 0; d < devices; ++d) {
    params.devices.push_back(tape_device(total_rate / devices));
  }
  return params;
}

// The compiled response tapes of the service family (four devices at 30
// req/s each) and its variants, pinned with each device's fingerprint():
// that keys every PredictionCache entry, so a compiler change that moves
// any of these moves cache keys.  A redundancy wrap compiles the base
// tape (the default row's) and folds its own fields into the device
// fingerprint only; without a wrap the two fingerprints are one.
TEST(TapeIntegration, CompiledResponseTapesArePinned) {
  using Queue = ModelOptions::DiskQueue;
  using Mode = RedundancyOptions::Mode;
  struct Pin {
    const char* name;
    SystemParams params;
    ModelOptions options;
    std::uint64_t fingerprint;
    std::size_t ops;
    std::size_t slots;
    std::size_t generic_leaves;
    std::uint64_t device_fingerprint;
  };
  const SystemParams family = tape_system(120.0, 4);
  SystemParams four_process = family;
  for (DeviceParams& device : four_process.devices) device.processes = 4;
  SystemParams tiered = family;
  for (DeviceParams& device : tiered.devices) {
    device.tier.enabled = true;
    device.tier.hit_ratio = 0.5;
    device.tier.read_service = std::make_shared<Degenerate>(0.4e-3);
    device.tier.write_service = std::make_shared<Degenerate>(0.6e-3);
  }
  DegradedScenario slow_disk;
  slow_disk.slow_device = 0;
  slow_disk.service_inflation = 1.5;
  const std::vector<Pin> pins = {
      {"default", family, {}, 0xf3d1113b99c988edULL, 31, 6, 0,
       0xf3d1113b99c988edULL},
      {"mm1k_4_processes", four_process, {.disk_queue = Queue::kMM1K},
       0xfc41dfc494d77d00ULL, 32, 7, 0, 0xfc41dfc494d77d00ULL},
      {"mg1k_4_processes", four_process, {.disk_queue = Queue::kMG1K},
       0x8194d237321fc946ULL, 36, 7, 0, 0x8194d237321fc946ULL},
      {"no_wta", family, {.include_wta = false}, 0x3506b2073bcf7a09ULL, 29,
       5, 0, 0x3506b2073bcf7a09ULL},
      {"tier_50pct", tiered, {}, 0x624ff5cf60f1742cULL, 33, 6, 0,
       0x624ff5cf60f1742cULL},
      {"hedge_40ms", family,
       {.redundancy = {.mode = Mode::kHedge, .hedge_delay = 0.04}},
       0xf3d1113b99c988edULL, 31, 6, 0, 0x1620f0af55f7b260ULL},
      {"min_of_2", family, {.redundancy = {.mode = Mode::kMinOfN, .n = 2}},
       0xf3d1113b99c988edULL, 31, 6, 0, 0x393fa566511f9323ULL},
      // Device 0's disks are Scaled: the tape scales its argument.
      {"scaled_slow_disk", degrade(family, slow_disk), {},
       0x05a44be26321e235ULL, 37, 6, 0, 0x05a44be26321e235ULL},
  };
  for (const Pin& pin : pins) {
    const SystemModel model(pin.params, pin.options);
    const numerics::TransformTape& tape = model.devices()[0].response_tape();
    EXPECT_EQ(tape.fingerprint(), pin.fingerprint) << pin.name;
    EXPECT_EQ(tape.op_count(), pin.ops) << pin.name;
    EXPECT_EQ(tape.slot_count(), pin.slots) << pin.name;
    EXPECT_EQ(tape.generic_leaf_count(), pin.generic_leaves) << pin.name;
    EXPECT_EQ(model.devices()[0].fingerprint(), pin.device_fingerprint)
        << pin.name;
  }
}

TEST(TapeIntegration, DeviceTapeCdfBitIdenticalToScalarTreeWalk) {
  const SystemParams params = tape_system(80.0, 2);
  const SystemModel model(params);
  for (std::size_t d = 0; d < model.devices().size(); ++d) {
    const DeviceModel& device = model.devices()[d];
    const DistPtr response =
        response_tree(model.frontend(), params.devices[d], {});
    const numerics::LaplaceFn lt = [&response](std::complex<double> s) {
      return response->laplace(s);
    };
    for (const double sla : {0.005, 0.02, 0.05, 0.15}) {
      EXPECT_EQ(device.response_tape().cdf(sla),
                numerics::cdf_from_laplace(lt, sla));
    }
  }
}

TEST(TapeIntegration, PredictionMatchesManualTapeWeightedSum) {
  const SystemModel model(tape_system(90.0, 3));
  const double sla = 0.03;
  double weighted = 0.0;
  double total = 0.0;
  for (const auto& device : model.devices()) {
    weighted += device.arrival_rate() *
                device.response_tape().cdf(sla, kModelEulerOrder);
    total += device.arrival_rate();
  }
  EXPECT_EQ(model.predict_sla_percentile(sla), weighted / total);
}

TEST(TapeIntegration, IdenticalDevicesShareTapeFingerprint) {
  const SystemModel model(tape_system(96.0, 3));
  const std::uint64_t fp = model.devices()[0].fingerprint();
  EXPECT_EQ(fp, model.devices()[0].response_tape().fingerprint());
  for (const auto& device : model.devices()) {
    EXPECT_EQ(device.fingerprint(), fp);
  }
  // A different parameter set must not collide with the healthy one.
  SystemParams other = tape_system(96.0, 3);
  other.devices[0].data_miss_ratio = 0.8;
  const SystemModel changed(other);
  EXPECT_NE(changed.devices()[0].fingerprint(), fp);
  EXPECT_EQ(changed.devices()[1].fingerprint(), fp);
}

TEST(TapeIntegration, CachedAndUncachedPredictionsBitIdentical) {
  PredictionCache cache;
  const SystemParams params = tape_system(84.0, 2);
  const SystemModel uncached(params);
  const SystemModel cached(params, {}, PredictOptions{1, &cache});
  const std::vector<double> slas = {0.004, 0.01, 0.03, 0.08, 0.2};
  EXPECT_EQ(uncached.predict_sla_percentiles(slas),
            cached.predict_sla_percentiles(slas));
  // Second pass is served from the cache and must reproduce the values.
  EXPECT_EQ(uncached.predict_sla_percentiles(slas),
            cached.predict_sla_percentiles(slas));
}

TEST(TapeIntegration, LatencyQuantilesEqualSingleCalls) {
  const SystemModel model(tape_system(70.0, 2));
  const std::vector<double> percentiles = {0.5, 0.9, 0.95, 0.99};
  const std::vector<double> ladder = model.latency_quantiles(percentiles);
  ASSERT_EQ(ladder.size(), percentiles.size());
  for (std::size_t i = 0; i < percentiles.size(); ++i) {
    EXPECT_EQ(ladder[i], model.latency_quantile(percentiles[i]));
    // Each bound must actually deliver its percentile.
    EXPECT_NEAR(model.predict_sla_percentile(ladder[i]), percentiles[i],
                1e-6);
  }
  EXPECT_TRUE(std::is_sorted(ladder.begin(), ladder.end()));
}

}  // namespace
}  // namespace cosm::core
