// The pipeline's determinism contract: predictions are bit-identical
// with and without a PredictionCache attached — cached values are
// deterministic functions of their keys — and a model builds and
// evaluates each distinct device once.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <vector>

#include "core/errors.hpp"
#include "core/system_model.hpp"
#include "core/whatif.hpp"
#include "numerics/distribution.hpp"
#include "obs/obs.hpp"

// Allocation counter: every operator new in this binary bumps it, so a
// test can count what an SLA sweep allocates (the pattern of
// tests/numerics/test_transform_tape.cpp).
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// GCC pairs inlined make_shared allocations (through this operator new)
// with these free() calls and reports a mismatch; new/new[] allocate
// with malloc, so the pairing is right.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using cosm::core::DegradedScenario;
using cosm::core::DeviceParams;
using cosm::core::ModelOptions;
using cosm::core::PredictionCache;
using cosm::core::SlaTarget;
using cosm::core::SystemModel;
using cosm::core::SystemParams;

DeviceParams make_device(double arrival_rate, unsigned processes = 2) {
  using cosm::numerics::Degenerate;
  using cosm::numerics::Gamma;
  DeviceParams device;
  device.arrival_rate = arrival_rate;
  device.data_read_rate = arrival_rate * 1.2;
  device.index_miss_ratio = 0.3;
  device.meta_miss_ratio = 0.3;
  device.data_miss_ratio = 0.7;
  device.index_disk = std::make_shared<Gamma>(3.0, 300.0);
  device.meta_disk = std::make_shared<Gamma>(2.5, 312.5);
  device.data_disk = std::make_shared<Gamma>(2.8, 233.33);
  device.backend_parse = std::make_shared<Degenerate>(0.5e-3);
  device.processes = processes;
  return device;
}

SystemParams make_cluster(double system_rate, unsigned devices) {
  SystemParams params;
  params.frontend.arrival_rate = system_rate;
  params.frontend.processes = 3;
  params.frontend.frontend_parse =
      std::make_shared<cosm::numerics::Degenerate>(0.8e-3);
  for (unsigned d = 0; d < devices; ++d) {
    params.devices.push_back(
        make_device(system_rate / static_cast<double>(devices)));
  }
  return params;
}

const std::vector<double> kSlas = {0.04, 0.08, 0.12, 0.2};
const std::vector<double> kLevels = {0.5, 0.9, 0.99};

// One device's unwrapped CDF at t, read straight from its tape.
double tape_cdf(const cosm::numerics::TransformTape& tape, double t) {
  cosm::numerics::CdfDensityPoint point;
  tape.invert_cdf(std::span<const double>(&t, 1),
                  cosm::core::kModelEulerOrder,
                  std::span<cosm::numerics::CdfDensityPoint>(&point, 1));
  return point.cdf.value;
}

TEST(PredictionCache, CachedMatchesUncached) {
  const SystemParams params = make_cluster(140.0, 4);
  const SystemModel reference(params);
  const std::vector<double> expected =
      reference.predict_sla_percentiles(kSlas);

  for (const bool with_cache : {false, true}) {
    PredictionCache cache;
    const SystemModel model(params, {}, with_cache ? &cache : nullptr);
    const std::vector<double> got = model.predict_sla_percentiles(kSlas);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      // Exact doubles: determinism means bit-identical, not "close".
      EXPECT_EQ(got[i], expected[i])
          << "cache=" << with_cache << " sla=" << kSlas[i];
    }
    EXPECT_EQ(model.latency_quantile(0.95), reference.latency_quantile(0.95))
        << "cache=" << with_cache;
    // Ladders too, twice: with a cache the second pass serves every
    // element from the cached answers.
    for (int pass = 0; pass < 2; ++pass) {
      EXPECT_EQ(model.latency_quantiles(kLevels),
                reference.latency_quantiles(kLevels))
          << "cache=" << with_cache << " pass=" << pass;
    }
  }
}

TEST(PredictionCache, ColdQuantileCachesTheAnswerNotTheProbes) {
  using cosm::obs::Counter;
  using cosm::obs::counter_value;
  cosm::obs::set_enabled(true);
  PredictionCache cache;
  // 8 identical devices: one value class, so each probe is one inversion.
  const SystemModel model(make_cluster(280.0, 8), {},
                          &cache);
  const std::size_t entries = cache.cdf.stats().size;
  cosm::obs::reset();
  const double first = model.latency_quantile(0.95);
  EXPECT_LE(counter_value(Counter::kInversionCalls), 5u);
  EXPECT_EQ(cache.cdf.stats().size, entries + 1);
  EXPECT_EQ(counter_value(Counter::kQuantileColdStart), 1u);
  EXPECT_EQ(counter_value(Counter::kQuantileCacheHit), 0u);

  // The repeat is one lookup: no inversion, the same bits.
  cosm::obs::reset();
  EXPECT_EQ(model.latency_quantile(0.95), first);
  EXPECT_EQ(counter_value(Counter::kInversionCalls), 0u);
  EXPECT_EQ(counter_value(Counter::kQuantileCacheHit), 1u);
  EXPECT_EQ(counter_value(Counter::kQuantileColdStart), 1u);
  EXPECT_EQ(cache.cdf.stats().size, entries + 1);
  cosm::obs::set_enabled(false);
}

TEST(PredictionCache, LadderElementsAreCachedSingleQueries) {
  using cosm::obs::Counter;
  using cosm::obs::counter_value;
  const std::vector<double> levels = {0.5, 0.9, 0.99};
  cosm::obs::set_enabled(true);
  PredictionCache cache;
  const SystemModel model(make_cluster(280.0, 8), {},
                          &cache);
  const std::size_t entries = cache.cdf.stats().size;
  cosm::obs::reset();
  const std::vector<double> ladder = model.latency_quantiles(levels);
  ASSERT_EQ(ladder.size(), levels.size());
  EXPECT_EQ(cache.cdf.stats().size, entries + 3);
  EXPECT_EQ(counter_value(Counter::kQuantileColdStart), 3u);
  EXPECT_EQ(counter_value(Counter::kQuantileCacheHit), 0u);

  // The repeat is three lookups: no inversion, the same bits.
  cosm::obs::reset();
  EXPECT_EQ(model.latency_quantiles(levels), ladder);
  EXPECT_EQ(counter_value(Counter::kInversionCalls), 0u);
  EXPECT_EQ(counter_value(Counter::kQuantileCacheHit), 3u);
  cosm::obs::set_enabled(false);

  // Each element is the answer a single uncached query gives.
  const SystemModel uncached(make_cluster(280.0, 8));
  for (std::size_t i = 0; i < levels.size(); ++i) {
    EXPECT_EQ(ladder[i], uncached.latency_quantile(levels[i]))
        << "p = " << levels[i];
  }
}

TEST(PredictionCache, BatchMatchesScalarQueries) {
  PredictionCache cache;
  const SystemModel model(make_cluster(120.0, 3), {},
                          &cache);
  const std::vector<double> batch = model.predict_sla_percentiles(kSlas);
  ASSERT_EQ(batch.size(), kSlas.size());
  for (std::size_t i = 0; i < kSlas.size(); ++i) {
    EXPECT_EQ(batch[i], model.predict_sla_percentile(kSlas[i]));
  }
  EXPECT_TRUE(model.predict_sla_percentiles({}).empty());
}

TEST(PredictionCache, IdenticalDevicesShareOneBackendBuild) {
  PredictionCache cache;
  const SystemModel model(make_cluster(140.0, 4), {},
                          &cache);
  // The 4 identical devices are one value class: one device-model build
  // (one backend solve, one tape compile), and no duplicate lookups.
  EXPECT_EQ(cache.devices.stats().misses, 1u);
  EXPECT_EQ(cache.devices.stats().hits, 0u);
  // The shared build really is shared, not copied.
  EXPECT_EQ(&model.devices()[0].response_tape(),
            &model.devices()[3].response_tape());

  // One CDF inversion per SLA point, not one per device.
  const std::vector<double> first = model.predict_sla_percentiles(kSlas);
  EXPECT_EQ(cache.cdf.stats().misses, kSlas.size());
  EXPECT_EQ(cache.cdf.stats().hits, 0u);

  // A second identical model is one device-model hit: no backend solve,
  // no compile, the cached tape itself.
  const SystemModel again(make_cluster(140.0, 4), {},
                          &cache);
  EXPECT_EQ(cache.devices.stats().misses, 1u);
  EXPECT_EQ(cache.devices.stats().hits, 1u);
  EXPECT_EQ(&again.devices()[0].response_tape(),
            &model.devices()[0].response_tape());
  EXPECT_EQ(first, again.predict_sla_percentiles(kSlas));
}

TEST(PredictionCache, CachedDeviceKeepsNoTreeAlive) {
  // A cached device model is its compiled tape: the backend solve and the
  // response tree it was compiled from are freed at build, so a resident
  // entry pins none of the parameter distributions they were built over.
  PredictionCache cache;
  const SystemParams params = make_cluster(140.0, 4);
  const DeviceParams& device = params.devices.front();
  const auto use_counts = [&] {
    return std::vector<long>{params.frontend.frontend_parse.use_count(),
                             device.backend_parse.use_count(),
                             device.index_disk.use_count(),
                             device.meta_disk.use_count(),
                             device.data_disk.use_count()};
  };
  const std::vector<long> before = use_counts();
  {
    const SystemModel model(params, {}, &cache);
  }
  EXPECT_EQ(cache.devices.stats().size, 1u);
  EXPECT_EQ(use_counts(), before);
  // The entry still serves: a rebuild hits it.
  const SystemModel again(params, {}, &cache);
  EXPECT_EQ(cache.devices.stats().hits, 1u);
}

TEST(PredictionCache, ValueEqualDevicesBuildOnce) {
  cosm::obs::set_enabled(true);
  // make_cluster allocates fresh distributions per device: equal by
  // value, distinct by pointer.  The service's shape repeats one
  // parameter set by copy, sharing the pointers.  Both build once.
  SystemParams copies = make_cluster(140.0, 4);
  copies.devices.assign(4, copies.devices.front());
  for (const SystemParams& params : {make_cluster(140.0, 4), copies}) {
    cosm::obs::reset();
    const SystemModel model(params);
    EXPECT_EQ(cosm::obs::counter_value(cosm::obs::Counter::kTapeCompiles),
              1u);
    EXPECT_EQ(&model.devices()[0].response_tape(),
              &model.devices()[3].response_tape());
    PredictionCache cache;
    const SystemModel cached(params, {}, &cache);
    EXPECT_EQ(cache.devices.stats().misses, 1u);
    EXPECT_EQ(cache.devices.stats().hits, 0u);
  }
  cosm::obs::set_enabled(false);
}

TEST(PredictionCache, EveryResponseFieldMissesTheDeviceCache) {
  using cosm::core::FrontendGroup;
  using cosm::core::RedundancyOptions;
  using cosm::numerics::Degenerate;
  const SystemParams base = make_cluster(140.0, 2);
  ModelOptions base_options;
  base_options.redundancy.mode = RedundancyOptions::Mode::kKthOfN;
  base_options.redundancy.n = 3;
  base_options.redundancy.k = 2;

  struct Variant {
    const char* field;
    SystemParams params;
    ModelOptions options;
  };
  std::vector<Variant> variants;
  const auto add = [&](const char* field, auto&& mutate) {
    Variant v{field, base, base_options};
    mutate(v.params.frontend, v.options);
    variants.push_back(std::move(v));
  };
  using Frontend = cosm::core::FrontendParams;
  add("frontend.processes", [](Frontend& f, ModelOptions&) { f.processes = 4; });
  add("frontend.frontend_parse", [](Frontend& f, ModelOptions&) {
    f.frontend_parse = std::make_shared<Degenerate>(0.9e-3);
  });
  add("frontend.groups", [](Frontend& f, ModelOptions&) {
    f.groups = {FrontendGroup{3, 1.0, f.frontend_parse}};
  });
  add("include_wta", [](Frontend&, ModelOptions& o) { o.include_wta = false; });
  add("redundancy.mode", [](Frontend&, ModelOptions& o) {
    o.redundancy.mode = RedundancyOptions::Mode::kMinOfN;
  });
  add("redundancy.n", [](Frontend&, ModelOptions& o) { o.redundancy.n = 4; });
  add("redundancy.k", [](Frontend&, ModelOptions& o) { o.redundancy.k = 1; });
  add("redundancy.hedge_delay",
      [](Frontend&, ModelOptions& o) { o.redundancy.hedge_delay = 0.02; });
  add("redundancy.fork_join_correction", [](Frontend&, ModelOptions& o) {
    o.redundancy.fork_join_correction = false;
  });

  PredictionCache cache;
  const SystemModel first(base, base_options, &cache);
  EXPECT_EQ(cache.devices.stats().misses, 1u);
  for (const Variant& v : variants) {
    const std::uint64_t misses = cache.devices.stats().misses;
    const SystemModel model(v.params, v.options, &cache);
    EXPECT_EQ(cache.devices.stats().misses, misses + 1) << v.field;
    EXPECT_EQ(cache.devices.stats().hits, 0u) << v.field;
    // Whatever the cache holds, the answer is the uncached model's.
    const SystemModel uncached(v.params, v.options);
    EXPECT_EQ(model.predict_sla_percentile(0.08),
              uncached.predict_sla_percentile(0.08))
        << v.field;
  }
  // The frontend arrival rate cannot change alone in a valid SystemParams
  // (device rates must sum to it), so check its key directly.
  cosm::core::FrontendParams faster = base.frontend;
  faster.arrival_rate *= 2.0;
  EXPECT_NE(cosm::core::device_model_key(faster, base.devices[0],
                                         base_options),
            cosm::core::device_model_key(base.frontend, base.devices[0],
                                         base_options));
  // The unchanged configuration still hits.
  const SystemModel twin(base, base_options, &cache);
  EXPECT_EQ(cache.devices.stats().hits, 1u);
}

TEST(PredictionCache, MixedClusterMatchesPerDeviceWeightedSum) {
  // Two value classes interleaved (A B A B A): the reduction must read
  // each device's own class, in device order.
  SystemParams params = make_cluster(150.0, 5);
  params.devices[1] = make_device(30.0, 3);
  params.devices[3] = make_device(30.0, 3);
  for (const bool with_cache : {false, true}) {
    PredictionCache cache;
    const SystemModel model(params, {}, with_cache ? &cache : nullptr);
    ASSERT_EQ(model.devices().size(), 5u);
    EXPECT_EQ(&model.devices()[0].response_tape(),
              &model.devices()[4].response_tape());
    EXPECT_EQ(&model.devices()[1].response_tape(),
              &model.devices()[3].response_tape());
    EXPECT_NE(&model.devices()[0].response_tape(),
              &model.devices()[1].response_tape());
    const std::vector<double> got = model.predict_sla_percentiles(kSlas);
    for (std::size_t s = 0; s < kSlas.size(); ++s) {
      double weighted = 0.0;
      double total = 0.0;
      for (const auto& device : model.devices()) {
        weighted += device.arrival_rate() *
                    tape_cdf(device.response_tape(), kSlas[s]);
        total += device.arrival_rate();
      }
      EXPECT_EQ(got[s], weighted / total) << "cache=" << with_cache;
      EXPECT_EQ(model.predict_sla_percentile(kSlas[s]), got[s]);
    }
  }
}

TEST(PredictionCache, SweepEvaluatesEachDevicesMissesInOneBatch) {
  using cosm::obs::Counter;
  using cosm::obs::counter_value;
  // Two value classes (A B A B A), so two tape batches per cold sweep.
  SystemParams params = make_cluster(150.0, 5);
  params.devices[1] = make_device(30.0, 3);
  params.devices[3] = make_device(30.0, 3);
  // A bound repeated, two new and two cached after the cold sweep.
  const std::vector<double> mixed = {0.04, 0.3, 0.12, 0.3, 0.5};
  const SystemModel uncached(params);
  const std::vector<double> cold_expected =
      uncached.predict_sla_percentiles(kSlas);
  const std::vector<double> mixed_expected =
      uncached.predict_sla_percentiles(mixed);
  PredictionCache cache;
  const SystemModel model(params, {}, &cache);
  cosm::obs::set_enabled(true);

  // Cold: every cell misses, one batched evaluation per distinct device.
  cosm::obs::reset();
  EXPECT_EQ(model.predict_sla_percentiles(kSlas), cold_expected);
  EXPECT_EQ(counter_value(Counter::kCdfCacheMiss), 2 * kSlas.size());
  EXPECT_EQ(counter_value(Counter::kCdfCacheHit), 0u);
  EXPECT_EQ(counter_value(Counter::kTapeEvalBatches), 2u);

  // Half warm: the new bounds miss once each and go in one batch per
  // device; the repeat reads the entry its first occurrence just wrote,
  // as a per-cell lookup in order would.
  cosm::obs::reset();
  EXPECT_EQ(model.predict_sla_percentiles(mixed), mixed_expected);
  EXPECT_EQ(counter_value(Counter::kCdfCacheMiss), 2 * 2u);
  EXPECT_EQ(counter_value(Counter::kCdfCacheHit), 2 * 3u);
  EXPECT_EQ(counter_value(Counter::kTapeEvalBatches), 2u);
  cosm::obs::set_enabled(false);

  // All hits: no tape evaluation, and nothing allocated but the sweep's
  // grid of device values and the returned vector.
  const std::uint64_t before = g_allocations.load();
  const std::vector<double> warm = model.predict_sla_percentiles(mixed);
  EXPECT_EQ(g_allocations.load() - before, 2u);
  EXPECT_EQ(warm, mixed_expected);
}

TEST(PredictionCache, ModelVariantsKeyedSeparately) {
  PredictionCache cache;
  const SystemParams params = make_cluster(140.0, 2);
  ModelOptions no_wta;
  no_wta.include_wta = false;
  const SystemModel full(params, {}, &cache);
  const SystemModel baseline(params, no_wta, &cache);
  // include_wta changes the response distribution: two device models,
  // and CDF points must not be shared between the variants.
  EXPECT_EQ(cache.devices.stats().misses, 2u);
  EXPECT_NE(full.devices()[0].fingerprint(),
            baseline.devices()[0].fingerprint());
  const double a = full.predict_sla_percentile(0.08);
  const double b = baseline.predict_sla_percentile(0.08);
  EXPECT_NE(a, b);
  const SystemModel uncached_baseline(params, no_wta);
  EXPECT_EQ(b, uncached_baseline.predict_sla_percentile(0.08));
}

// The what-if sweeps below share one cache across their models; each
// must return the uncached answer bit for bit.
TEST(PredictionCache, ElasticScheduleCachedMatchesUncached) {
  const auto factory = [](double rate, unsigned devices) {
    return make_cluster(rate, devices);
  };
  const std::vector<double> rates = {60.0, 120.0, 180.0, 240.0, 90.0};
  const SlaTarget target{0.12, 0.9};
  const auto uncached =
      cosm::core::elastic_schedule(factory, rates, target, 8);
  PredictionCache cache;
  const auto cached =
      cosm::core::elastic_schedule(factory, rates, target, 8, {}, &cache);
  EXPECT_EQ(uncached, cached);
  // Periods at distinct rates share no device model (the system rate is
  // part of every device's key), so the shared cache serves the second
  // schedule over the same periods.
  const auto again =
      cosm::core::elastic_schedule(factory, rates, target, 8, {}, &cache);
  EXPECT_EQ(uncached, again);
  EXPECT_GT(cache.combined_stats().hits, 0u);
}

TEST(PredictionCache, DegradedSweepCachedMatchesUncached) {
  const SystemParams healthy = make_cluster(140.0, 4);
  std::vector<DegradedScenario> scenarios(4);
  scenarios[0].slow_device = 0;
  scenarios[0].service_inflation = 2.0;
  scenarios[1].failed_device = 2;
  scenarios[2].retry_rate_factor = 1.15;
  scenarios[3].slow_device = 1;
  scenarios[3].service_inflation = 1.5;
  scenarios[3].retry_rate_factor = 1.05;

  // Each degraded model shares one cache with the other scenarios;
  // every answer must match the uncached one bit for bit.
  PredictionCache cache;
  for (const DegradedScenario& scenario : scenarios) {
    const SystemParams degraded = cosm::core::degrade(healthy, scenario);
    EXPECT_EQ(cosm::core::attainment(degraded, {0.12}, {}, &cache).percentiles,
              cosm::core::attainment(degraded, {0.12}).percentiles);
  }
}

TEST(PredictionCache, OverloadBehaviorCachedMatchesUncached) {
  // Way past saturation for this device profile.
  const SystemParams overloaded = make_cluster(4000.0, 4);
  PredictionCache cache;
  EXPECT_THROW(SystemModel(overloaded, {}, &cache),
               cosm::core::OverloadError);
  const cosm::core::Attainment attained =
      cosm::core::attainment(overloaded, {0.12}, {}, &cache);
  EXPECT_TRUE(attained.overloaded);
  EXPECT_FALSE(attained.percentiles.front() >=
               (SlaTarget{0.12, 0.9}).percentile);
}

}  // namespace
