// Microbenchmarks (google-benchmark) for the numerics hot paths: Laplace
// inversion (the cost of one percentile query), FFT grid convolution (the
// cross-check path), distribution fitting (calibration cost), a full
// model build-and-predict cycle (the unit of every what-if sweep), and
// the transform-tape kernel against the scalar tree walk it replaces
// (perf_numerics_tape.cpp is the gated regression harness; these are the
// profiling-grade microbenches).
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/system_model.hpp"
#include "numerics/fft.hpp"
#include "numerics/fitting.hpp"
#include "numerics/grid.hpp"
#include "numerics/lt_inversion.hpp"
#include "numerics/transform_tape.hpp"

namespace {

using namespace cosm::numerics;  // NOLINT — bench-local brevity

void BM_EulerCdfInversion(benchmark::State& state) {
  const Gamma gamma(2.8, 233.33);
  const LaplaceFn lt = [&gamma](std::complex<double> s) {
    return gamma.laplace(s);
  };
  double t = 0.001;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cdf_from_laplace(lt, t));
    t = t < 0.1 ? t + 0.001 : 0.001;
  }
}
BENCHMARK(BM_EulerCdfInversion);

void BM_TalbotInversion(benchmark::State& state) {
  const Gamma gamma(2.8, 233.33);
  const LaplaceFn lt = [&gamma](std::complex<double> s) {
    return gamma.laplace(s) / s;
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(invert_talbot(lt, 0.02));
  }
}
BENCHMARK(BM_TalbotInversion);

void BM_FftConvolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> a(n, 1.0 / static_cast<double>(n));
  std::vector<double> b(n, 1.0 / static_cast<double>(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(convolve(a, b));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_FftConvolve)->Range(1 << 8, 1 << 14)->Complexity();

void BM_GammaMleFit(benchmark::State& state) {
  cosm::Rng rng(7);
  std::vector<double> samples(static_cast<std::size_t>(state.range(0)));
  for (auto& x : samples) x = rng.gamma(2.8, 233.33);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fit_gamma(samples));
  }
}
BENCHMARK(BM_GammaMleFit)->Arg(1000)->Arg(10000);

void BM_GridDiscretize(benchmark::State& state) {
  const Gamma gamma(2.8, 233.33);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GridDensity::discretize(gamma, 1e-4, 0.25));
  }
}
BENCHMARK(BM_GridDiscretize);

void BM_ModelBuildAndPredict(benchmark::State& state) {
  cosm::core::SystemParams params;
  params.frontend.arrival_rate = 120.0;
  params.frontend.processes = 3;
  params.frontend.frontend_parse = std::make_shared<Degenerate>(0.8e-3);
  for (int d = 0; d < 4; ++d) {
    cosm::core::DeviceParams device;
    device.arrival_rate = 30.0;
    device.data_read_rate = 36.0;
    device.index_miss_ratio = 0.3;
    device.meta_miss_ratio = 0.3;
    device.data_miss_ratio = 0.7;
    device.index_disk = std::make_shared<Gamma>(3.0, 300.0);
    device.meta_disk = std::make_shared<Gamma>(2.5, 312.5);
    device.data_disk = std::make_shared<Gamma>(2.8, 233.33);
    device.backend_parse = std::make_shared<Degenerate>(0.5e-3);
    params.devices.push_back(device);
  }
  for (auto _ : state) {
    const cosm::core::SystemModel model(params);
    benchmark::DoNotOptimize(model.predict_sla_percentile(0.1));
  }
}
BENCHMARK(BM_ModelBuildAndPredict);

// One realistic 4-process device (S_q * W_a * S_be with the M/M/1/K disk
// substitution): the response every percentile query inverts, shared by
// the scalar-vs-tape pairs below.
const cosm::core::SystemParams& tape_bench_params() {
  static const cosm::core::SystemParams params = [] {
    cosm::core::SystemParams params;
    params.frontend.arrival_rate = 30.0;
    params.frontend.processes = 3;
    params.frontend.frontend_parse = std::make_shared<Degenerate>(0.8e-3);
    cosm::core::DeviceParams device;
    device.arrival_rate = 30.0;
    device.data_read_rate = 36.0;
    device.index_miss_ratio = 0.3;
    device.meta_miss_ratio = 0.3;
    device.data_miss_ratio = 0.7;
    device.index_disk = std::make_shared<Gamma>(3.0, 300.0);
    device.meta_disk = std::make_shared<Gamma>(2.5, 312.5);
    device.data_disk = std::make_shared<Gamma>(2.8, 233.33);
    device.backend_parse = std::make_shared<Degenerate>(0.5e-3);
    device.processes = 4;
    params.devices.push_back(device);
    return params;
  }();
  return params;
}

// The compiled model (its device tape) and the response tree it compiles.
const cosm::core::SystemModel& tape_bench_model() {
  static const cosm::core::SystemModel model(tape_bench_params());
  return model;
}

DistPtr tape_bench_tree() {
  return cosm::core::response_tree(tape_bench_model().frontend(),
                                   tape_bench_params().devices[0], {});
}

void BM_ScalarTreeCdf(benchmark::State& state) {
  const DistPtr response = tape_bench_tree();
  const LaplaceFn lt = [&response](std::complex<double> s) {
    return response->laplace(s);
  };
  double t = 0.01;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cdf_from_laplace(lt, t));
    t = t < 0.2 ? t + 0.01 : 0.01;
  }
}
BENCHMARK(BM_ScalarTreeCdf);

void BM_TapeCdf(benchmark::State& state) {
  const TransformTape& tape = tape_bench_model().devices()[0].response_tape();
  double t = 0.01;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tape.cdf(t));
    t = t < 0.2 ? t + 0.01 : 0.01;
  }
}
BENCHMARK(BM_TapeCdf);

void BM_TapeCdfMany(benchmark::State& state) {
  // A 24-point SLA sweep in one call: tape setup and dispatch amortize
  // across the whole grid (the predict_sla_percentiles fast path).
  const TransformTape& tape = tape_bench_model().devices()[0].response_tape();
  std::vector<double> ts;
  for (int i = 1; i <= 24; ++i) ts.push_back(0.01 * i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tape.cdf_many(ts));
  }
}
BENCHMARK(BM_TapeCdfMany);

void BM_TapeCompile(benchmark::State& state) {
  const DistPtr response = tape_bench_tree();
  for (auto _ : state) {
    benchmark::DoNotOptimize(TransformTape::compile(response));
  }
}
BENCHMARK(BM_TapeCompile);

}  // namespace

BENCHMARK_MAIN();
