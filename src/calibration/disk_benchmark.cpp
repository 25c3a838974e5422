#include "calibration/disk_benchmark.hpp"

#include <functional>

#include "common/require.hpp"
#include "sim/engine.hpp"

namespace cosm::calibration {

namespace {

double proportion_denominator(const DiskCalibration& calibration) {
  return calibration.index.mean + calibration.meta.mean +
         calibration.data.mean;
}

OperationFit fit_samples(std::vector<double> samples) {
  OperationFit fit;
  fit.samples = std::move(samples);
  const numerics::SampleStats stats =
      numerics::compute_stats(fit.samples);
  fit.mean = stats.mean;
  fit.selection = numerics::fit_best(fit.samples);
  return fit;
}

}  // namespace

double DiskCalibration::index_proportion() const {
  return index.mean / proportion_denominator(*this);
}

double DiskCalibration::meta_proportion() const {
  return meta.mean / proportion_denominator(*this);
}

double DiskCalibration::data_proportion() const {
  return data.mean / proportion_denominator(*this);
}

DiskCalibration benchmark_disk(const sim::DiskProfile& profile,
                               const DiskBenchmarkConfig& config) {
  COSM_REQUIRE(config.objects >= 10,
               "disk benchmark needs at least 10 objects for a usable fit");
  sim::Engine engine;
  sim::Disk disk(engine, profile, cosm::Rng(config.seed));

  std::vector<double> index_samples;
  std::vector<double> meta_samples;
  std::vector<double> data_samples;
  index_samples.reserve(config.objects);
  meta_samples.reserve(config.objects);
  data_samples.reserve(config.objects);

  // Max 1 outstanding operation: each completion submits the next, so the
  // recorded latency is the raw service time (no queueing), exactly the
  // paper's measurement discipline.
  std::uint32_t remaining = config.objects;
  std::function<void()> read_one_object = [&] {
    if (remaining == 0) return;
    --remaining;
    disk.submit(sim::AccessKind::kIndex, [&](double service, bool) {
      index_samples.push_back(service);
      disk.submit(sim::AccessKind::kMeta, [&](double service2, bool) {
        meta_samples.push_back(service2);
        disk.submit(sim::AccessKind::kData, [&](double service3, bool) {
          data_samples.push_back(service3);
          read_one_object();
        });
      });
    });
  };
  engine.schedule_at(0.0, read_one_object);
  engine.run_all();

  DiskCalibration calibration;
  calibration.index = fit_samples(std::move(index_samples));
  calibration.meta = fit_samples(std::move(meta_samples));
  calibration.data = fit_samples(std::move(data_samples));
  return calibration;
}

}  // namespace cosm::calibration
