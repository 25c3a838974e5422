#include "sim/metrics.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "obs/obs.hpp"

namespace cosm::sim {

namespace {
std::size_t kind_index(AccessKind kind) {
  return static_cast<std::size_t>(kind);
}
}  // namespace

SimMetrics::SimMetrics(std::uint32_t device_count)
    : devices_(device_count), op_samples_(device_count) {
  COSM_REQUIRE(device_count > 0, "metrics need at least one device");
}

void SimMetrics::enable_streaming(const StreamingConfig& config) {
  COSM_REQUIRE(completed_ == 0,
               "enable_streaming must precede the first completed request");
  latency_hist_.emplace(config.hist_min, config.hist_max,
                        config.buckets_per_decade);
  keep_request_samples = false;
}

void SimMetrics::reserve_request_samples(std::size_t count) {
  if (keep_request_samples) requests_.reserve(count);
}

void SimMetrics::on_request_complete(const RequestSample& sample) {
  COSM_REQUIRE(sample.device < devices_.size(), "device id out of range");
  ++completed_;
  if (obs::enabled()) {
    obs::add(obs::Counter::kSimRequests);
    if (sample.failed) obs::add(obs::Counter::kSimFailures);
    if (sample.timed_out && !sample.failed) {
      obs::add(obs::Counter::kSimTimeouts);
    }
  }
  if (sample.failed) {
    ++failed_;
  } else if (sample.timed_out) {
    ++timeouts_;
  } else if (sample.retried) {
    ++retried_ok_;
  }
  ++devices_[sample.device].requests;
  if (sample.frontend_arrival >= sample_start_time) {
    if (!sample.timed_out && !sample.failed) {
      ++latency_count_;
      latency_moments_.add(sample.response_latency);
      if (latency_hist_) latency_hist_->add(sample.response_latency);
    }
    if (keep_request_samples) requests_.push_back(sample);
  }
}

double SimMetrics::latency_quantile(double p) const {
  COSM_REQUIRE(p >= 0.0 && p <= 1.0, "quantile p must be in [0, 1]");
  if (latency_hist_) return latency_hist_->quantile(p);
  quantile_scratch_.clear();
  quantile_scratch_.reserve(requests_.size());
  for (const RequestSample& sample : requests_) {
    if (!sample.timed_out && !sample.failed) {
      quantile_scratch_.push_back(sample.response_latency);
    }
  }
  if (quantile_scratch_.empty()) return 0.0;
  const double pos = p * static_cast<double>(quantile_scratch_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto nth = quantile_scratch_.begin() +
                   static_cast<std::ptrdiff_t>(lo);
  std::nth_element(quantile_scratch_.begin(), nth, quantile_scratch_.end());
  const double lo_value = *nth;
  if (lo + 1 >= quantile_scratch_.size()) return lo_value;
  // The interpolation partner is the minimum of the right partition.
  const double hi_value =
      *std::min_element(nth + 1, quantile_scratch_.end());
  return lo_value + (pos - static_cast<double>(lo)) * (hi_value - lo_value);
}

void SimMetrics::on_attempt(std::uint32_t device, bool is_retry,
                            bool is_failover) {
  COSM_REQUIRE(device < devices_.size(), "device id out of range");
  ++devices_[device].attempts;
  if (is_retry) {
    ++retry_attempts_;
    obs::add(obs::Counter::kSimRetryAttempts);
  }
  if (is_failover) {
    ++failover_attempts_;
    obs::add(obs::Counter::kSimFailoverAttempts);
  }
}

void SimMetrics::on_hedge_issued() {
  ++hedge_attempts_;
  obs::add(obs::Counter::kSimHedgeIssued);
}

void SimMetrics::on_hedge_win() {
  ++hedge_wins_;
  obs::add(obs::Counter::kSimHedgeWins);
}

void SimMetrics::on_fanout_group() {
  ++fanout_groups_;
  obs::add(obs::Counter::kSimFanoutGroups);
}

void SimMetrics::on_attempt_cancelled() {
  ++cancelled_attempts_;
  obs::add(obs::Counter::kSimCancelAttempts);
}

void SimMetrics::merge_from(const SimMetrics& other,
                            std::uint32_t device_offset) {
  COSM_REQUIRE(static_cast<std::size_t>(device_offset) +
                       other.devices_.size() <=
                   devices_.size(),
               "merge_from device range exceeds this metrics' device count");
  COSM_REQUIRE(streaming() == other.streaming(),
               "merge_from requires both sides in the same latency mode");
  for (std::size_t d = 0; d < other.devices_.size(); ++d) {
    DeviceCounters& dst = devices_[device_offset + d];
    const DeviceCounters& src = other.devices_[d];
    dst.requests += src.requests;
    dst.attempts += src.attempts;
    dst.data_reads += src.data_reads;
    for (std::size_t k = 0; k < kAccessKindCount; ++k) {
      dst.accesses[k] += src.accesses[k];
      dst.misses[k] += src.misses[k];
      dst.disk_service_sum[k] += src.disk_service_sum[k];
      dst.disk_ops[k] += src.disk_ops[k];
    }
    dst.tier_reads += src.tier_reads;
    dst.tier_hits += src.tier_hits;
    dst.tier_promotions += src.tier_promotions;
    dst.tier_writebacks += src.tier_writebacks;
    dst.tier_drain_writebacks += src.tier_drain_writebacks;
    dst.tier_ops += src.tier_ops;
    dst.tier_service_sum += src.tier_service_sum;
    for (std::size_t k = 0; k < kAccessKindCount; ++k) {
      auto& dst_ops = op_samples_[device_offset + d][k];
      const auto& src_ops = other.op_samples_[d][k];
      dst_ops.insert(dst_ops.end(), src_ops.begin(), src_ops.end());
    }
  }
  if (keep_request_samples) {
    requests_.reserve(requests_.size() + other.requests_.size());
    for (RequestSample sample : other.requests_) {
      sample.device += device_offset;
      requests_.push_back(sample);
    }
  }
  if (latency_hist_) latency_hist_->merge(*other.latency_hist_);
  latency_moments_.merge(other.latency_moments_);
  latency_count_ += other.latency_count_;
  completed_ += other.completed_;
  timeouts_ += other.timeouts_;
  failed_ += other.failed_;
  retried_ok_ += other.retried_ok_;
  retry_attempts_ += other.retry_attempts_;
  failover_attempts_ += other.failover_attempts_;
  hedge_attempts_ += other.hedge_attempts_;
  hedge_wins_ += other.hedge_wins_;
  fanout_groups_ += other.fanout_groups_;
  cancelled_attempts_ += other.cancelled_attempts_;
}

OutcomeCounts SimMetrics::outcomes() const {
  OutcomeCounts counts;
  counts.timed_out = timeouts_;
  counts.failed = failed_;
  counts.ok_retried = retried_ok_;
  counts.ok = completed_ - timeouts_ - failed_ - retried_ok_;
  counts.retry_attempts = retry_attempts_;
  counts.failover_attempts = failover_attempts_;
  counts.hedge_attempts = hedge_attempts_;
  counts.hedge_wins = hedge_wins_;
  counts.fanout_groups = fanout_groups_;
  counts.cancelled_attempts = cancelled_attempts_;
  return counts;
}

void SimMetrics::on_cache_access(std::uint32_t device, AccessKind kind,
                                 bool hit) {
  COSM_REQUIRE(device < devices_.size(), "device id out of range");
  ++devices_[device].accesses[kind_index(kind)];
  if (!hit) ++devices_[device].misses[kind_index(kind)];
}

void SimMetrics::on_tier_read(std::uint32_t device, bool hit) {
  COSM_REQUIRE(device < devices_.size(), "device id out of range");
  ++devices_[device].tier_reads;
  if (hit) ++devices_[device].tier_hits;
  if (obs::enabled()) {
    obs::add(obs::Counter::kSimTierReads);
    if (hit) obs::add(obs::Counter::kSimTierHits);
  }
}

void SimMetrics::on_tier_op(std::uint32_t device, double service_time) {
  COSM_REQUIRE(device < devices_.size(), "device id out of range");
  ++devices_[device].tier_ops;
  devices_[device].tier_service_sum += service_time;
}

void SimMetrics::on_tier_promotion(std::uint32_t device) {
  COSM_REQUIRE(device < devices_.size(), "device id out of range");
  ++devices_[device].tier_promotions;
  obs::add(obs::Counter::kSimTierPromotions);
}

void SimMetrics::on_tier_writeback(std::uint32_t device, bool drain) {
  COSM_REQUIRE(device < devices_.size(), "device id out of range");
  if (drain) {
    ++devices_[device].tier_drain_writebacks;
    obs::add(obs::Counter::kSimTierDrainWritebacks);
  } else {
    ++devices_[device].tier_writebacks;
    obs::add(obs::Counter::kSimTierWritebacks);
  }
}

void SimMetrics::on_disk_op(std::uint32_t device, AccessKind kind,
                            double service_time) {
  COSM_REQUIRE(device < devices_.size(), "device id out of range");
  devices_[device].disk_service_sum[kind_index(kind)] += service_time;
  ++devices_[device].disk_ops[kind_index(kind)];
}

void SimMetrics::on_data_read(std::uint32_t device) {
  COSM_REQUIRE(device < devices_.size(), "device id out of range");
  ++devices_[device].data_reads;
}

void SimMetrics::on_operation_latency(std::uint32_t device, AccessKind kind,
                                      double latency) {
  if (!keep_operation_samples) return;
  COSM_REQUIRE(device < devices_.size(), "device id out of range");
  op_samples_[device][kind_index(kind)].push_back(latency);
}

const DeviceCounters& SimMetrics::device(std::uint32_t id) const {
  COSM_REQUIRE(id < devices_.size(), "device id out of range");
  return devices_[id];
}

double SimMetrics::miss_ratio(std::uint32_t device, AccessKind kind) const {
  const DeviceCounters& counters = this->device(device);
  const std::uint64_t accesses = counters.accesses[kind_index(kind)];
  if (accesses == 0) return 0.0;
  return static_cast<double>(counters.misses[kind_index(kind)]) /
         static_cast<double>(accesses);
}

double SimMetrics::mean_disk_service(std::uint32_t device,
                                     AccessKind kind) const {
  const DeviceCounters& counters = this->device(device);
  const std::uint64_t ops = counters.disk_ops[kind_index(kind)];
  if (ops == 0) return 0.0;
  return counters.disk_service_sum[kind_index(kind)] /
         static_cast<double>(ops);
}

const std::vector<double>& SimMetrics::operation_samples(
    std::uint32_t device, AccessKind kind) const {
  COSM_REQUIRE(device < devices_.size(), "device id out of range");
  return op_samples_[device][kind_index(kind)];
}

}  // namespace cosm::sim
