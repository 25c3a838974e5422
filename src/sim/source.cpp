#include "sim/source.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "common/require.hpp"

namespace cosm::sim {

OpenLoopSource::OpenLoopSource(Cluster& cluster,
                               const workload::ObjectCatalog& catalog,
                               const workload::Placement& placement,
                               const workload::PhasePlan& plan,
                               cosm::Rng rng, double write_fraction,
                               workload::ArrivalProcessPtr arrivals)
    : OpenLoopSource(cluster, catalog, placement,
                     workload::expand_phases(plan), rng, write_fraction,
                     std::move(arrivals)) {}

OpenLoopSource::OpenLoopSource(Cluster& cluster,
                               const workload::ObjectCatalog& catalog,
                               const workload::Placement& placement,
                               std::vector<workload::PhaseSegment> segments,
                               cosm::Rng rng, double write_fraction,
                               workload::ArrivalProcessPtr arrivals)
    : cluster_(cluster),
      catalog_(catalog),
      placement_(placement),
      segments_(std::move(segments)),
      rng_(rng),
      write_fraction_(write_fraction),
      arrival_process_(arrivals
                           ? std::move(arrivals)
                           : std::make_shared<workload::PoissonArrivals>()) {
  COSM_REQUIRE(!segments_.empty(), "phase plan expands to no segments");
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    COSM_REQUIRE(segments_[i].rate > 0 && segments_[i].duration > 0,
                 "phase segments need positive rate and duration");
    if (i > 0) {
      const auto& prev = segments_[i - 1];
      COSM_REQUIRE(segments_[i].start_time >= prev.start_time + prev.duration,
                   "phase segments must be in time order without overlap");
    }
  }
  COSM_REQUIRE(write_fraction >= 0 && write_fraction <= 1,
               "write fraction must be in [0, 1]");
  COSM_REQUIRE(placement_.device_count() == cluster_.config().device_count,
               "placement and cluster disagree on device count");
}

double OpenLoopSource::horizon() const {
  const auto& last = segments_.back();
  return last.start_time + last.duration;
}

double OpenLoopSource::benchmark_start_time() const {
  for (const auto& segment : segments_) {
    if (segment.is_benchmark) return segment.start_time;
  }
  return horizon();
}

void OpenLoopSource::start() {
  // Pre-size the metrics sample vector from the benchmark phases' expected
  // arrival count (Poisson mean = rate * duration, plus headroom for the
  // tail) so sampled long runs never stall on mid-run reallocation.  The
  // cap bounds the up-front reservation for extreme plans.
  double expected = 0.0;
  for (const auto& segment : segments_) {
    if (segment.is_benchmark) expected += segment.rate * segment.duration;
  }
  constexpr double kReserveCap = 1 << 24;
  cluster_.metrics().reserve_request_samples(
      static_cast<std::size_t>(std::min(1.1 * expected, kReserveCap)));
  schedule_next(0, segments_.front().start_time);
}

void OpenLoopSource::schedule_next(std::size_t segment_index, double time) {
  while (segment_index < segments_.size()) {
    const auto& segment = segments_[segment_index];
    const double gap = arrival_process_->next_gap(segment.rate, rng_);
    const double at = std::max(time, segment.start_time) + gap;
    if (at < segment.start_time + segment.duration) {
      cluster_.engine().schedule_at_inline(at, [this, segment_index, at] {
        fire(segment_index, at);
      });
      return;
    }
    // This segment is exhausted; restart the clock at the next segment's
    // boundary so each segment's Poisson process is fresh.
    ++segment_index;
    if (segment_index < segments_.size()) {
      time = segments_[segment_index].start_time;
    }
  }
}

void OpenLoopSource::fire(std::size_t segment_index, double time) {
  ++arrivals_;
  Arrival arrival;
  arrival.time = time;
  arrival.object_id = catalog_.sample_object(rng_);
  arrival.primary = static_cast<std::uint32_t>(
      rng_.uniform_index(placement_.replica_count()));
  arrival.is_write = write_fraction_ > 0.0 && rng_.bernoulli(write_fraction_);
  if (arrival.is_write) ++write_arrivals_;
  if (hand_off_ == nullptr) {
    submit_arrival(cluster_, placement_, catalog_, arrival);
  } else {
    hand_off_(hand_off_context_, arrival);
  }
  schedule_next(segment_index, time);
}

void detail::hand_off_arrivals(OpenLoopSource& source, ArrivalHandOff fn,
                               void* context) {
  source.hand_off_ = fn;
  source.hand_off_context_ = context;
}

void submit_arrival(Cluster& cluster, const workload::Placement& placement,
                    const workload::ObjectCatalog& catalog,
                    const Arrival& arrival) {
  const std::uint64_t size = catalog.size_of(arrival.object_id);
  const std::vector<workload::DeviceId>& ring =
      placement.replicas_of_partition(
          placement.partition_of(arrival.object_id));
  const ClusterConfig& config = cluster.config();
  const bool replica_list =
      (config.max_retries > 0 && config.failover) ||
      config.hedge_delay > 0.0 || config.fanout_n > 1 ||
      config.replica_choice != ClusterConfig::ReplicaChoice::kPrimary;
  if (!replica_list) {
    cluster.submit_request(arrival.object_id, size, ring[arrival.primary],
                           arrival.is_write);
    return;
  }
  cluster.submit_request(arrival.object_id, size, ring, arrival.primary,
                         arrival.is_write);
}

std::uint64_t replay_trace(Cluster& cluster,
                           const std::vector<workload::TraceRecord>& trace,
                           const workload::Placement& placement,
                           cosm::Rng& rng) {
  COSM_REQUIRE(placement.device_count() == cluster.config().device_count,
               "placement and cluster disagree on device count");
  std::uint64_t scheduled = 0;
  for (const auto& record : trace) {
    const auto device = placement.choose_replica(record.object_id, rng);
    cluster.engine().schedule_at_inline(
        record.timestamp,
        [&cluster, record, device] {
          cluster.submit_request(record.object_id, record.size_bytes,
                                 device);
        });
    ++scheduled;
  }
  return scheduled;
}

}  // namespace cosm::sim
