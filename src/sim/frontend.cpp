#include "sim/frontend.hpp"

#include "common/require.hpp"
#include "obs/obs.hpp"

namespace cosm::sim {

FrontendProcess::FrontendProcess(Engine& engine, const ClusterConfig& config,
                                 ConnectFn connect, cosm::Rng rng)
    : engine_(engine),
      config_(config),
      connect_(std::move(connect)),
      rng_(rng) {
  COSM_REQUIRE(connect_ != nullptr, "frontend connect callback required");
}

void FrontendProcess::accept_request(RequestPtr req) {
  req->frontend_arrival = engine_.now();
  queue_.push_back(std::move(req));
  if (!busy_) start_next();
}

void FrontendProcess::start_next() {
  // Cancel-on-first-complete unwind: drop cancelled requests (their group
  // already won) without spending parse time on them.
  while (!queue_.empty() && queue_.front()->cancelled) {
    obs::add(obs::Counter::kSimCancelSkippedWork);
    queue_.pop_front();
  }
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  RequestPtr req = std::move(queue_.front());
  queue_.pop_front();
  const double parse = config_.frontend_parse->sample(rng_);
  engine_.schedule_after_inline(parse, [this, req = std::move(req)]() mutable {
    // TCP connect to the backend: one network latency to reach the pool.
    engine_.schedule_after_inline(config_.network_latency,
                                  [this, req = std::move(req)]() mutable {
                                    connect_(std::move(req));
                                  });
    start_next();
  });
}

}  // namespace cosm::sim
