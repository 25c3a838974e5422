// Frontend tier: event-driven proxy processes.
//
// A frontend process parses each incoming request (an FCFS M/G/1-like
// queue — the S_q component of Eq. 2) and then opens a connection to the
// backend device, which puts the request into that device's connection
// pool.  Relaying response bytes is not simulated as load, matching the
// paper's "sufficient resources of computation and network" assumption —
// but parsing is, because it is the queue the model captures.
#pragma once

#include <cstdint>
#include <functional>

#include "common/rng.hpp"
#include "sim/config.hpp"
#include "sim/engine.hpp"
#include "sim/fifo_ring.hpp"
#include "sim/request.hpp"

namespace cosm::sim {

class FrontendProcess {
 public:
  using ConnectFn = std::function<void(RequestPtr)>;

  // `connect` delivers the request to its backend device's pool.
  FrontendProcess(Engine& engine, const ClusterConfig& config,
                  ConnectFn connect, cosm::Rng rng);

  // Client request arrives at this process (records frontend_arrival).
  void accept_request(RequestPtr req);

  std::size_t queue_depth() const { return queue_.size() + (busy_ ? 1 : 0); }

 private:
  void start_next();

  Engine& engine_;
  const ClusterConfig& config_;
  ConnectFn connect_;
  cosm::Rng rng_;
  FifoRing<RequestPtr> queue_;
  bool busy_ = false;
};

}  // namespace cosm::sim
