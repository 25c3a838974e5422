// The assembled two-tier cluster: engine + frontends + devices + metrics.
//
// Client arrivals enter through submit_request(): the cluster picks a
// random frontend process (the paper's ssbench load balancing) and the
// request flows frontend parse -> backend connection pool -> accept ->
// backend op queue -> disks -> response.  Response latency is recorded
// when the first response bytes reach the frontend, matching the paper's
// measurement point (Sec. V-A).
//
// Robustness extension: the constructor arms config.faults on the engine
// calendar, and when config.max_retries > 0 a timed-out or fault-killed
// attempt is retried after a capped-exponential backoff (optionally
// jittered, see ClusterConfig::retry_jitter) — failing over to the next
// replica in the request's replica list when config.failover is set.  A
// retried request still produces exactly ONE RequestSample, whose latency
// spans from the original arrival to the first response byte of the
// successful attempt.
//
// Redundancy extension: multi-replica reads can hedge (a second attempt
// past config.hedge_delay) or fan out to (n,k) coded attempts completing
// on the k-th response.  Either way the attempts form a FanoutGroup; the
// group records exactly ONE RequestSample when it completes, and every
// losing live attempt is cancelled — marked, unwound at the next frontend
// or backend task boundary, and counted under sim.cancel.*.  Cancelled
// and hedged attempts still count toward the per-device attempted load
// (SimMetrics::on_attempt), which is the arrival inflation the degraded
// what-if model consumes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "sim/backend.hpp"
#include "sim/config.hpp"
#include "sim/engine.hpp"
#include "sim/frontend.hpp"
#include "sim/metrics.hpp"
#include "sim/request.hpp"

namespace cosm::sim {

// Coordinator for one logical request served by several concurrent
// attempts (a hedged pair, or an (n,k) coded fan-out).  Owned by the
// Cluster in a recycled slab; `generation` is bumped on recycle so timer
// callbacks holding a (slot, generation) pair can detect reuse — the same
// epoch discipline RequestPool uses for requests.
struct FanoutGroup {
  std::uint32_t needed = 1;       // k: responses required to complete
  std::uint32_t responded = 0;    // responses counted so far
  std::uint32_t outstanding = 0;  // live attempt chains (retries included)
  std::uint32_t hedges_issued = 0;
  std::uint32_t base_attempts = 1;    // attempts dispatched up front (n)
  std::uint32_t attempts_total = 0;   // dispatches across all chains
  std::uint32_t failovers_total = 0;  // failovers across all chains
  bool done = false;          // k-th response arrived (or all chains died)
  bool is_hedge = false;      // hedge pair, not a coded fan-out
  double original_arrival = 0.0;
  std::uint32_t chunks_total = 0;  // full-object chunks, for the sample
  std::uint64_t generation = 0;
  // Strong refs to dispatched attempts so completion can cancel the
  // losers; cleared when the group finishes.
  std::vector<RequestPtr> attempts;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  Engine& engine() { return engine_; }
  SimMetrics& metrics() { return metrics_; }
  const ClusterConfig& config() const { return config_; }

  // Injects a request at the current simulated time; `device` is the
  // chosen replica's storage device.  `is_write` selects the PUT path
  // (write-workload extension); reads are the default.
  void submit_request(std::uint64_t object_id, std::uint64_t size_bytes,
                      std::uint32_t device, bool is_write = false);
  // Replica-list overload (robustness extension): the first entry is the
  // primary; with config.failover, retries rotate through the rest.
  void submit_request(std::uint64_t object_id, std::uint64_t size_bytes,
                      std::vector<std::uint32_t> replicas,
                      bool is_write = false);

  BackendDevice& device(std::uint32_t id);
  FrontendProcess& frontend(std::uint32_t id);

  // Attempts currently in flight against `device` (replica-choice
  // scheduling input; also useful telemetry).
  std::uint64_t outstanding(std::uint32_t device) const {
    return outstanding_[device];
  }

 private:
  // Fills the shared fields of a freshly acquired request (replicas must
  // already be set) and dispatches the first attempt.
  void submit_acquired(RequestPtr req, std::uint64_t object_id,
                       std::uint64_t size_bytes, bool is_write);
  void on_response_started(const RequestPtr& req);
  void on_timeout(const RequestPtr& req);
  void on_attempt_failed(const RequestPtr& req);
  // Sends one attempt into the frontend tier, arming its timeout.
  void dispatch_attempt(RequestPtr req);
  // Retry budget left -> schedule the next attempt; else final sample.
  void retry_or_record(const RequestPtr& req);
  RequestPtr make_retry_attempt(const RequestPtr& prev);
  double backoff_delay(std::uint32_t attempt);
  void arm_faults();
  void apply_fault(const FaultEvent& event, bool begin);

  // ----- Redundancy (hedge / fan-out groups) -----
  // First terminal event of an attempt: per-device outstanding-load
  // decrement, exactly once.
  void settle_attempt(const RequestPtr& req);
  // Replica-choice scheduling over req->replicas (ClusterConfig knob).
  void choose_first_replica(const RequestPtr& req);
  std::uint32_t acquire_group();
  void release_group(std::uint32_t group_id);
  FanoutGroup& group(std::uint32_t group_id) { return group_slabs_[group_id]; }
  // Fans a read out to n coded attempts (k needed); used by submit paths.
  void submit_fanout(RequestPtr req);
  // Arms (or re-arms) the hedge deadline for a hedged group.
  void arm_hedge_timer(std::uint32_t group_id, std::uint64_t generation);
  void issue_hedge(std::uint32_t group_id);
  // A grouped attempt's response reached the cluster (group not yet done).
  void group_response(const RequestPtr& req);
  // A grouped attempt chain died (timeout/fault, retries included).
  void group_chain_failed(const RequestPtr& req);
  // One chain finished (won, cancelled, or exhausted); frees the group
  // when no chain remains.
  void group_chain_done(std::uint32_t group_id);
  void complete_group(std::uint32_t group_id, const RequestPtr& winner);
  void record_group_failure(std::uint32_t group_id);

  ClusterConfig config_;
  // The pool is declared before the engine on purpose: the calendar can
  // hold callbacks owning RequestPtrs at destruction time, and members
  // destroy in reverse declaration order — the engine (and its pending
  // callbacks) must go first, the slabs they point into last.
  RequestPool pool_;
  Engine engine_;
  SimMetrics metrics_;
  cosm::Rng rng_;
  std::vector<std::unique_ptr<BackendDevice>> devices_;
  std::vector<std::unique_ptr<FrontendProcess>> frontends_;
  std::uint64_t next_request_id_ = 0;
  // Per-device attempts in flight (replica-choice scheduling and the
  // redundancy-inflated load accounting both read it).
  std::vector<std::uint64_t> outstanding_;
  // Fan-out / hedge group slabs with a free list; declared after pool_
  // (groups hold RequestPtrs) but the deque's stable addresses make the
  // order safe either way — groups are only touched via live callbacks.
  std::deque<FanoutGroup> group_slabs_;
  std::vector<std::uint32_t> group_free_;
};

}  // namespace cosm::sim
