// Backend tier: storage devices with event-driven processes.
//
// Faithful to the mechanics the paper models rather than to the model
// itself (DESIGN.md §5.2):
//
//  * Each device has one FCFS disk queue shared by its N_be processes and
//    a connection pool in front of them.
//  * A process runs an event loop over a FCFS task queue.  Tasks:
//      Accept       — takes one connection from the pool (kAcceptOne) or
//                     drains it (kBatchDrain; Fig. 4 shows both pooled
//                     connections accepted together), assigning the
//                     request(s) to this process (connection affinity —
//                     the S16 load-imbalance mechanism the paper calls
//                     out).  With defer_accepts, accepts only run when no
//                     request work is ready, which is what makes W_a an
//                     additive latency term (Sec. III-C).
//      StartRequest — parse, index lookup, metadata read, first data
//                     chunk, executed back to back (the event loop only
//                     yields at network I/O); disk misses block the whole
//                     process (Fig. 2).  Then the response starts and the
//                     chunk transmission proceeds asynchronously.
//      NextChunk    — enqueued when the previous chunk's transmission
//                     completes; reads one chunk, restarts transmission.
//    Interleaving of different requests' operations is *emergent* from
//    this scheduling, exactly the behaviour the union operation abstracts.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "sim/cache.hpp"
#include "sim/config.hpp"
#include "sim/disk.hpp"
#include "sim/engine.hpp"
#include "sim/fifo_ring.hpp"
#include "sim/metrics.hpp"
#include "sim/request.hpp"
#include "sim/tier.hpp"

namespace cosm::sim {

class BackendDevice;

class BackendProcess {
 public:
  BackendProcess(Engine& engine, const ClusterConfig& config,
                 SimMetrics& metrics, BackendDevice& device, cosm::Rng rng);

  // Queue an accept task.  With `coalesce` (batch-drain strategy) at most
  // one accept op is pending per process; without it (accept-one) every
  // connection arrival contributes its own accept op, so each connection
  // independently traverses the op queue — the mechanism behind the
  // paper's additive W_a.
  void signal_accept(bool coalesce);
  void enqueue_start_request(RequestPtr req);

  // Fault injection: crash() kills the process — queued request work fails
  // (reported through the device so the cluster can retry/fail over), and
  // in-flight continuations recognize the epoch bump and abandon
  // themselves.  restart() brings the process back and lets it look at the
  // device's connection pool again.
  void crash();
  void restart();
  bool crashed() const { return crashed_; }

  std::size_t queue_depth() const {
    return tasks_.size() + accept_tasks_.size() + (busy_ ? 1 : 0);
  }
  std::uint64_t requests_started() const { return requests_started_; }

 private:
  struct Task {
    enum class Kind { kAccept, kStartRequest, kNextChunk, kWriteChunk };
    Kind kind;
    RequestPtr req;
  };

  void enqueue(Task task);
  void start_next();
  void execute(Task task);
  void run_accept();
  // Stamps the accept time and schedules the accepted connection's HTTP
  // request into this process's op queue after the handshake round-trip.
  void accept_connection(RequestPtr req, double now);
  void run_start_request(RequestPtr req);
  void run_next_chunk(RequestPtr req);
  // Write path (extension): parse, then chunk-by-chunk receive + blocking
  // disk write, then a blocking commit (fsync/rename/xattr) and the 201
  // response.
  void run_start_write(RequestPtr req);
  void run_write_chunk(RequestPtr req);
  void schedule_chunk_arrival(RequestPtr req);

  // Performs one index/meta/data access: cache lookup, disk on miss
  // (blocking this process), then `cont`.  Templated on the continuation
  // (every caller passes a small [this, req] lambda): the disk completion
  // captures it as its concrete type, so invoking it is a direct —
  // inlinable — call, and the capture block stays small enough for the
  // whole completion to live inside CompletionFn's inline storage.
  // Defined after BackendDevice (it needs the device's cache and disk).
  template <typename Cont>
  void access(AccessKind kind, const RequestPtr& req,
              std::uint32_t chunk_index, Cont cont);
  // Reads the due chunk, then starts its transmission and finishes the
  // task.
  void read_chunk_then_transmit(RequestPtr req);
  void on_chunk_transmitted(RequestPtr req);
  double chunk_transfer_time(const Request& req,
                             std::uint32_t chunk_index) const;

  Engine& engine_;
  const ClusterConfig& config_;
  SimMetrics& metrics_;
  BackendDevice& device_;
  cosm::Rng rng_;
  FifoRing<Task> tasks_;
  // Low-priority accept queue used when config_.defer_accepts is set;
  // drained only when tasks_ is empty.
  FifoRing<Task> accept_tasks_;
  bool busy_ = false;
  bool accept_queued_ = false;
  bool crashed_ = false;
  // Bumped on crash; every scheduled continuation carries the epoch it was
  // created under and abandons itself (failing its request) when stale.
  std::uint64_t epoch_ = 0;
  std::uint64_t requests_started_ = 0;
  // Reusable batch-drain scratch: run_accept() used to construct (and
  // heap-allocate) a fresh deque per accept op — one per pool signal, most
  // of them EAGAIN.  Capacity persists across accepts.
  std::vector<RequestPtr> accept_scratch_;
};

class BackendDevice {
 public:
  using ResponseStartedFn = std::function<void(const RequestPtr&)>;
  using RequestFailedFn = std::function<void(const RequestPtr&)>;

  BackendDevice(Engine& engine, const ClusterConfig& config,
                SimMetrics& metrics, std::uint32_t device_id,
                cosm::Rng& seed_source);

  // A TCP connect from the frontend tier reached this device.  Refused
  // (the request fails) while the device is offline.
  void connection_arrived(RequestPtr req);

  // Called by a process executing accept(): appends the whole pool (FIFO
  // order) to `out` — caller-owned scratch, so repeated accepts reuse its
  // capacity (kBatchDrain) ...
  void drain_pool(std::vector<RequestPtr>& out);
  // ... or just the oldest connection (kAcceptOne); null when empty.
  RequestPtr take_one_from_pool();

  // Cluster wiring: invoked when a request's response starts.
  void set_response_started_callback(ResponseStartedFn fn);
  void notify_response_started(const RequestPtr& req);

  // Cluster wiring for fault injection: invoked (at most once per attempt)
  // when an attempt dies before its response started.  Safe to call for
  // any request; responded / timed-out / already-failed attempts are
  // ignored.
  void set_request_failed_callback(RequestFailedFn fn);
  void notify_request_failed(const RequestPtr& req);

  // Fault injection.  Going offline crashes every process, fails the
  // connection pool and the disk's queued/in-flight operations; coming
  // back online restarts them.  crash_processes(n) / restart_processes(n)
  // model a partial capacity drop.
  void set_online(bool online);
  bool online() const { return online_; }
  void crash_processes(std::uint32_t count);
  void restart_processes(std::uint32_t count);

  std::uint32_t id() const { return id_; }
  Disk& disk() { return disk_; }
  CacheBank& cache() { return cache_; }
  // The SSD cache tier; nullptr when ClusterConfig::tier is disabled.
  TierDevice* tier() { return tier_.get(); }
  const std::vector<std::unique_ptr<BackendProcess>>& processes() const {
    return processes_;
  }

 private:
  Engine& engine_;
  const ClusterConfig& config_;
  std::uint32_t id_;
  Disk disk_;
  CacheBank cache_;
  // Constructed only when the tier is enabled, AFTER disk_ forks its RNG
  // and before the processes fork theirs — disabled runs draw the exact
  // legacy fork sequence and stay bit-identical.
  std::unique_ptr<TierDevice> tier_;
  FifoRing<RequestPtr> pool_;
  std::vector<std::unique_ptr<BackendProcess>> processes_;
  std::size_t next_wake_offset_ = 0;
  bool online_ = true;
  ResponseStartedFn response_started_;
  RequestFailedFn request_failed_;
};

template <typename Cont>
void BackendProcess::access(AccessKind kind, const RequestPtr& req,
                            std::uint32_t chunk_index, Cont cont) {
  const bool hit =
      device_.cache().lookup(kind, req->object_id, chunk_index, rng_);
  metrics_.on_cache_access(device_.id(), kind, hit);
  if (kind == AccessKind::kData) metrics_.on_data_read(device_.id());
  if (hit) {
    // Memory latency is approximated as zero, as in the model.
    metrics_.on_operation_latency(device_.id(), kind, 0.0);
    cont();
    return;
  }
  const double start = engine_.now();
  if (kind == AccessKind::kData && device_.tier() != nullptr) {
    // Two-tier data path: serve the page-cache miss from the SSD when
    // the chunk is resident, fall through to the capacity disk (and
    // promote afterwards) otherwise.  Index/meta always go to the
    // capacity disk.  The hit/miss decision happens now; the completion
    // only carries the verdict, keeping it inside inline storage.
    const bool tier_hit =
        device_.tier()->lookup_for_read(req->object_id, chunk_index);
    auto completion =
        [this, req = req, chunk_index, cont = std::move(cont), start,
         tier_hit, epoch = epoch_](double service, bool ok) mutable {
          if (epoch != epoch_) {
            device_.notify_request_failed(req);
            return;
          }
          if (!ok) {
            device_.notify_request_failed(req);
            start_next();
            return;
          }
          if (tier_hit) {
            metrics_.on_tier_op(device_.id(), service);
          } else {
            metrics_.on_disk_op(device_.id(), AccessKind::kData, service);
          }
          metrics_.on_operation_latency(device_.id(), AccessKind::kData,
                                        engine_.now() - start);
          device_.cache().fill(AccessKind::kData, req->object_id,
                               chunk_index);
          if (!tier_hit) {
            device_.tier()->promoted_after_read(req->object_id,
                                                chunk_index);
          }
          cont();
        };
    static_assert(Disk::CompletionFn::fits_inline_v<decltype(completion)>,
                  "the tiered data-read completion must stay inside "
                  "CompletionFn's inline storage");
    device_.tier()->submit_read(tier_hit, std::move(completion));
    return;
  }
  // `req = req`: a plain [req] capture from this const reference would make
  // a *const* member, which the closure's move constructor can only COPY —
  // RequestPtr refcount churn on every SmallFn relocation, and (worse) a
  // potentially-throwing member op that silently disqualified the closure
  // from CompletionFn's inline storage.  The init-capture's member is
  // mutable, so the closure stays nothrow-movable and inline.
  auto completion =
      [this, kind, req = req, chunk_index, cont = std::move(cont), start,
       epoch = epoch_](double service, bool ok) mutable {
        if (epoch != epoch_) {  // process crashed while blocked on the disk
          device_.notify_request_failed(req);
          return;
        }
        if (!ok) {  // the disk went away under us
          device_.notify_request_failed(req);
          start_next();
          return;
        }
        metrics_.on_disk_op(device_.id(), kind, service);
        metrics_.on_operation_latency(device_.id(), kind,
                                      engine_.now() - start);
        device_.cache().fill(kind, req->object_id, chunk_index);
        cont();
      };
  static_assert(Disk::CompletionFn::fits_inline_v<decltype(completion)>,
                "the hottest disk completion in the simulator must stay "
                "inside CompletionFn's inline storage");
  device_.disk().submit(kind, std::move(completion));
}

}  // namespace cosm::sim
