// Discrete-event simulation engine.
//
// The calendar is an indexed d-ary (4-ary) min-heap over POD nodes
// (time, sequence, arena slot) keyed by (time, seq): events at equal
// timestamps run in scheduling order, which makes every simulation
// deterministic for a fixed seed set.  Callbacks live in a slab arena
// recycled through a free list, and the callback type itself
// (EventCallback, a SmallFn) stores captures inline — so the steady-state
// hot path (schedule -> sift -> pop -> invoke) performs no heap
// allocation and moves only 24-byte nodes while re-heapifying.
//
// Events scheduled at exactly the current time (the event-loop "yield"
// idiom: EAGAIN accepts, zero accept cost, same-instant error delivery)
// bypass the heap through a FIFO of (seq, slot) pairs.  The pop logic
// merges the FIFO against the heap by sequence number, so the (time, seq)
// total order — and therefore determinism — is untouched; the invariant
// is that everything in the FIFO carries time == now(), which holds
// because the clock cannot advance while the FIFO is non-empty.
//
// The hot members are defined inline here: the engine is called a dozen
// times per simulated request, and keeping schedule/step visible to the
// entities' translation units is worth more than any micro-tweak inside
// them.  Entities capture what they need in the callback; the engine owns
// nothing but the calendar.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/require.hpp"
#include "sim/event_fn.hpp"

namespace cosm::sim {

// Inline capacity 48 covers every hot-path capture block in the simulator
// (the largest is [this, RequestPtr, epoch] at 24 bytes and the trace
// replayer's 40); entities assert theirs via schedule_*_inline.  Larger
// cold-path captures (fault arming, offline-disk error delivery) spill to
// the heap inside SmallFn and stay correct.
using EventCallback = SmallFn<48>;

class Engine {
 public:
  double now() const { return now_; }
  std::uint64_t events_processed() const { return processed_; }
  std::size_t events_pending() const {
    return heap_.size() + (immediate_.size() - immediate_head_) +
           (monotone_.size() - monotone_head_);
  }

  // Schedules `fn` at absolute simulated time `time` (>= now).
  void schedule_at(double time, EventCallback fn) {
    COSM_REQUIRE(time >= now_, "cannot schedule events in the past");
    COSM_REQUIRE(fn != nullptr, "event callback must be callable");
    const std::uint64_t seq = next_seq_++;
    const std::uint32_t slot = acquire_empty_slot();
    slot_ref(slot) = std::move(fn);
    enqueue_node(time, seq, slot);
  }

  // Schedules `fn` after `delay` (>= 0) simulated seconds.
  void schedule_after(double delay, EventCallback fn) {
    COSM_REQUIRE(delay >= 0, "event delay must be non-negative");
    schedule_at(now_ + delay, std::move(fn));
  }

  // Hot-path variants: statically guarantee the capture block fits
  // EventCallback's inline storage, i.e. scheduling never allocates —
  // and construct it directly in its arena slot, skipping the two
  // vtable relocations the type-erased schedule_at path pays.
  template <typename F>
  void schedule_at_inline(double time, F&& fn) {
    static_assert(EventCallback::fits_inline_v<std::decay_t<F>>,
                  "hot-path event capture exceeds EventCallback's inline "
                  "storage; shrink the capture or use schedule_at");
    COSM_REQUIRE(time >= now_, "cannot schedule events in the past");
    const std::uint64_t seq = next_seq_++;
    const std::uint32_t slot = acquire_empty_slot();
    slot_ref(slot).emplace(std::forward<F>(fn));
    enqueue_node(time, seq, slot);
  }
  template <typename F>
  void schedule_after_inline(double delay, F&& fn) {
    COSM_REQUIRE(delay >= 0, "event delay must be non-negative");
    schedule_at_inline(now_ + delay, std::forward<F>(fn));
  }

  // Timer-lane variant for event streams whose fire times never decrease
  // across calls — e.g. a fixed per-request timeout armed at dispatch:
  // now() is non-decreasing, so now() + constant is too.  Such events
  // bypass the heap into a plain FIFO that pop merges by (time, seq), so
  // a standing population of armed timers (at 150 req/s and a 250 ms
  // timeout, ~40 of them at all times) stops deepening every other
  // event's sift path.  The monotone contract is checked, not assumed.
  template <typename F>
  void schedule_after_monotone_inline(double delay, F&& fn) {
    static_assert(EventCallback::fits_inline_v<std::decay_t<F>>,
                  "hot-path event capture exceeds EventCallback's inline "
                  "storage; shrink the capture or use schedule_after");
    COSM_REQUIRE(delay >= 0, "event delay must be non-negative");
    const double time = now_ + delay;
    COSM_REQUIRE(monotone_head_ == monotone_.size() ||
                     std::bit_cast<std::uint64_t>(time) >=
                         monotone_.back().time_bits,
                 "monotone timer lane requires non-decreasing fire times");
    const std::uint64_t seq = next_seq_++;
    const std::uint32_t slot = acquire_empty_slot();
    slot_ref(slot).emplace(std::forward<F>(fn));
    if (time == now_) {  // yield: same instant, same FIFO as everyone else
      immediate_.push_back(Immediate{seq, slot});
      return;
    }
    monotone_.push_back(
        Node{std::bit_cast<std::uint64_t>(time), seq, slot});
  }

  // External-event injection lane for the sharded coordinator
  // (sim/shard.hpp): files `fn` at absolute time `time` from OUTSIDE the
  // engine's own event flow — the cross-shard mailbox drain calls this
  // between run_until() windows.  Mechanically identical to
  // schedule_at_inline (same calendar, same (time, seq) total order); the
  // separate name documents the contract that makes cross-thread use safe:
  // the caller must be the thread driving this engine, the engine must be
  // quiescent (between run_until calls), and `time` must be >= now() —
  // which the window protocol guarantees because injected arrivals always
  // land strictly beyond the fence of the window just drained.  Injection
  // order assigns seq, so the per-shard total order is a pure function of
  // (local schedule order, mailbox drain order), both deterministic.
  template <typename F>
  void inject_at_inline(double time, F&& fn) {
    schedule_at_inline(time, std::forward<F>(fn));
  }

  // Pre-sizes the calendar and the callback arena (a perf knob only;
  // growth is otherwise amortized-geometric as usual).
  void reserve(std::size_t events);

  // Runs events in timestamp order until the calendar is empty or the next
  // event is after `end_time`; the clock ends at min(end_time, last event).
  void run_until(double end_time);
  // Drains the calendar completely.
  void run_all();

  // Processes a single event; returns false if the calendar is empty.
  bool step() {
    // Three sources, one total order.  Candidate = the earlier of the
    // heap top and the monotone-lane front (its front is minimal within
    // the lane by the monotone push contract); then the immediate FIFO —
    // whose events all carry time == now_ and FIFO-minimal seq — runs
    // first unless the candidate ties the instant with a smaller seq.
    const Node* cand = heap_.empty() ? nullptr : &heap_.front();
    bool from_monotone = false;
    if (monotone_head_ < monotone_.size()) {
      const Node& mono = monotone_[monotone_head_];
      if (cand == nullptr || earlier(mono, *cand)) {
        cand = &mono;
        from_monotone = true;
      }
    }
    if (immediate_head_ < immediate_.size()) {
      const Immediate front = immediate_[immediate_head_];
      if (cand == nullptr || cand->time() != now_ ||
          cand->seq > front.seq) {
        if (++immediate_head_ == immediate_.size()) {
          // Drained: recycle the buffer (capacity persists).
          immediate_.clear();
          immediate_head_ = 0;
        }
        invoke_slot(front.slot);
        return true;
      }
    }
    if (cand == nullptr) return false;
    const Node top = *cand;
    if (from_monotone) {
      if (++monotone_head_ == monotone_.size()) {
        // Drained: recycle the buffer (capacity persists).
        monotone_.clear();
        monotone_head_ = 0;
      }
    } else {
      const Node last = heap_.back();
      heap_.pop_back();
      if (!heap_.empty()) sift_down(0, last);
    }
    now_ = top.time();
    invoke_slot(top.slot);
    return true;
  }

 private:
  // Heap node: plain data, so sift operations move 24 bytes and never
  // touch the callbacks.  (time, seq) is a total order (seq is unique),
  // hence the pop order is independent of the heap's internal shape —
  // the exact property the determinism guarantee rests on.
  //
  // The time is stored as its IEEE-754 bit pattern: every heap entry's
  // time is strictly greater than now_ >= 0 (same-instant events go to
  // the immediate FIFO), and non-negative doubles order identically to
  // their bit patterns as unsigned integers — so the sift loops compare
  // integers instead of branching through floating-point compares.
  struct Node {
    std::uint64_t time_bits;
    std::uint64_t seq;
    std::uint32_t slot;
    double time() const { return std::bit_cast<double>(time_bits); }
  };
  // A yield event: time is implicitly now_, only the order tag and the
  // callback slot matter.
  struct Immediate {
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static constexpr std::size_t kArity = 4;

  static bool earlier(const Node& a, const Node& b) {
    if (a.time_bits != b.time_bits) return a.time_bits < b.time_bits;
    return a.seq < b.seq;
  }

  EventCallback& slot_ref(std::uint32_t slot) {
    return slabs_[slot >> kSlabBits][slot & (kSlabSize - 1)];
  }

  // Hands out a slot whose callback is empty (invoke_slot nulls a slot
  // before recycling it); the caller fills it by move-assign or emplace.
  std::uint32_t acquire_empty_slot() {
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    COSM_CHECK(slot_count_ < UINT32_MAX, "event arena exhausted");
    if ((slot_count_ & (kSlabSize - 1)) == 0) {
      slabs_.push_back(std::make_unique<EventCallback[]>(kSlabSize));
    }
    return slot_count_++;
  }

  // Files a filled slot into the calendar under (time, seq).
  void enqueue_node(double time, std::uint64_t seq, std::uint32_t slot) {
    if (time == now_) {  // yield: runs this instant, no heap traffic
      immediate_.push_back(Immediate{seq, slot});
      return;
    }
    heap_.push_back(Node{std::bit_cast<std::uint64_t>(time), seq, slot});
    sift_up(heap_.size() - 1, heap_.back());
  }

  // Invokes the callback in place — arena slots have stable addresses (the
  // arena is fixed slabs), so the running callback's captures cannot move
  // even if it schedules and the arena grows.  The slot is recycled only
  // after the call returns, so reentrant scheduling can never hand it out
  // again mid-invoke.
  void invoke_slot(std::uint32_t slot) {
    ++processed_;
    EventCallback& fn = slot_ref(slot);
    fn();
    fn = nullptr;  // release captures now, not at slot reuse
    free_slots_.push_back(slot);
  }

  void sift_up(std::size_t index, Node node);
  void sift_down(std::size_t index, Node node);

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::vector<Node> heap_;
  // Events scheduled at exactly now_: a vector-backed FIFO (append at the
  // tail, consume via immediate_head_, reset when drained — the clock
  // cannot advance while it is non-empty, so it drains constantly and the
  // buffer never grows past one instant's burst).
  std::vector<Immediate> immediate_;
  std::size_t immediate_head_ = 0;
  // Monotone timer lane (schedule_after_monotone_inline): fire times are
  // non-decreasing by contract, so the front is always the lane's minimum
  // and a plain vector-backed FIFO replaces heap traffic for the standing
  // population of armed timers.  Consumed via monotone_head_, reset when
  // drained, merged against the heap/immediate sources in step().
  std::vector<Node> monotone_;
  std::size_t monotone_head_ = 0;
  // Callback arena indexed by Node::slot, recycled via free_slots_.
  // Fixed-size slabs give slots stable addresses (callbacks execute in
  // place, even while scheduling grows the arena) at shift-and-mask
  // indexing cost.
  static constexpr std::uint32_t kSlabBits = 8;
  static constexpr std::uint32_t kSlabSize = 1u << kSlabBits;
  std::vector<std::unique_ptr<EventCallback[]>> slabs_;
  std::uint32_t slot_count_ = 0;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace cosm::sim
