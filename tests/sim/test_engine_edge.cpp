// Edge cases of the zero-allocation engine and its SmallFn callback type:
// the merge of the immediate (time == now) FIFO against the d-ary heap,
// clock semantics at run_until boundaries, FIFO ordering under equal
// timestamps, and SmallFn's inline/heap storage split.
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "sim/event_fn.hpp"

namespace {

using cosm::sim::Engine;
using cosm::sim::EventCallback;
using cosm::sim::SmallFn;

TEST(EngineEdge, EventAtExactlyEndTimeRuns) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(5.0, [&] { ++fired; });
  engine.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(engine.now(), 5.0);
}

TEST(EngineEdge, EventJustAfterEndTimeDoesNotRun) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(5.0 + 1e-9, [&] { ++fired; });
  engine.run_until(5.0);
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(engine.now(), 5.0);  // clock lands on the horizon
  engine.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(EngineEdge, StepOnEmptyCalendarIsFalseAndKeepsClock) {
  Engine engine;
  EXPECT_FALSE(engine.step());
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
  engine.schedule_at(1.0, [] {});
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
  EXPECT_DOUBLE_EQ(engine.now(), 1.0);
}

TEST(EngineEdge, RunUntilAdvancesClockToHorizonOnEmptyCalendar) {
  Engine engine;
  engine.run_until(7.5);
  EXPECT_DOUBLE_EQ(engine.now(), 7.5);
}

TEST(EngineEdge, EqualTimestampEventsRunInSchedulingOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(2.0, [&] { order.push_back(0); });
  engine.schedule_at(2.0, [&] { order.push_back(1); });
  engine.schedule_at(2.0, [&] { order.push_back(2); });
  engine.schedule_at(2.0, [&] { order.push_back(3); });
  engine.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// Events scheduled *during* an event at the same timestamp go through the
// immediate FIFO; events scheduled earlier at that timestamp are in the
// heap.  The pop order must still be global scheduling (seq) order.
TEST(EngineEdge, ImmediateFifoMergesWithHeapBySequence) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(1.0, [&] {
    order.push_back(0);
    // now_ == 1.0: these take the FIFO path...
    engine.schedule_at(1.0, [&] { order.push_back(2); });
    engine.schedule_after(0.0, [&] {
      order.push_back(3);
      // ...and a nested yield goes behind everything already queued at 1.0.
      engine.schedule_after(0.0, [&] { order.push_back(5); });
    });
  });
  // Scheduled before the clock reaches 1.0, so it sits in the heap; its
  // sequence number places it between the first event and the yields.
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  engine.schedule_at(1.0 + 1e-9, [&] { order.push_back(4); });
  engine.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 5, 4}));
}

TEST(EngineEdge, ClockCorrectAfterPartialDrain) {
  Engine engine;
  engine.schedule_at(1.0, [] {});
  engine.schedule_at(2.0, [] {});
  engine.schedule_at(3.0, [] {});
  engine.run_until(2.0);
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
  EXPECT_EQ(engine.events_processed(), 2u);
  EXPECT_EQ(engine.events_pending(), 1u);
  // Scheduling between run_until calls must respect the parked clock.
  engine.schedule_at(2.5, [] {});
  engine.run_all();
  EXPECT_EQ(engine.events_processed(), 4u);
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

// Randomized cross-check of the d-ary heap + FIFO against a reference
// (time, seq) priority queue.
TEST(EngineEdge, PopOrderMatchesReferenceTotalOrder) {
  struct Ref {
    double time;
    std::uint64_t seq;
    bool operator>(const Ref& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };
  using Reference =
      std::priority_queue<Ref, std::vector<Ref>, std::greater<>>;
  cosm::Rng rng(123);
  {
    Engine engine;
    Reference reference;
    std::vector<std::uint64_t> popped;
    std::uint64_t seq = 0;
    for (int i = 0; i < 2000; ++i) {
      // Coarse grid so timestamp collisions are common.
      const double time = static_cast<double>(rng.uniform_index(50));
      reference.push(Ref{time, seq});
      engine.schedule_at(time, [&popped, id = seq] { popped.push_back(id); });
      ++seq;
    }
    engine.run_all();
    ASSERT_EQ(popped.size(), 2000u);
    for (std::uint64_t id : popped) {
      EXPECT_EQ(id, reference.top().seq);
      reference.pop();
    }
  }

  // Reentrant phase: every callback checks its place against the oracle,
  // then schedules 0-3 follow-ups at coarse-grid future times.  The
  // calendar grows and drains through every size, so pops (sift_down over
  // full and partial last families) run at every heap size mod 4,
  // interleaved with the follow-ups' sift_up.
  struct Reentrant {
    Engine engine;
    cosm::Rng rng{456};
    Reference reference;
    std::uint64_t seq = 0;
    int budget = 20000;
    std::uint64_t runs = 0;
    std::uint64_t out_of_order = 0;
    std::uint64_t pending_mod4[4] = {0, 0, 0, 0};

    void schedule(double time) {
      reference.push(Ref{time, seq});
      engine.schedule_at(time, [this, id = seq] { run(id); });
      ++seq;
    }
    void run(std::uint64_t id) {
      ++runs;
      ++pending_mod4[engine.events_pending() % 4];
      if (reference.empty() || reference.top().seq != id) ++out_of_order;
      if (!reference.empty()) reference.pop();
      const auto follow_ups = budget > 0 ? rng.uniform_index(4) : 0;
      for (std::uint64_t k = 0; k < follow_ups; ++k, --budget) {
        schedule(engine.now() + 1.0 +
                 static_cast<double>(rng.uniform_index(8)));
      }
    }
  };
  auto reentrant = std::make_unique<Reentrant>();
  for (int i = 0; i < 200; ++i) {
    reentrant->schedule(1.0 + static_cast<double>(rng.uniform_index(50)));
  }
  reentrant->engine.run_all();
  EXPECT_EQ(reentrant->out_of_order, 0u);
  EXPECT_EQ(reentrant->runs, reentrant->seq);
  EXPECT_TRUE(reentrant->reference.empty());
  for (const std::uint64_t count : reentrant->pending_mod4) {
    EXPECT_GT(count, 100u);
  }
}

// --------------------------------- SmallFn -------------------------------

TEST(SmallFnEdge, SmallCaptureStaysInline) {
  int hits = 0;
  SmallFn<48> fn([&hits] { ++hits; });
  ASSERT_TRUE(static_cast<bool>(fn));
  EXPECT_TRUE(fn.is_inline());
  fn();
  EXPECT_EQ(hits, 1);
  static_assert(SmallFn<48>::fits_inline_v<decltype([] {})>);
}

TEST(SmallFnEdge, OversizeCaptureSpillsToHeapAndStillWorks) {
  struct Big {
    double payload[16] = {1, 2, 3};
  } big;
  int sum = 0;
  auto lambda = [big, &sum] { sum += static_cast<int>(big.payload[2]); };
  static_assert(!SmallFn<48>::fits_inline_v<decltype(lambda)>);
  SmallFn<48> fn(std::move(lambda));
  EXPECT_FALSE(fn.is_inline());
  SmallFn<48> moved(std::move(fn));  // heap case: pointer steal, no copy
  EXPECT_FALSE(static_cast<bool>(fn));
  moved();
  EXPECT_EQ(sum, 3);
}

TEST(SmallFnEdge, MoveTransfersStateAndNullsSource) {
  int hits = 0;
  SmallFn<48> fn([&hits] { ++hits; });
  SmallFn<48> other(std::move(fn));
  EXPECT_FALSE(static_cast<bool>(fn));
  other();
  EXPECT_EQ(hits, 1);
  fn = std::move(other);
  EXPECT_FALSE(static_cast<bool>(other));
  fn();
  EXPECT_EQ(hits, 2);
  fn = nullptr;
  EXPECT_TRUE(fn == nullptr);
}

TEST(SmallFnEdge, NullStdFunctionMapsToEmpty) {
  std::function<void()> null_fn;
  SmallFn<48> fn(std::move(null_fn));
  EXPECT_TRUE(fn == nullptr);
  void (*null_ptr)() = nullptr;
  SmallFn<48> fn2(null_ptr);
  EXPECT_TRUE(fn2 == nullptr);
}

TEST(SmallFnEdge, DestructionReleasesCapturedOwnership) {
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  {
    SmallFn<48> fn([token = std::move(token)] { (void)token; });
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

// Engine slots release captures right after the callback returns, not when
// the slot is reused — a request must not linger in a dead calendar slot.
TEST(SmallFnEdge, EngineSlotReleasesCapturesAfterInvoke) {
  Engine engine;
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  engine.schedule_at(1.0, [token = std::move(token)] { (void)token; });
  engine.schedule_at(2.0, [] {});  // keeps the calendar non-empty
  engine.run_until(1.5);
  EXPECT_TRUE(watch.expired());
  engine.run_all();
}

}  // namespace
