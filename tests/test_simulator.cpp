#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace hcsim {
namespace {

TEST(Simulator, StartsAtTimeZeroEmpty) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.pendingEvents(), 0u);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, DispatchesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3.0);
}

TEST(Simulator, EqualTimestampsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, NowAdvancesToEventTime) {
  Simulator sim;
  SimTime seen = -1;
  sim.schedule(5.5, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 5.5);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.schedule(2.0, [&] {
    sim.schedule(-10.0, [&] { EXPECT_DOUBLE_EQ(sim.now(), 2.0); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Simulator, ScheduleAtPastClampsToNow) {
  Simulator sim;
  bool ran = false;
  sim.schedule(3.0, [&] {
    sim.scheduleAt(1.0, [&] {
      ran = true;
      EXPECT_DOUBLE_EQ(sim.now(), 3.0);
    });
  });
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, CancelPreventsDispatch) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule(1.0, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelTwiceIsFalse) {
  Simulator sim;
  const EventId id = sim.schedule(1.0, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelFiredEventIsFalse) {
  Simulator sim;
  const EventId id = sim.schedule(1.0, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelInvalidIdIsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(EventId{}));
  EXPECT_FALSE(sim.cancel(EventId{999}));
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.schedule(1.0, chain);
  };
  sim.schedule(1.0, chain);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  std::vector<int> seen;
  sim.schedule(1.0, [&] { seen.push_back(1); });
  sim.schedule(2.0, [&] { seen.push_back(2); });
  sim.schedule(3.0, [&] { seen.push_back(3); });
  sim.runUntil(2.5);
  EXPECT_EQ(seen, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
  sim.run();
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, RunUntilAdvancesTimeEvenWhenIdle) {
  Simulator sim;
  sim.runUntil(10.0);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Simulator, RunUntilDispatchesEventExactlyAtHorizon) {
  Simulator sim;
  bool ran = false;
  sim.schedule(2.0, [&] { ran = true; });
  sim.runUntil(2.0);
  EXPECT_TRUE(ran);
}

TEST(Simulator, CountsDispatchedAndPending) {
  Simulator sim;
  sim.schedule(1.0, [] {});
  sim.schedule(2.0, [] {});
  const EventId id = sim.schedule(3.0, [] {});
  sim.cancel(id);
  EXPECT_EQ(sim.pendingEvents(), 2u);
  sim.run();
  EXPECT_EQ(sim.eventsDispatched(), 2u);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, StepDispatchesExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.schedule(1.0, [&] { ++count; });
  sim.schedule(2.0, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, CancelInsideEventAffectsPendingEvent) {
  Simulator sim;
  bool secondRan = false;
  EventId second{};
  second = sim.schedule(2.0, [&] { secondRan = true; });
  sim.schedule(1.0, [&] { EXPECT_TRUE(sim.cancel(second)); });
  sim.run();
  EXPECT_FALSE(secondRan);
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator sim;
  SimTime last = -1.0;
  for (int i = 0; i < 5000; ++i) {
    sim.schedule((i * 7919) % 1000 * 0.001, [&, i] {
      EXPECT_GE(sim.now(), last);
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_EQ(sim.eventsDispatched(), 5000u);
}

TEST(Simulator, AdjustKeyMovesEventEarlier) {
  Simulator sim;
  std::vector<int> order;
  const EventId late = sim.schedule(10.0, [&] { order.push_back(10); });
  sim.schedule(5.0, [&] { order.push_back(5); });
  EXPECT_TRUE(sim.adjustKey(late, 1.0));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{10, 5}));
  EXPECT_EQ(sim.now(), 5.0);
}

TEST(Simulator, AdjustKeyMovesEventLater) {
  Simulator sim;
  std::vector<int> order;
  const EventId early = sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(5.0, [&] { order.push_back(5); });
  EXPECT_TRUE(sim.adjustKey(early, 10.0));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{5, 1}));
  EXPECT_EQ(sim.now(), 10.0);
}

// adjustKey assigns a fresh FIFO sequence number, exactly as the old
// cancel-then-reschedule idiom did: an event adjusted onto a timestamp
// that already has queued events dispatches after them.
TEST(Simulator, AdjustKeyTakesFreshFifoPosition) {
  Simulator sim;
  std::vector<int> order;
  const EventId moved = sim.schedule(0.5, [&] { order.push_back(99); });
  sim.schedule(2.0, [&] { order.push_back(0); });
  sim.schedule(2.0, [&] { order.push_back(1); });
  EXPECT_TRUE(sim.adjustKey(moved, 2.0));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 99}));
}

TEST(Simulator, AdjustKeyInThePastClampsToNow) {
  Simulator sim;
  SimTime firedAt = -1.0;
  EventId target{};
  target = sim.schedule(10.0, [&] { firedAt = sim.now(); });
  sim.schedule(3.0, [&] { EXPECT_TRUE(sim.adjustKey(target, 1.0)); });
  sim.run();
  EXPECT_EQ(firedAt, 3.0);  // clamped to now at adjust time, not rewound
}

TEST(Simulator, AdjustKeyOnFiredOrInvalidIdIsFalse) {
  Simulator sim;
  const EventId id = sim.schedule(1.0, [] {});
  sim.run();
  EXPECT_FALSE(sim.adjustKey(id, 2.0));
  EXPECT_FALSE(sim.adjustKey(EventId{}, 2.0));
}

// A callback cancelling (or adjusting) its own EventId must be a no-op:
// the slot is released before the callback runs.
TEST(Simulator, SelfCancelInsideRunningCallbackIsNoop) {
  Simulator sim;
  EventId self{};
  int runs = 0;
  self = sim.schedule(1.0, [&] {
    ++runs;
    EXPECT_FALSE(sim.cancel(self));
    EXPECT_FALSE(sim.adjustKey(self, 5.0));
  });
  sim.schedule(2.0, [&] { ++runs; });
  sim.run();
  EXPECT_EQ(runs, 2);
}

// A cancelled slot is recycled with a bumped generation, so a stale
// EventId can never cancel or retime the slot's new occupant.
TEST(Simulator, StaleIdCannotTouchRecycledSlot) {
  Simulator sim;
  const EventId stale = sim.schedule(1.0, [] { FAIL() << "cancelled event ran"; });
  EXPECT_TRUE(sim.cancel(stale));
  bool survivorRan = false;
  sim.schedule(2.0, [&] { survivorRan = true; });  // reuses the freed slot
  EXPECT_FALSE(sim.cancel(stale));
  EXPECT_FALSE(sim.adjustKey(stale, 9.0));
  sim.run();
  EXPECT_TRUE(survivorRan);
}

TEST(Simulator, MassCancellationLeavesNoTombstones) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(sim.schedule(1.0 + i, [] { FAIL() << "cancelled event ran"; }));
  }
  for (const EventId id : ids) EXPECT_TRUE(sim.cancel(id));
  // In-place heap removal: nothing pending, nothing left to lazily skip.
  EXPECT_EQ(sim.pendingEvents(), 0u);
  EXPECT_TRUE(sim.empty());
  int ran = 0;
  sim.schedule(0.5, [&] { ++ran; });
  sim.run();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.eventsDispatched(), 1u);
}

TEST(Simulator, SlabStaysFlatUnderChurn) {
  Simulator sim;
  for (int i = 0; i < 64; ++i) sim.schedule(1.0, [] {});
  sim.run();
  const std::size_t high = sim.slabSize();
  // Steady-state schedule/dispatch churn recycles slots instead of
  // growing the slab.
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 64; ++i) sim.schedule(0.001, [] {});
    sim.run();
  }
  EXPECT_EQ(sim.slabSize(), high);
}

TEST(Simulator, ZeroDelaySelfReschedulingIsFifoFair) {
  Simulator sim;
  std::vector<int> order;
  int aLeft = 3;
  int bLeft = 3;
  std::function<void()> a = [&] {
    order.push_back(0);
    if (--aLeft > 0) sim.schedule(0.0, [&] { a(); });
  };
  std::function<void()> b = [&] {
    order.push_back(1);
    if (--bLeft > 0) sim.schedule(0.0, [&] { b(); });
  };
  sim.schedule(0.0, [&] { a(); });
  sim.schedule(0.0, [&] { b(); });
  sim.run();
  // Each reschedule goes to the back of the same-timestamp queue.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 1, 0, 1}));
  EXPECT_EQ(sim.now(), 0.0);
}

// ---- Deferred work: once per instant, before the clock advances ----

TEST(SimulatorDefer, RunsOnceAfterEveryEventOfTheInstant) {
  Simulator sim;
  std::vector<std::string> order;
  SimTime ranAt = -1.0;
  sim.schedule(1.0, [&] {
    order.push_back("a");
    sim.defer([&] {
      order.push_back("deferred");
      ranAt = sim.now();
    });
    // Scheduled at now() during the instant: still part of it.
    sim.schedule(0.0, [&] { order.push_back("a+0"); });
  });
  sim.schedule(1.0, [&] { order.push_back("b"); });
  sim.schedule(2.0, [&] { order.push_back("later"); });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "a+0", "deferred", "later"}));
  EXPECT_EQ(ranAt, 1.0);
  // Deferred work is not an event: nothing extra was dispatched.
  EXPECT_EQ(sim.eventsDispatched(), 4u);
}

TEST(SimulatorDefer, RunsAtOnceOutsideDispatch) {
  Simulator sim;
  int ran = 0;
  sim.defer([&] { ++ran; });
  EXPECT_EQ(ran, 1);
  sim.schedule(1.0, [] {});
  sim.run();
  sim.defer([&] { ++ran; });
  EXPECT_EQ(ran, 2);
}

TEST(SimulatorDefer, EntryPointsNeverLeaveWorkPendingBeforeALaterEvent) {
  Simulator sim;
  std::vector<SimTime> ranAt;
  const auto deferOne = [&] { sim.defer([&] { ranAt.push_back(sim.now()); }); };

  // runUntil: the instant at 1 ends before the call returns.
  sim.schedule(1.0, deferOne);
  sim.schedule(2.0, [] {});
  sim.runUntil(1.5);
  EXPECT_EQ(ranAt, (std::vector<SimTime>{1.0}));

  // step: pending while the next event shares the instant, settled by
  // the step that ends it.
  sim.schedule(1.0, deferOne);  // t = 2.5
  sim.schedule(1.0, [] {});
  EXPECT_TRUE(sim.step());  // the event at 2
  EXPECT_TRUE(sim.step());  // first event at 2.5
  EXPECT_EQ(ranAt.size(), 1u);
  EXPECT_TRUE(sim.step());  // last event at 2.5
  EXPECT_EQ(ranAt, (std::vector<SimTime>{1.0, 2.5}));

  // Cancelling the event that kept the instant open: the next call ends
  // the instant before it advances the clock.
  sim.schedule(1.0, deferOne);  // t = 3.5
  const EventId sameInstant = sim.schedule(1.0, [] {});
  sim.schedule(2.0, [&] { ranAt.push_back(-sim.now()); });  // negated: an event, not deferred
  EXPECT_TRUE(sim.step());
  EXPECT_TRUE(sim.cancel(sameInstant));
  sim.run();
  EXPECT_EQ(ranAt, (std::vector<SimTime>{1.0, 2.5, 3.5, -4.5}));
}

TEST(SimulatorDefer, ThrowingCallbackLeavesDispatchAndKeepsQueuedWork) {
  Simulator sim;
  std::vector<std::string> order;
  sim.schedule(1.0, [&] {
    sim.defer([&] { order.push_back("queued@" + std::to_string(sim.now())); });
    throw std::runtime_error("model bug");
  });
  sim.schedule(2.0, [&] { order.push_back("later"); });
  EXPECT_THROW(sim.run(), std::runtime_error);
  // Out of dispatch mode: new work runs at once...
  sim.defer([&] { order.push_back("immediate"); });
  EXPECT_EQ(order, (std::vector<std::string>{"immediate"}));
  // ...and the work queued in the failed instant is run, not dropped,
  // before the clock leaves that instant.
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"immediate", "queued@1.000000", "later"}));
}

TEST(InlineFunction, SmallCapturesStoreInline) {
  struct Small {
    void* a;
    double b;
    void operator()() {}
  };
  EXPECT_TRUE(EventFn::storesInline<Small>());
}

TEST(InlineFunction, OversizedCapturesFallBackToHeap) {
  struct Big {
    char payload[128];
    void operator()() {}
  };
  EXPECT_FALSE(EventFn::storesInline<Big>());
  bool ran = false;
  EventFn f(Big{});  // must still work via the heap path
  f = EventFn([&ran] { ran = true; });
  f();
  EXPECT_TRUE(ran);
}

TEST(InlineFunction, MovePreservesCallableAndState) {
  int calls = 0;
  EventFn f([&calls] { ++calls; });
  EXPECT_TRUE(static_cast<bool>(f));
  EventFn g(std::move(f));
  g();
  EventFn h;
  EXPECT_FALSE(static_cast<bool>(h));
  h = std::move(g);
  h();
  EXPECT_EQ(calls, 2);
}

}  // namespace
}  // namespace hcsim
