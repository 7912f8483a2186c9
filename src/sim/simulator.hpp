#pragma once
// The discrete-event engine at the heart of hcsim.
//
// A Simulator owns a time-ordered queue of events (callbacks). Components
// (network flows, device queues, DLIO worker threads, ...) schedule
// callbacks at future simulated times; `run()` dispatches them in
// (time, insertion-order) order, so same-timestamp events are FIFO and the
// simulation is fully deterministic.
//
// ## Dispatch invariant
//
// Every live event carries a sequence number assigned from a single
// monotone counter at the moment it entered (or re-entered) the queue:
// one per schedule()/scheduleAt() call, one per adjustKey() call, none
// for cancel(). Dispatch always selects the minimum (time, seq) pair, so
// equal-timestamp events fire in the order they were (re)scheduled.
// adjustKey deliberately takes a fresh seq — it is semantically
// "cancel + reschedule, reusing the entry storage" — which keeps the
// dispatch order of a re-rated event identical to what a cancel +
// scheduleAt pair would have produced. Nothing in the engine may reorder
// equal-(time, seq) events or dispatch a cancelled one.
//
// Deferred work (defer()) sits outside that order: it takes no sequence
// number and is never dispatched as an event. It runs once the current
// *instant* is over — after every event at now(), including events
// scheduled at now() while the instant ran — and before the clock
// advances to the next event. Events it schedules at now() open the
// instant again. run(), runUntil() and step() never return with deferred
// work pending while the next event is later than now().
//
// ## Implementation
//
// The queue is an indexed 4-ary heap over a slab of event slots:
//
//  - `slots_` is the slab. A slot owns the callback (an InlineFunction,
//    so captures up to kInlineFunctionCapacity bytes live inside the
//    slot — scheduling allocates nothing once the slab is warm), the
//    (time, seq) key, a generation counter and its current heap index.
//    Freed slots go on a free list and are recycled, so steady-state
//    simulations reuse a small resident slab (see slabSize()).
//  - `heap_` stores slot indices. Because every slot knows its heap
//    position, cancel() removes the entry *in place* in O(log n) and
//    adjustKey() re-sifts in place — there are no tombstones anywhere,
//    so heavily re-rated runs cannot bloat the heap (the previous
//    lazy-deletion scheduler kept cancelled entries queued until their
//    original expiry popped them).
//  - EventId packs (generation << 32 | slot+1). Generations bump on
//    every slot release, so a stale id for a recycled slot can never
//    cancel or adjust the new occupant, and cancel of an already-fired
//    or already-cancelled event is a cheap guaranteed no-op. value==0 is
//    never produced (slot+1 != 0, generation of a live slot != 0), so
//    default EventId{} is always invalid.

#include <cstdint>
#include <vector>

#include "sim/inline_function.hpp"
#include "util/units.hpp"

namespace hcsim {

namespace probe {
class FlightRecorder;
class SelfProfiler;
}  // namespace probe

using SimTime = Seconds;

/// Handle for a scheduled event; can be used to cancel or re-time it.
struct EventId {
  std::uint64_t value = 0;
  bool valid() const { return value != 0; }
};

/// Event callback type: move-only, captures up to
/// kInlineFunctionCapacity bytes without allocating.
using EventFn = InlineFunction<void()>;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time in seconds.
  SimTime now() const { return now_; }

  /// Schedule `fn` to run `delay` seconds from now (delay >= 0; negative
  /// delays are clamped to zero to keep time monotone).
  EventId schedule(SimTime delay, EventFn fn) {
    return scheduleAt(now_ + (delay > 0 ? delay : 0), std::move(fn));
  }

  /// Schedule `fn` at absolute time `t` (clamped to `now()` if in the past).
  EventId scheduleAt(SimTime t, EventFn fn);

  /// Cancel a pending event: the entry is removed from the heap in place
  /// (no tombstone). Cancelling an already-fired or already-cancelled
  /// event is a harmless no-op. Returns true if it was pending.
  bool cancel(EventId id);

  /// Move a pending event to absolute time `t` (clamped to now()) in
  /// place, reusing its slot and callback. Equivalent to cancel +
  /// scheduleAt of the same callback — including taking a fresh FIFO
  /// sequence number, so at its new timestamp the event fires after any
  /// event already queued for that instant. Returns false (and does
  /// nothing) when the id is no longer pending.
  bool adjustKey(EventId id, SimTime t);

  /// Run `fn` once the current instant is over (see the dispatch
  /// invariant above): FlowNetwork defers its max-min solve this way, so
  /// that several changes at one timestamp cost one solve. Outside event
  /// dispatch — setup code, or a caller between run() calls — `fn` runs
  /// at once. Work queued by a callback that throws stays queued and runs
  /// before the clock next advances. `fn` must stay valid until it runs:
  /// a capture of `this` needs its object to outlive the instant.
  void defer(EventFn fn);

  /// Dispatch events until the queue is empty.
  void run();

  /// Dispatch events with time <= `t`, then set now() = t.
  void runUntil(SimTime t);

  /// Dispatch a single event; returns false if the queue was empty.
  bool step();

  /// Number of events dispatched since construction.
  std::uint64_t eventsDispatched() const { return dispatched_; }

  /// Lifetime engine counters (telemetry): schedule/scheduleAt calls,
  /// successful cancels, successful adjustKey re-timings.
  std::uint64_t eventsScheduled() const { return scheduled_; }
  std::uint64_t eventsCancelled() const { return cancelled_; }
  std::uint64_t eventsAdjusted() const { return adjusted_; }

  /// Pending event count (cancelled events leave the queue immediately).
  std::size_t pendingEvents() const { return heap_.size(); }

  /// High-water mark of pendingEvents() over the simulator's lifetime.
  /// The scale gates use this as flat-memory evidence: a flow class of a
  /// million members holds ONE pending completion event, so the peak
  /// stays proportional to class count, not client count.
  std::size_t peakPendingEvents() const { return peakPending_; }

  bool empty() const { return heap_.empty(); }

  /// Slab footprint: slots ever allocated (live + recycled). Stays flat
  /// under steady-state schedule/dispatch churn — observable evidence
  /// that entry storage is recycled rather than re-allocated.
  std::size_t slabSize() const { return slots_.size(); }

  /// Attach a flight recorder (hcsim::probe): the dispatch loop emits a
  /// decimated heartbeat record every kHeartbeatEvery dispatches, and
  /// components reached through this simulator (FlowNetwork re-rates,
  /// ClientSession retries) record their own events into it. Recording
  /// is observe-only — it never changes what is simulated. Null (the
  /// default) reduces every hook to one pointer test.
  void setRecorder(probe::FlightRecorder* recorder) { recorder_ = recorder; }
  probe::FlightRecorder* recorder() const { return recorder_; }

  /// Attach a self-profiler: dispatchRoot charges heap maintenance to
  /// the `dispatch` bucket and callback bodies to `callback`; the
  /// FlowNetwork charges max-min solves to `solve`. A null or disabled
  /// profiler costs a branch per scope, no clock reads.
  void setProfiler(probe::SelfProfiler* profiler) { profiler_ = profiler; }
  probe::SelfProfiler* profiler() const { return profiler_; }

  /// Heartbeat decimation: one EngineHeartbeat record per this many
  /// dispatches (power of two; the hook is a mask test).
  static constexpr std::uint64_t kHeartbeatEvery = 1024;

 private:
  static constexpr std::uint32_t kNpos = 0xffffffffu;

  struct Slot {
    SimTime time = 0.0;
    std::uint64_t seq = 0;       // tie-break: FIFO for equal timestamps
    std::uint32_t gen = 0;       // bumped on release; 0 only before first use
    std::uint32_t heapPos = kNpos;
    EventFn fn;
  };

  /// (time, seq) strict ordering between two slots.
  bool before(std::uint32_t a, std::uint32_t b) const {
    const Slot& sa = slots_[a];
    const Slot& sb = slots_[b];
    if (sa.time != sb.time) return sa.time < sb.time;
    return sa.seq < sb.seq;
  }

  std::uint32_t allocSlot();
  void releaseSlot(std::uint32_t s);

  void siftUp(std::uint32_t pos);
  void siftDown(std::uint32_t pos);
  void heapErase(std::uint32_t pos);

  /// Decode an EventId to a live slot index; kNpos when stale/invalid.
  std::uint32_t decode(EventId id) const;

  /// Pop the heap root and invoke its callback (queue must be non-empty).
  void dispatchRoot();

  /// Run the deferred work if no event remains at now().
  void endInstantIfOver();

  SimTime now_ = 0.0;
  bool dispatching_ = false;  // an event callback is running
  std::vector<EventFn> deferred_;
  std::uint64_t nextSeq_ = 1;
  std::size_t peakPending_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t adjusted_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> freeSlots_;
  std::vector<std::uint32_t> heap_;
  probe::FlightRecorder* recorder_ = nullptr;
  probe::SelfProfiler* profiler_ = nullptr;
};

}  // namespace hcsim
