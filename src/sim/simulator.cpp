#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "probe/flight_recorder.hpp"
#include "probe/self_profiler.hpp"

namespace hcsim {

namespace {
// 4-ary heap: shallower than binary for the same size, and the four
// children share a cache line of slot indices.
constexpr std::uint32_t kArity = 4;

/// Holds the simulator in dispatch mode while one callback runs, and
/// restores the previous mode however the callback exits.
class DispatchScope {
 public:
  explicit DispatchScope(bool& dispatching) : flag_(dispatching), saved_(dispatching) {
    flag_ = true;
  }
  ~DispatchScope() { flag_ = saved_; }
  DispatchScope(const DispatchScope&) = delete;
  DispatchScope& operator=(const DispatchScope&) = delete;

 private:
  bool& flag_;
  bool saved_;
};
}  // namespace

std::uint32_t Simulator::allocSlot() {
  if (!freeSlots_.empty()) {
    const std::uint32_t s = freeSlots_.back();
    freeSlots_.pop_back();
    return s;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::releaseSlot(std::uint32_t s) {
  Slot& slot = slots_[s];
  slot.fn = nullptr;
  slot.heapPos = kNpos;
  if (++slot.gen == 0) ++slot.gen;  // generation 0 is reserved for "never used"
  freeSlots_.push_back(s);
}

void Simulator::siftUp(std::uint32_t pos) {
  const std::uint32_t moving = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / kArity;
    if (!before(moving, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    slots_[heap_[pos]].heapPos = pos;
    pos = parent;
  }
  heap_[pos] = moving;
  slots_[moving].heapPos = pos;
}

void Simulator::siftDown(std::uint32_t pos) {
  const std::uint32_t moving = heap_[pos];
  const std::uint32_t n = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    const std::uint64_t firstChild = std::uint64_t{pos} * kArity + 1;
    if (firstChild >= n) break;
    std::uint32_t best = static_cast<std::uint32_t>(firstChild);
    const std::uint32_t last =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(firstChild + kArity, n));
    for (std::uint32_t c = best + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], moving)) break;
    heap_[pos] = heap_[best];
    slots_[heap_[pos]].heapPos = pos;
    pos = best;
  }
  heap_[pos] = moving;
  slots_[moving].heapPos = pos;
}

void Simulator::heapErase(std::uint32_t pos) {
  const std::uint32_t lastIdx = static_cast<std::uint32_t>(heap_.size() - 1);
  if (pos != lastIdx) {
    const std::uint32_t moved = heap_[lastIdx];
    heap_[pos] = moved;
    slots_[moved].heapPos = pos;
    heap_.pop_back();
    // The filled-in entry may need to travel either direction; after
    // siftDown it sits at its (possibly new) position, from where siftUp
    // is a no-op unless it must rise.
    siftDown(pos);
    siftUp(slots_[moved].heapPos);
  } else {
    heap_.pop_back();
  }
}

std::uint32_t Simulator::decode(EventId id) const {
  if (!id.valid()) return kNpos;
  const std::uint64_t slotPlusOne = id.value & 0xffffffffull;
  const std::uint32_t gen = static_cast<std::uint32_t>(id.value >> 32);
  if (slotPlusOne == 0 || slotPlusOne > slots_.size()) return kNpos;
  const std::uint32_t s = static_cast<std::uint32_t>(slotPlusOne - 1);
  const Slot& slot = slots_[s];
  if (slot.gen != gen || slot.heapPos == kNpos) return kNpos;
  return s;
}

EventId Simulator::scheduleAt(SimTime t, EventFn fn) {
  if (t < now_) t = now_;
  ++scheduled_;
  const std::uint32_t s = allocSlot();
  Slot& slot = slots_[s];
  slot.time = t;
  slot.seq = nextSeq_++;
  if (slot.gen == 0) slot.gen = 1;  // first occupancy of a fresh slot
  slot.fn = std::move(fn);
  slot.heapPos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(s);
  if (heap_.size() > peakPending_) peakPending_ = heap_.size();
  siftUp(slot.heapPos);
  return EventId{(std::uint64_t{slot.gen} << 32) | (std::uint64_t{s} + 1)};
}

bool Simulator::cancel(EventId id) {
  const std::uint32_t s = decode(id);
  if (s == kNpos) return false;
  ++cancelled_;
  heapErase(slots_[s].heapPos);
  releaseSlot(s);
  return true;
}

bool Simulator::adjustKey(EventId id, SimTime t) {
  const std::uint32_t s = decode(id);
  if (s == kNpos) return false;
  if (t < now_) t = now_;
  ++adjusted_;
  Slot& slot = slots_[s];
  slot.time = t;
  // Fresh FIFO position — see the dispatch invariant in the header.
  slot.seq = nextSeq_++;
  siftUp(slot.heapPos);
  siftDown(slot.heapPos);
  return true;
}

void Simulator::dispatchRoot() {
  const std::uint32_t s = heap_[0];
  Slot& slot = slots_[s];
  now_ = slot.time;
  EventFn fn = std::move(slot.fn);
  {
    probe::SelfProfiler::Scope scope(profiler_, probe::SelfProfiler::Bucket::Dispatch);
    heapErase(0);
    releaseSlot(s);  // before invoking: self-cancel inside the callback is a no-op
  }
  ++dispatched_;
  if (recorder_ && (dispatched_ & (kHeartbeatEvery - 1)) == 0) {
    recorder_->record(now_, probe::RecordKind::EngineHeartbeat,
                      static_cast<std::uint32_t>(heap_.size()),
                      static_cast<double>(dispatched_));
  }
  {
    probe::SelfProfiler::Scope scope(profiler_, probe::SelfProfiler::Bucket::Callback);
    DispatchScope inCallback(dispatching_);
    fn();
  }
  endInstantIfOver();
}

void Simulator::defer(EventFn fn) {
  if (!dispatching_) {
    fn();
    return;
  }
  deferred_.push_back(std::move(fn));
}

void Simulator::endInstantIfOver() {
  if (deferred_.empty() || (!heap_.empty() && slots_[heap_[0]].time <= now_)) return;
  // Each entry leaves the queue before it runs, so one that throws is
  // dropped and the rest stay queued for the next call.
  while (!deferred_.empty()) {
    EventFn fn = std::move(deferred_.front());
    deferred_.erase(deferred_.begin());
    fn();
  }
}

// Each entry point first ends an instant left open by its previous call —
// a callback threw, or the event that kept the instant open was cancelled
// since — so the clock never advances past pending deferred work.
bool Simulator::step() {
  endInstantIfOver();
  if (heap_.empty()) return false;
  dispatchRoot();
  return true;
}

void Simulator::run() {
  endInstantIfOver();
  while (!heap_.empty()) dispatchRoot();
}

void Simulator::runUntil(SimTime t) {
  endInstantIfOver();
  while (!heap_.empty() && slots_[heap_[0]].time <= t) dispatchRoot();
  if (now_ < t) now_ = t;
}

}  // namespace hcsim
