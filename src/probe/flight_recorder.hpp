#pragma once
// FlightRecorder — the always-on black box of hcsim::probe.
//
// A fixed-size ring of compact binary records (sim-time, kind, subject,
// value) fed by cheap hooks in the Simulator dispatch loop, the
// FlowNetwork re-rate path, the ClientSession retry layer and the chaos
// fault injector. Recording is allocation-free after construction: the
// ring is reserved once (rounded up to a power of two) and never zeroed,
// and a record is a plain 24-byte store of every field plus an index
// mask. Only written slots are ever read, so a run pays for the records
// it writes, not for the capacity it reserves. The hooks are safe to
// leave enabled in every run — docs/PROBE.md pins the overhead budget
// and bench_probe enforces it, ring construction included.
//
// Determinism contract (the telemetry contract, extended): records
// *observe* the simulation — they never schedule events, never touch
// rates, and carry only simulated time. Two identical runs produce
// byte-identical dumps, so an incident's black box can be diffed against
// a healthy run's.
//
// On an anomaly (failed op after max retries, chaos non-recovery, a
// monitor breach, or `--dump-on-exit`) the last N records are dumped as
// JSONL and as a chrome-trace file loadable in about://tracing.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "util/units.hpp"

namespace hcsim::probe {

/// What happened. Values are part of the dump format (docs/PROBE.md);
/// append new kinds, never renumber.
enum class RecordKind : std::uint16_t {
  EngineHeartbeat = 1,  ///< decimated dispatch-loop pulse; subject=pending, value=dispatched
  NetRebalance = 2,     ///< max-min re-solve; subject=active flows, value=lifetime rerates
  LinkHealth = 3,       ///< link health changed; subject=link index, value=new health [0,1]
  RetryTimeout = 4,     ///< op timed out, will retry; subject=client key, value=attempt
  OpFailed = 5,         ///< op failed after max retries; subject=client key, value=attempt
  LateCompletion = 6,   ///< completion after the retry layer gave up; subject=client key
  FaultInject = 7,      ///< chaos fault applied; subject=event index, value=severity
  FaultRestore = 8,     ///< chaos restore applied; subject=event index, value=rebuild GiB
  GoodputSample = 9,    ///< timeline slice; subject=slice index, value=GB/s
  PhaseSwitch = 10,     ///< workload phase barrier released; subject=phase index
  Barrier = 11,         ///< closed-loop barrier released; subject=op index
  MonitorBreach = 12,   ///< SLO watchdog fired; subject=monitor index, value=observed
  TransportStall = 13,  ///< flow queued on a full send queue; subject=(node,lane), value=queue depth
};

const char* toString(RecordKind kind);

/// No default member initializers: the ring's slots stay uninitialized
/// until record() writes every field of one.
struct Record {
  double time;  ///< simulated seconds
  RecordKind kind;
  std::uint16_t reserved;  ///< always 0
  std::uint32_t subject;
  double value;
};

/// Pack a (node, proc) client id into a record subject.
inline std::uint32_t clientSubject(std::uint32_t node, std::uint32_t proc) {
  return (node << 16) | (proc & 0xffffu);
}

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;  // 64 Ki records, ~1.5 MiB

  /// Capacity is rounded up to a power of two (minimum 16) so the hot
  /// path wraps with a mask instead of a modulo.
  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  /// The hot path: one store of a whole record (every field, so the
  /// uninitialized ring never leaks into a snapshot) into the pre-sized
  /// ring. Never allocates.
  void record(double time, RecordKind kind, std::uint32_t subject, double value) {
    ring_[head_] = Record{time, kind, 0, subject, value};
    head_ = (head_ + 1) & mask_;
    if (size_ < capacity()) ++size_;
    ++total_;
  }

  std::size_t capacity() const { return mask_ + 1; }
  std::size_t size() const { return size_; }          ///< records currently held
  std::uint64_t totalRecorded() const { return total_; }  ///< lifetime, including overwritten
  bool empty() const { return size_ == 0; }
  void clear();

  /// Records oldest-to-newest (the retained window, in record order).
  std::vector<Record> snapshot() const;

  /// One JSON object per line: {"t":..,"kind":"..","subject":..,"value":..}.
  /// Deterministic: byte-identical across identical runs.
  void dumpJsonl(std::ostream& out) const;

  /// Chrome-trace ("trace event") JSON: instant events on one pid, tid =
  /// record kind, timestamps in microseconds of simulated time.
  void dumpChromeTrace(std::ostream& out) const;

 private:
  std::size_t mask_;                ///< capacity - 1
  std::unique_ptr<Record[]> ring_;  ///< capacity slots, uninitialized until written
  std::size_t head_ = 0;            ///< next write position
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace hcsim::probe
