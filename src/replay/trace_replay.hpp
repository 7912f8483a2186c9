#pragma once
// Trace replay — "what if this application ran on that storage system?"
//
// Takes a captured TraceLog (from the DLIO emulator or an imported
// DFTracer/chrome trace of a real application) and re-executes its I/O
// events against any FileSystemModel, preserving per-process ordering
// and the compute gaps between operations. The replayed trace can then
// be analyzed with the same Fig 4-6 metrics — giving storage what-if
// answers without re-running (or even having) the application.

#include <vector>

#include "cluster/deployments.hpp"
#include "config/range.hpp"
#include "fs/file_system_model.hpp"
#include "trace/overlap_analysis.hpp"
#include "trace/trace_log.hpp"

namespace hcsim {

struct ReplayConfig {
  /// Map trace pids onto compute nodes: node = pid / pidsPerNode.
  std::size_t pidsPerNode = 4;
  /// Per-op transfer granularity when re-issuing reads/writes.
  Bytes transferSize = units::MiB;
  /// Compute events are replayed as fixed delays (true) or skipped
  /// (false: I/O back-to-back — a pure storage stress replay).
  bool replayCompute = true;
};

/// The "replay" generator section (its "trace" path is read beside it).
template <class IO>
void fields(IO& io, ReplayConfig& c) {
  io("pidsPerNode", c.pidsPerNode, kCount);
  io("transferSize", c.transferSize, kPositive);
  io("replayCompute", c.replayCompute);
}

struct ReplayResult {
  TraceLog trace;              ///< the as-replayed timeline
  IoTimeBreakdown breakdown;   ///< Fig 4 metrics on the replayed run
  ThroughputReport throughput;
  Seconds originalIoTime = 0.0;  ///< total I/O time in the input trace
  Seconds replayedIoTime = 0.0;  ///< total I/O time after replay
  /// Malformed op records dropped (zero-byte I/O, negative compute):
  /// the skip-and-count salvage policy shared with trace_import.
  std::size_t skippedOps = 0;
  /// >1: the target system is slower than the traced one; <1: faster.
  double ioSlowdown() const {
    return originalIoTime > 0 ? replayedIoTime / originalIoTime : 0.0;
  }
};

class TraceReplayer {
 public:
  TraceReplayer(TestBench& bench, FileSystemModel& fs) : bench_(bench), fs_(fs) {}

  /// Replay `input` to completion. Per pid, events execute in start-time
  /// order: I/O is re-issued against the model (its duration becomes
  /// whatever the model says); compute is a fixed delay. Throws
  /// std::invalid_argument naming a `cfg` field outside its range.
  ReplayResult replay(const TraceLog& input, const ReplayConfig& cfg = {});

 private:
  TestBench& bench_;
  FileSystemModel& fs_;
};

}  // namespace hcsim
