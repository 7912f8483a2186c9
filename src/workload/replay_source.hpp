#pragma once
// ReplaySource — "what if this application ran on that storage system?"
// A captured TraceLog (from the DLIO emulator or an imported DFTracer /
// chrome trace of a real application) re-expressed as a WorkloadSource:
// one rank per traced pid, each a sequential chain of its events in
// start-time order. I/O events are re-issued against the target model
// (their durations become whatever the model says); compute events are
// fixed delays. Malformed records — zero-byte reads/writes, negative
// compute durations — are skipped and counted, the same salvage policy
// trace_import applies to damaged chrome-trace documents, so one bad
// record never aborts a replay. Record the run with
// WorkloadRunner::setTraceLog and read the replayed timeline with the
// Fig 4-6 metrics (analyzeOverlap, computeThroughput).

#include <cstddef>
#include <vector>

#include "config/range.hpp"
#include "trace/trace_log.hpp"
#include "util/units.hpp"
#include "workload/workload_source.hpp"

namespace hcsim::workload {

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

class ReplaySource : public WorkloadSource {
 public:
  /// Throws std::invalid_argument naming a `cfg` field outside its range.
  ReplaySource(TraceLog input, const ReplayConfig& cfg);

  const std::string& name() const override { return name_; }
  WorkloadPlan load(const WorkloadContext& ctx) override;
  NextStatus next(std::size_t rank, WorkloadOp& out) override;
  void onComplete(std::size_t rank, const WorkloadOp& op, const IoResult& result) override;

  /// Malformed op records dropped (skip-and-count salvage).
  std::size_t skippedOps() const { return skipped_; }

 private:
  struct RankState {
    std::uint32_t pid = 0;
    ClientId client{};
    std::vector<const TraceEvent*> events;  // start-time ordered
    std::size_t next = 0;
    std::uint64_t fileCounter = 0;
    bool pending = false;
  };

  std::string name_ = "replay";
  TraceLog input_;
  ReplayConfig cfg_;
  std::vector<RankState> ranks_;
  std::size_t skipped_ = 0;
};

}  // namespace hcsim::workload
