#include "replay/trace_replay.hpp"

#include "config/fields.hpp"
#include "workload/replay_source.hpp"
#include "workload/workload_runner.hpp"

namespace hcsim {

ReplayResult TraceReplayer::replay(const TraceLog& input, const ReplayConfig& cfg) {
  requireFields(cfg, "ReplayConfig");

  ReplayResult result;
  result.originalIoTime = input.totalDuration(TraceEventKind::Read) +
                          input.totalDuration(TraceEventKind::Write);

  // The per-pid event chains live in workload::ReplaySource; the generic
  // WorkloadRunner re-issues them and records the as-replayed timeline.
  workload::ReplaySource source(input, cfg);
  workload::WorkloadRunner runner(bench_, fs_);
  runner.setTraceLog(&result.trace);
  runner.run(source);
  result.skippedOps = source.skippedOps();

  result.trace.sortByStart();
  result.breakdown = analyzeOverlap(result.trace);
  result.throughput = computeThroughput(result.trace);
  result.replayedIoTime = result.breakdown.totalIo;
  return result;
}

}  // namespace hcsim
