// what_if_replay — the trace-replay workflow: capture a training run's
// I/O trace on one system, then ask "what would this application's I/O
// have cost on a different deployment?" without re-running it. The
// replay generator (workload::ReplaySource) re-issues the captured
// events on a WorkloadRunner, and the replayed trace is read with the
// same Fig 4-6 metrics as the captured one.

#include <cstdio>

#include "core/experiment.hpp"
#include "trace/overlap_analysis.hpp"
#include "util/table.hpp"
#include "workload/replay_source.hpp"
#include "workload/workload_runner.hpp"

using namespace hcsim;

int main() {
  std::printf("== What-if replay: ResNet-50 captured on GPFS, replayed elsewhere ==\n\n");

  // 1. Capture: run the training once on GPFS@Lassen and keep the trace.
  DlioConfig cfg;
  cfg.workload = DlioWorkload::resnet50();
  cfg.nodes = 2;
  cfg.procsPerNode = 4;
  const DlioResult captured = runDlio(Site::Lassen, StorageKind::Gpfs, cfg);
  std::printf("captured: %zu events, %s of reads, %.3f s of I/O time\n\n",
              captured.trace.size(), formatBytes(captured.bytesRead).c_str(),
              captured.breakdown.totalIo);
  const Seconds capturedIo = captured.trace.totalDuration(TraceEventKind::Read) +
                             captured.trace.totalDuration(TraceEventKind::Write);

  // 2. Replay the same event stream against each candidate deployment.
  workload::ReplayConfig rc;
  rc.pidsPerNode = cfg.procsPerNode;
  rc.transferSize = cfg.workload.transferSize;

  ResultTable t("replayed I/O cost by deployment");
  t.setHeader({"deployment", "replayed I/O s", "slowdown vs captured", "sys GB/s"});
  t.setPrecision(3);
  const struct {
    Site site;
    StorageKind kind;
  } targets[] = {
      {Site::Lassen, StorageKind::Gpfs},
      {Site::Lassen, StorageKind::Vast},
      {Site::Wombat, StorageKind::Vast},
      {Site::Wombat, StorageKind::NvmeLocal},
  };
  for (const auto& tgt : targets) {
    Environment env = makeEnvironment(tgt.site, tgt.kind, cfg.nodes);
    workload::ReplaySource source(captured.trace, rc);
    workload::WorkloadRunner runner(*env.bench, *env.fs);
    TraceLog replayed;
    runner.setTraceLog(&replayed);
    runner.run(source);
    replayed.sortByStart();
    const Seconds replayedIo = analyzeOverlap(replayed).totalIo;
    t.addRow({std::string(toString(tgt.kind)) + "@" + toString(tgt.site), replayedIo,
              capturedIo > 0 ? replayedIo / capturedIo : 0.0,
              units::toGBs(computeThroughput(replayed).system)});
  }
  std::printf("%s\n", t.toString().c_str());
  std::printf("Reading: TCP-attached VAST inflates this app's I/O time, RDMA-attached\n"
              "VAST and node-local NVMe keep it near (or below) the captured cost —\n"
              "the what-if version of the paper's takeaway for application users.\n");
  return 0;
}
