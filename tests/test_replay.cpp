#include "workload/replay_source.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/experiment.hpp"
#include "dlio/dlio_runner.hpp"
#include "trace/overlap_analysis.hpp"
#include "trace/trace_import.hpp"
#include "workload/workload_runner.hpp"

namespace hcsim {
namespace {

using workload::ReplayConfig;

TraceLog syntheticTrace(std::size_t pids, std::size_t readsPerPid, Bytes bytes) {
  TraceLog log;
  for (std::uint32_t pid = 0; pid < pids; ++pid) {
    Seconds t = 0.0;
    for (std::size_t i = 0; i < readsPerPid; ++i) {
      log.recordRead(pid, 1, t, 0.01, bytes);
      t += 0.01;
      log.recordCompute(pid, 0, t, 0.05);
      t += 0.05;
    }
  }
  return log;
}

/// A replay run as the replay generator gives it: the as-replayed
/// timeline, read with the same overlap metrics as the input.
struct Replayed {
  TraceLog trace;
  Seconds originalIoTime = 0.0;
  Seconds replayedIoTime = 0.0;
  std::size_t skippedOps = 0;
  /// >1: the target system is slower than the traced one; <1: faster.
  double ioSlowdown() const {
    return originalIoTime > 0 ? replayedIoTime / originalIoTime : 0.0;
  }
};

Replayed replay(TestBench& bench, FileSystemModel& fs, const TraceLog& input,
                const ReplayConfig& cfg = {}) {
  Replayed r;
  workload::ReplaySource source(input, cfg);
  workload::WorkloadRunner runner(bench, fs);
  runner.setTraceLog(&r.trace);
  runner.run(source);
  r.trace.sortByStart();
  r.originalIoTime =
      input.totalDuration(TraceEventKind::Read) + input.totalDuration(TraceEventKind::Write);
  r.replayedIoTime = analyzeOverlap(r.trace).totalIo;
  r.skippedOps = source.skippedOps();
  return r;
}

TEST(TraceReplay, ValidatesConfig) {
  // A zero would divide in load(); the source refuses it up front.
  ReplayConfig cfg;
  cfg.pidsPerNode = 0;
  EXPECT_THROW(workload::ReplaySource(TraceLog{}, cfg), std::invalid_argument);
  cfg = ReplayConfig{};
  cfg.transferSize = 0;
  EXPECT_THROW(workload::ReplaySource(TraceLog{}, cfg), std::invalid_argument);
}

TEST(TraceReplay, EmptyTraceIsEmptyResult) {
  TestBench bench(Machine::wombat(), 1);
  auto fs = bench.attachVast(vastOnWombat());
  const Replayed r = replay(bench, *fs, TraceLog{});
  EXPECT_TRUE(r.trace.empty());
  EXPECT_DOUBLE_EQ(r.ioSlowdown(), 0.0);
}

TEST(TraceReplay, ReplaysAllEventsWithSameBytes) {
  TestBench bench(Machine::wombat(), 2);
  auto fs = bench.attachVast(vastOnWombat());
  const TraceLog input = syntheticTrace(4, 8, units::MiB);
  const Replayed r = replay(bench, *fs, input);
  EXPECT_EQ(r.trace.count(TraceEventKind::Read), input.count(TraceEventKind::Read));
  EXPECT_EQ(r.trace.count(TraceEventKind::Compute), input.count(TraceEventKind::Compute));
  EXPECT_EQ(r.trace.totalBytes(TraceEventKind::Read),
            input.totalBytes(TraceEventKind::Read));
  EXPECT_GT(r.replayedIoTime, 0.0);
}

TEST(TraceReplay, SkipComputeCompressesTimeline) {
  TestBench bench(Machine::wombat(), 1);
  auto fs = bench.attachVast(vastOnWombat());
  const TraceLog input = syntheticTrace(2, 8, units::MiB);

  ReplayConfig withCompute;
  const Replayed a = replay(bench, *fs, input, withCompute);
  ReplayConfig noCompute;
  noCompute.replayCompute = false;
  const Replayed b = replay(bench, *fs, input, noCompute);

  const auto spanOf = [](const TraceLog& t) {
    const auto [lo, hi] = t.timeSpan();
    return hi - lo;
  };
  EXPECT_LT(spanOf(b.trace), spanOf(a.trace));
  EXPECT_EQ(b.trace.count(TraceEventKind::Compute), 0u);
}

TEST(TraceReplay, SlowerTargetYieldsHigherSlowdown) {
  // Capture a ResNet-50 run on GPFS, then replay it on TCP-attached VAST
  // (slower) and on GPFS again (similar): the slowdown factors order.
  DlioConfig cfg;
  cfg.workload = DlioWorkload::resnet50();
  cfg.workload.samples = 32;
  cfg.nodes = 1;
  cfg.procsPerNode = 2;
  const DlioResult captured = runDlio(Site::Lassen, StorageKind::Gpfs, cfg);

  Environment slow = makeEnvironment(Site::Lassen, StorageKind::Vast, 1);
  ReplayConfig rc;
  rc.pidsPerNode = 2;
  rc.transferSize = 150 * units::KB;
  const Replayed onVast = replay(*slow.bench, *slow.fs, captured.trace, rc);

  Environment same = makeEnvironment(Site::Lassen, StorageKind::Gpfs, 1);
  const Replayed onGpfs = replay(*same.bench, *same.fs, captured.trace, rc);

  EXPECT_GT(onVast.ioSlowdown(), onGpfs.ioSlowdown());
  EXPECT_GT(onVast.ioSlowdown(), 1.5);  // TCP VAST clearly slower
}

TEST(TraceReplay, PerPidOrderingPreserved) {
  TestBench bench(Machine::wombat(), 1);
  auto fs = bench.attachVast(vastOnWombat());
  // Two reads per pid; the replayed second read must start after the
  // first ends (sequential per-process semantics).
  TraceLog input;
  input.recordRead(0, 1, 0.0, 0.1, units::MiB, "first");
  input.recordRead(0, 1, 0.2, 0.1, units::MiB, "second");
  const Replayed r = replay(bench, *fs, input);
  ASSERT_EQ(r.trace.size(), 2u);
  const TraceEvent* first = nullptr;
  const TraceEvent* second = nullptr;
  for (const auto& e : r.trace.events()) {
    if (e.name == "first") first = &e;
    if (e.name == "second") second = &e;
  }
  ASSERT_TRUE(first && second);
  EXPECT_GE(second->start, first->end() - 1e-12);
}

TEST(TraceReplay, SkipsAndCountsMalformedRecords) {
  TestBench bench(Machine::wombat(), 1);
  auto fs = bench.attachVast(vastOnWombat());
  TraceLog input;
  input.recordRead(0, 1, 0.0, 0.01, units::MiB, "good");
  input.recordRead(0, 1, 0.02, 0.01, 0, "empty");       // zero-byte I/O
  input.recordCompute(0, 0, 0.04, -0.05, "backwards");  // negative span
  input.recordRead(0, 1, 0.1, 0.01, units::MiB, "good2");
  const Replayed r = replay(bench, *fs, input);
  EXPECT_EQ(r.skippedOps, 2u);
  EXPECT_EQ(r.trace.count(TraceEventKind::Read), 2u);
}

TEST(TraceReplay, TruncatedTraceFileIsSalvagedAndReplayable) {
  // A killed run truncates the chrome-trace file mid-line; the importer
  // must salvage the complete lines and the replay must still run.
  std::ostringstream doc;
  doc << "{\"traceEvents\":[\n";
  for (int i = 0; i < 20; ++i) {
    doc << R"({"ph":"X","cat":"read","name":"r)" << i << R"(","pid":)" << (i % 2)
        << R"(,"tid":0,"ts":)" << i * 2000 << R"(,"dur":1000,"args":{"bytes":1048576}},)" << "\n";
  }
  doc << "]}\n";
  const std::string full = doc.str();
  const std::string truncated = full.substr(0, full.size() * 6 / 10);
  const std::string path = std::string(::testing::TempDir()) + "truncated_trace.json";
  {
    std::ofstream f(path, std::ios::trunc);
    f << truncated;
  }

  TraceLog imported;
  TraceImportStats stats;
  ASSERT_TRUE(readChromeTrace(path, imported, &stats));
  EXPECT_GT(stats.imported, 0u);
  EXPECT_LT(stats.imported, 20u);  // the cut really dropped events

  TestBench bench(Machine::wombat(), 1);
  auto fs = bench.attachVast(vastOnWombat());
  ReplayConfig cfg;
  cfg.pidsPerNode = 2;
  const Replayed r = replay(bench, *fs, imported, cfg);
  EXPECT_EQ(r.trace.count(TraceEventKind::Read), stats.imported);
  EXPECT_GT(r.replayedIoTime, 0.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hcsim
