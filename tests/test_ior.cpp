#include "ior/ior_runner.hpp"

#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace hcsim {
namespace {

TEST(IorConfig, ValidateRejectsBadGeometry) {
  IorConfig c;
  c.blockSize = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = IorConfig{};
  c.transferSize = 3;  // does not divide blockSize
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = IorConfig{};
  c.nodes = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = IorConfig{};
  c.repetitions = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(IorConfig, GeometryDerivations) {
  IorConfig c;
  c.blockSize = units::MiB;
  c.transferSize = 256 * units::KiB;
  c.segments = 10;
  c.nodes = 2;
  c.procsPerNode = 4;
  EXPECT_EQ(c.totalProcs(), 8u);
  EXPECT_EQ(c.bytesPerProc(), 10 * units::MiB);
  EXPECT_EQ(c.totalBytes(), 80 * units::MiB);
  EXPECT_EQ(c.transfersPerProc(), 40u);
}

TEST(IorConfig, ScalabilityPresetMatchesPaperGeometry) {
  const IorConfig c = IorConfig::scalability(AccessPattern::SequentialWrite, 4, 44);
  EXPECT_EQ(c.blockSize, units::MiB);    // "block and transfer size to 1 MB"
  EXPECT_EQ(c.transferSize, units::MiB);
  EXPECT_EQ(c.segments, 3000u);          // "segment number to 3,000"
  // "approximately 120 GB per node"
  const double gbPerNode =
      static_cast<double>(c.bytesPerProc()) * 44.0 / static_cast<double>(units::GB);
  EXPECT_GT(gbPerNode, 110.0);
  EXPECT_LT(gbPerNode, 145.0);
  EXPECT_TRUE(c.reorderTasks);
  EXPECT_EQ(c.mode, IorConfig::Mode::Coalesced);
}

TEST(IorConfig, SingleNodeFsyncPreset) {
  const IorConfig c = IorConfig::singleNodeFsync(AccessPattern::SequentialWrite, 8);
  EXPECT_TRUE(c.fsyncPerWrite);
  EXPECT_EQ(c.mode, IorConfig::Mode::PerOp);
  EXPECT_EQ(c.nodes, 1u);
  EXPECT_EQ(c.procsPerNode, 8u);
  const IorConfig r = IorConfig::singleNodeFsync(AccessPattern::SequentialRead, 8);
  EXPECT_FALSE(r.fsyncPerWrite);  // reads don't fsync
}

TEST(IorConfig, DescribeMentionsFlags) {
  IorConfig c = IorConfig::singleNodeFsync(AccessPattern::SequentialWrite, 4);
  const std::string d = c.describe();
  EXPECT_NE(d.find("-e"), std::string::npos);
  EXPECT_NE(d.find("POSIX"), std::string::npos);
  EXPECT_NE(d.find("seq-write"), std::string::npos);
}

struct Harness {
  explicit Harness(std::size_t nodes = 2)
      : bench(Machine::wombat(), nodes), fs(bench.attachVast(vastOnWombat())) {}
  TestBench bench;
  std::unique_ptr<VastModel> fs;
};

TEST(IorRunner, ReportsPositiveBandwidthAndBytes) {
  Harness h;
  IorRunner runner(h.bench, *h.fs);
  IorConfig cfg = IorConfig::scalability(AccessPattern::SequentialWrite, 2, 8);
  cfg.segments = 64;  // keep the test quick
  const IorResult r = runner.run(cfg);
  EXPECT_GT(r.bandwidth.mean, 0.0);
  EXPECT_EQ(r.totalBytes, cfg.totalBytes());
  EXPECT_GT(r.meanElapsed, 0.0);
  EXPECT_EQ(r.samples.size(), 1u);
}

TEST(IorRunner, RepetitionsProduceSpreadWithNoise) {
  Harness h;
  IorRunner runner(h.bench, *h.fs);
  IorConfig cfg = IorConfig::scalability(AccessPattern::SequentialWrite, 1, 4);
  cfg.segments = 64;
  cfg.repetitions = 10;
  cfg.noiseStdDevFrac = 0.05;
  const IorResult r = runner.run(cfg);
  EXPECT_EQ(r.samples.size(), 10u);
  EXPECT_LT(r.bandwidth.min, r.bandwidth.max);
  EXPECT_GT(r.bandwidth.stddev, 0.0);
}

TEST(IorRunner, NoNoiseRepetitionsAreIdentical) {
  Harness h;
  IorRunner runner(h.bench, *h.fs);
  IorConfig cfg = IorConfig::scalability(AccessPattern::SequentialWrite, 1, 4);
  cfg.segments = 64;
  cfg.repetitions = 3;
  const IorResult r = runner.run(cfg);
  EXPECT_DOUBLE_EQ(r.bandwidth.min, r.bandwidth.max);
}

TEST(IorRunner, DeterministicAcrossRuns) {
  const auto once = [] {
    Harness h;
    IorRunner runner(h.bench, *h.fs);
    IorConfig cfg = IorConfig::scalability(AccessPattern::RandomRead, 2, 8);
    cfg.segments = 32;
    return runner.run(cfg).bandwidth.mean;
  };
  EXPECT_DOUBLE_EQ(once(), once());
}

TEST(IorRunner, ThrowsWhenConfigExceedsBenchNodes) {
  Harness h(2);
  IorRunner runner(h.bench, *h.fs);
  IorConfig cfg = IorConfig::scalability(AccessPattern::SequentialWrite, 4, 4);
  EXPECT_THROW(runner.run(cfg), std::invalid_argument);
}

TEST(IorRunner, PerOpModeCompletesAndIsSlowerWithFsync) {
  Harness h(1);
  IorRunner runner(h.bench, *h.fs);
  IorConfig sync = IorConfig::singleNodeFsync(AccessPattern::SequentialWrite, 4);
  sync.segments = 32;
  IorConfig async = sync;
  async.fsyncPerWrite = false;
  const double syncBw = runner.run(sync).bandwidth.mean;
  const double asyncBw = runner.run(async).bandwidth.mean;
  EXPECT_GT(syncBw, 0.0);
  EXPECT_GT(asyncBw, syncBw);
}

TEST(IorRunner, CoalescedAndPerOpAgreeWithoutFsync) {
  // The coalescing optimization must not change the answer materially
  // when no per-op serialization exists.
  Harness h(1);
  IorRunner runner(h.bench, *h.fs);
  IorConfig coalesced = IorConfig::scalability(AccessPattern::SequentialWrite, 1, 4);
  coalesced.segments = 64;
  IorConfig perOp = coalesced;
  perOp.mode = IorConfig::Mode::PerOp;
  const double a = runner.run(coalesced).bandwidth.mean;
  const double b = runner.run(perOp).bandwidth.mean;
  EXPECT_NEAR(a / b, 1.0, 0.3);
}

TEST(IorRunner, MoreNodesNeverSlowerAggregate) {
  // Weak monotonicity of aggregate bandwidth in node count.
  const auto at = [](std::size_t nodes) {
    TestBench bench(Machine::wombat(), nodes);
    auto fs = bench.attachVast(vastOnWombat());
    IorRunner runner(bench, *fs);
    IorConfig cfg = IorConfig::scalability(AccessPattern::SequentialWrite, nodes, 8);
    cfg.segments = 64;
    return runner.run(cfg).bandwidth.mean;
  };
  const double one = at(1);
  const double four = at(4);
  EXPECT_GE(four, one * 0.99);
}

TEST(IorConfig, StonewallRequiresPerOpMode) {
  IorConfig c = IorConfig::scalability(AccessPattern::SequentialWrite, 1, 4);
  c.stonewallSeconds = 5.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.mode = IorConfig::Mode::PerOp;
  c.validate();
  c.stonewallSeconds = -1.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(IorRunner, StonewallCutsRunShortButKeepsBandwidth) {
  Harness h(1);
  IorRunner runner(h.bench, *h.fs);
  IorConfig full = IorConfig::singleNodeFsync(AccessPattern::SequentialWrite, 4);
  full.segments = 512;
  const IorResult complete = runner.run(full);

  IorConfig walled = full;
  walled.stonewallSeconds = complete.meanElapsed / 4.0;
  const IorResult cut = runner.run(walled);
  EXPECT_LT(cut.totalBytes, complete.totalBytes);
  EXPECT_LT(cut.meanElapsed, complete.meanElapsed * 0.6);
  // Bandwidth is computed over bytes actually moved: stays comparable.
  EXPECT_NEAR(cut.bandwidth.mean / complete.bandwidth.mean, 1.0, 0.25);
}

TEST(IorRunner, PerOpModeReportsLatencyDistribution) {
  Harness h(1);
  IorRunner runner(h.bench, *h.fs);
  IorConfig cfg = IorConfig::singleNodeFsync(AccessPattern::SequentialWrite, 4);
  cfg.segments = 64;
  const IorResult r = runner.run(cfg);
  EXPECT_EQ(r.opLatency.count, 4u * 64u);
  EXPECT_GT(r.opLatency.min, 0.0);
  EXPECT_LE(r.opLatency.min, r.opLatency.p50);
  EXPECT_LE(r.opLatency.p50, r.opLatency.p95);
  EXPECT_LE(r.opLatency.p95, r.opLatency.p99);
  EXPECT_LE(r.opLatency.p99, r.opLatency.max);
}

TEST(IorRunner, CoalescedModeHasNoOpLatencies) {
  Harness h(1);
  IorRunner runner(h.bench, *h.fs);
  IorConfig cfg = IorConfig::scalability(AccessPattern::SequentialWrite, 1, 4);
  cfg.segments = 32;
  EXPECT_EQ(runner.run(cfg).opLatency.count, 0u);
}

TEST(IorRunner, FsyncRaisesTailLatency) {
  Harness h(1);
  IorRunner runner(h.bench, *h.fs);
  IorConfig sync = IorConfig::singleNodeFsync(AccessPattern::SequentialWrite, 8);
  sync.segments = 64;
  IorConfig async = sync;
  async.fsyncPerWrite = false;
  const Summary s = runner.run(sync).opLatency;
  const Summary a = runner.run(async).opLatency;
  EXPECT_GT(s.p99, a.p99);
}

TEST(IorRunner, QosWeightProtectsForeground) {
  // Two node groups on one VAST appliance; the weighted group's flows
  // finish sooner.
  TestBench bench(Machine::wombat(), 2);
  auto fs = bench.attachVast(vastOnWombat());
  PhaseSpec ph;
  ph.pattern = AccessPattern::SequentialRead;
  ph.requestSize = units::MiB;
  ph.nodes = 2;
  ph.procsPerNode = 8;
  ph.workingSetBytes = 16ull * units::GiB;
  fs->beginPhase(ph);
  SimTime heavyEnd = 0, lightEnd = 0;
  for (std::uint32_t n = 0; n < 2; ++n) {
    IoRequest req;
    req.client = {n, 0};
    req.fileId = n + 1;
    req.bytes = 4ull * units::GiB;
    req.pattern = AccessPattern::SequentialRead;
    req.ops = 4096;
    req.streams = 8;
    req.qosWeight = n == 0 ? 4.0 : 1.0;
    fs->submit(req, [&, n](const IoResult& r) { (n == 0 ? heavyEnd : lightEnd) = r.endTime; });
  }
  bench.sim().run();
  EXPECT_LT(heavyEnd, lightEnd);
}

TEST(IorRunner, ReadsAfterWritesSeeWorkingSet) {
  // Working set is passed to the model: a small read working set should
  // enjoy DNode-cache hits and beat the QLC-bound cold case.
  Harness h(1);
  IorRunner runner(h.bench, *h.fs);
  IorConfig cfg = IorConfig::scalability(AccessPattern::SequentialRead, 1, 8);
  cfg.segments = 64;
  const double bw = runner.run(cfg).bandwidth.mean;
  EXPECT_GT(bw, 0.0);
}

// The app-suite studies (examples/specs/studies/apps_ior_*.json) pin
// each IOR phase as a cell on a fresh environment, and HACC's aggregate
// (checkpoint, then restart) and KMeans' (pass after pass) are sums over
// those cells. That holds because a coalesced IOR run on these four
// deployments leaves no state behind for the next run on the same
// environment. Only this case is claimed: DAOS keeps its transport
// connections from one run to the next (a later run at this geometry
// reads 0.02-0.05% faster).
TEST(IorRunner, CoalescedRunsOnTheAppSuiteDeploymentsCarryNoState) {
  const struct {
    Site site;
    StorageKind kind;
  } deployments[] = {{Site::Lassen, StorageKind::Vast},
                     {Site::Lassen, StorageKind::Gpfs},
                     {Site::Wombat, StorageKind::Vast},
                     {Site::Wombat, StorageKind::NvmeLocal}};
  IorConfig write = IorConfig::scalability(AccessPattern::SequentialWrite, 4, 16);
  write.segments = 512;
  IorConfig read = write;
  read.access = AccessPattern::SequentialRead;
  for (const auto& d : deployments) {
    const auto fresh = [&](const IorConfig& cfg) {
      Environment env = makeEnvironment(d.site, d.kind, cfg.nodes);
      return IorRunner(*env.bench, *env.fs).run(cfg).bandwidth.mean;
    };
    const double freshWrite = fresh(write);
    const double freshRead = fresh(read);
    Environment env = makeEnvironment(d.site, d.kind, write.nodes);
    IorRunner runner(*env.bench, *env.fs);
    EXPECT_EQ(runner.run(write).bandwidth.mean, freshWrite) << toString(d.kind);
    const IorConfig later[] = {write, read, read, read};
    for (const IorConfig& cfg : later) {
      const double want = isRead(cfg.access) ? freshRead : freshWrite;
      EXPECT_NEAR(runner.run(cfg).bandwidth.mean, want, 1e-12 * want) << toString(d.kind);
    }
  }
}

}  // namespace
}  // namespace hcsim
