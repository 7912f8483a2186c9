#include "vast/vast_model.hpp"

#include <gtest/gtest.h>

#include "cluster/deployments.hpp"

namespace hcsim {
namespace {

PhaseSpec phase(AccessPattern p, Bytes ws = 0, std::uint32_t nodes = 1,
                std::uint32_t ppn = 1) {
  PhaseSpec ph;
  ph.pattern = p;
  ph.requestSize = units::MiB;
  ph.nodes = nodes;
  ph.procsPerNode = ppn;
  ph.workingSetBytes = ws;
  return ph;
}

Seconds runOne(TestBench& bench, FileSystemModel& fs, const IoRequest& req) {
  SimTime end = -1;
  fs.submit(req, [&](const IoResult& r) { end = r.endTime; });
  bench.sim().run();
  return end;
}

TEST(VastConfig, ValidateRejectsBadValues) {
  VastConfig c = VastConfig::wombatInstance();
  c.cnodes = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = VastConfig::wombatInstance();
  c.dataReductionRatio = 1.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = VastConfig::wombatInstance();
  c.transport = NfsTransport::Tcp;
  c.gateway.present = false;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = vastOnLassen();
  c.gateway.linkBandwidth = 0.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(VastConfig, PresetsMatchPaperInventory) {
  const VastConfig lc = VastConfig::lcInstance();
  EXPECT_EQ(lc.cnodes, 16u);
  EXPECT_EQ(lc.dboxes, 5u);
  EXPECT_EQ(lc.dnodesPerBox, 2u);  // "ten DNodes and 16 CNodes"
  EXPECT_EQ(lc.qlcPerBox, 22u);
  EXPECT_EQ(lc.scmPerBox, 6u);
  EXPECT_EQ(lc.transport, NfsTransport::Tcp);

  const VastConfig w = VastConfig::wombatInstance();
  EXPECT_EQ(w.cnodes, 8u);
  EXPECT_EQ(w.dboxes * w.dnodesPerBox, 8u);  // eight BlueField DNodes
  EXPECT_EQ(w.transport, NfsTransport::Rdma);
  EXPECT_EQ(w.nconnect, 16u);  // "nconnect=16 and multipathing"
  EXPECT_TRUE(w.multipath);
  EXPECT_FALSE(w.gateway.present);
}

TEST(VastConfig, LcCapacityIsRoughly5PB) {
  // Paper: "total capacity of 5.2 PB".
  const double pb = static_cast<double>(VastConfig::lcInstance().totalCapacity()) /
                    static_cast<double>(units::PB);
  EXPECT_GT(pb, 4.0);
  EXPECT_LT(pb, 6.5);
}

TEST(VastConfig, SessionHelpers) {
  VastConfig c = VastConfig::wombatInstance();
  EXPECT_EQ(c.sessionsPerClient(), 16u);
  c.nconnect = 0;
  try {
    c.validate();
    ADD_FAILURE() << "nconnect 0 validated";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("nconnect"), std::string::npos) << e.what();
  }
  EXPECT_DOUBLE_EQ(c.sessionCap(), c.rdmaSessionCap);
  c.transport = NfsTransport::Tcp;
  EXPECT_DOUBLE_EQ(c.sessionCap(), c.tcpSessionCap);
  EXPECT_DOUBLE_EQ(c.rpcLatency(), c.tcpRpcLatency);
}

TEST(VastConfig, TransportToString) {
  EXPECT_STREQ(toString(NfsTransport::Tcp), "NFS/TCP");
  EXPECT_STREQ(toString(NfsTransport::Rdma), "NFS/RDMA");
}

TEST(VastModel, PhaseSetsPatternDependentCapacities) {
  TestBench bench(Machine::wombat(), 1);
  auto fs = bench.attachVast(vastOnWombat());
  fs->beginPhase(phase(AccessPattern::SequentialWrite));
  const Bandwidth writeCap = fs->deviceWriteCapacity();
  EXPECT_GT(writeCap, 0.0);
  fs->endPhase();
  fs->beginPhase(phase(AccessPattern::SequentialRead));
  EXPECT_GT(fs->deviceReadCapacity(), writeCap);  // QLC reads beat SCM writes
}

TEST(VastModel, ReadCacheHitRatioFromWorkingSet) {
  TestBench bench(Machine::wombat(), 1);
  VastConfig cfg = vastOnWombat();
  cfg.dnodeCacheBytes = units::GiB;
  auto fs = bench.attachVast(cfg);
  fs->beginPhase(phase(AccessPattern::SequentialRead, 4 * units::GiB));
  EXPECT_NEAR(fs->phaseReadCacheHitRatio(), 0.25, 1e-9);
  fs->endPhase();
  fs->beginPhase(phase(AccessPattern::SequentialRead, units::GiB / 2));
  EXPECT_DOUBLE_EQ(fs->phaseReadCacheHitRatio(), 1.0);
  fs->endPhase();
  fs->beginPhase(phase(AccessPattern::SequentialWrite, units::GiB));
  EXPECT_DOUBLE_EQ(fs->phaseReadCacheHitRatio(), 0.0);  // writes never "hit"
}

TEST(VastModel, WritesAccumulateInScm) {
  TestBench bench(Machine::wombat(), 1);
  auto fs = bench.attachVast(vastOnWombat());
  fs->beginPhase(phase(AccessPattern::SequentialWrite));
  IoRequest req;
  req.client = {0, 0};
  req.fileId = 1;
  req.bytes = units::GiB;
  req.pattern = AccessPattern::SequentialWrite;
  fs->submit(req, nullptr);
  // Dirty immediately after the burst lands; the background migration
  // then drains it to QLC by the time the simulation settles.
  EXPECT_GT(fs->scmDirtyBytes(), 0u);
  bench.sim().runUntil(bench.sim().now() + 3600.0);
  EXPECT_EQ(fs->scmDirtyBytes(), 0u);
}

TEST(VastModel, TcpSessionCapThrottlesSingleClient) {
  TestBench bench(Machine::lassen(), 1);
  auto fs = bench.attachVast(vastOnLassen());
  fs->beginPhase(phase(AccessPattern::SequentialWrite, 0, 1, 4));
  IoRequest req;
  req.client = {0, 0};
  req.fileId = 1;
  req.bytes = units::GiB;
  req.pattern = AccessPattern::SequentialWrite;
  req.ops = 1024;
  req.streams = 4;
  const Seconds t = runOne(bench, *fs, req);
  const Bandwidth bw = static_cast<double>(req.bytes) / t;
  // One NFS/TCP session: must land at or below the session cap.
  EXPECT_LE(bw, vastOnLassen().tcpSessionCap * 1.01);
  EXPECT_GT(bw, vastOnLassen().tcpSessionCap * 0.5);
}

TEST(VastModel, RdmaNconnectBeatsSingleSession) {
  const auto run = [](std::size_t nconnect) {
    TestBench bench(Machine::wombat(), 1);
    VastConfig cfg = vastOnWombat();
    cfg.name = "VAST-nc" + std::to_string(nconnect);
    cfg.nconnect = nconnect;
    auto fs = bench.attachVast(cfg);
    PhaseSpec ph = phase(AccessPattern::SequentialWrite, 0, 1, 16);
    fs->beginPhase(ph);
    SimTime last = 0;
    int outstanding = 0;
    for (std::uint32_t p = 0; p < 16; ++p) {
      IoRequest req;
      req.client = {0, p};
      req.fileId = p + 1;
      req.bytes = 256 * units::MiB;
      req.pattern = AccessPattern::SequentialWrite;
      req.ops = 256;
      ++outstanding;
      fs->submit(req, [&](const IoResult& r) {
        last = std::max(last, r.endTime);
        --outstanding;
      });
    }
    bench.sim().run();
    EXPECT_EQ(outstanding, 0);
    return 16.0 * 256.0 * static_cast<double>(units::MiB) / last;
  };
  EXPECT_GT(run(16), 2.0 * run(1));
}

TEST(VastModel, GatewayPipeLimitsTcpAggregate) {
  // Many Lassen nodes behind ONE gateway: aggregate pinned to the pipe.
  TestBench bench(Machine::lassen(), 8);
  auto fs = bench.attachVast(vastOnLassen());
  fs->beginPhase(phase(AccessPattern::SequentialWrite, 0, 8, 4));
  SimTime last = 0;
  for (std::uint32_t n = 0; n < 8; ++n) {
    IoRequest req;
    req.client = {n, 0};
    req.fileId = n + 1;
    req.bytes = units::GiB;
    req.pattern = AccessPattern::SequentialWrite;
    req.ops = 1024;
    req.streams = 4;
    fs->submit(req, [&](const IoResult& r) { last = std::max(last, r.endTime); });
  }
  bench.sim().run();
  const Bandwidth agg = 8.0 * static_cast<double>(units::GiB) / last;
  EXPECT_LE(agg, vastOnLassen().tcpGatewayPipeCap * 1.01);
}

TEST(VastModel, FsyncWritesSlowerThanAsyncWrites) {
  const auto run = [](bool fsync) {
    TestBench bench(Machine::wombat(), 1);
    VastConfig cfg = vastOnWombat();
    cfg.name = fsync ? "VAST-sync" : "VAST-async";
    auto fs = bench.attachVast(cfg);
    PhaseSpec ph = phase(AccessPattern::SequentialWrite);
    ph.fsync = fsync;
    fs->beginPhase(ph);
    SimTime last = 0;
    int remaining = 64;
    std::function<void()> next = [&] {
      IoRequest req;
      req.client = {0, 0};
      req.fileId = 1;
      req.bytes = units::MiB;
      req.pattern = AccessPattern::SequentialWrite;
      req.fsync = fsync;
      fs->submit(req, [&](const IoResult& r) {
        last = r.endTime;
        if (--remaining > 0) next();
      });
    };
    next();
    bench.sim().run();
    return last;
  };
  EXPECT_GT(run(true), 1.5 * run(false));
}

TEST(VastModel, ZeroByteRequestIsMetadataRpc) {
  TestBench bench(Machine::wombat(), 1);
  auto fs = bench.attachVast(vastOnWombat());
  fs->beginPhase(phase(AccessPattern::SequentialRead));
  IoRequest req;
  req.client = {0, 0};
  req.bytes = 0;
  const Seconds t = runOne(bench, *fs, req);
  EXPECT_NEAR(t, vastOnWombat().rdmaRpcLatency, 1e-9);
}

TEST(VastModel, ClientParallelismReportsNconnect) {
  TestBench bench(Machine::wombat(), 1);
  auto fs = bench.attachVast(vastOnWombat());
  EXPECT_EQ(fs->clientParallelism(), 16u);
}

TEST(VastModel, TotalCapacityMatchesConfig) {
  TestBench bench(Machine::wombat(), 1);
  auto fs = bench.attachVast(vastOnWombat());
  EXPECT_EQ(fs->totalCapacity(), vastOnWombat().totalCapacity());
}

TEST(VastModel, ReadSplitConservesBytes) {
  TestBench bench(Machine::wombat(), 1);
  VastConfig cfg = vastOnWombat();
  cfg.dnodeCacheBytes = units::GiB;  // partial hit ratio
  auto fs = bench.attachVast(cfg);
  fs->beginPhase(phase(AccessPattern::SequentialRead, 3 * units::GiB));
  IoRequest req;
  req.client = {0, 0};
  req.fileId = 1;
  req.bytes = 128 * units::MiB;
  req.pattern = AccessPattern::SequentialRead;
  req.ops = 128;
  Bytes got = 0;
  fs->submit(req, [&](const IoResult& r) { got = r.bytes; });
  bench.sim().run();
  EXPECT_EQ(got, req.bytes);
}

}  // namespace
}  // namespace hcsim
