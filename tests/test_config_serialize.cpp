#include "config/serialize.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "cluster/deployments.hpp"
#include "config/fields.hpp"
#include "config/paths.hpp"
#include "core/backends.hpp"
#include "sweep/sweep_spec.hpp"

namespace hcsim {
namespace {

template <typename T>
T roundTrip(const T& in) {
  T out{};
  const JsonValue j = toJson(in);
  EXPECT_TRUE(fromJson(j, out));
  return out;
}

TEST(ConfigSerialize, EnumsRoundTrip) {
  for (AccessPattern p : {AccessPattern::SequentialRead, AccessPattern::SequentialWrite,
                          AccessPattern::RandomRead, AccessPattern::RandomWrite}) {
    AccessPattern out{};
    EXPECT_TRUE(fromJson(toJson(p), out));
    EXPECT_EQ(out, p);
  }
  NfsTransport t{};
  EXPECT_TRUE(fromJson(toJson(NfsTransport::Rdma), t));
  EXPECT_EQ(t, NfsTransport::Rdma);
  ScalingMode m{};
  EXPECT_TRUE(fromJson(toJson(ScalingMode::Strong), m));
  EXPECT_EQ(m, ScalingMode::Strong);
  AccessPattern bad{};
  EXPECT_FALSE(fromJson(JsonValue("bogus"), bad));
  EXPECT_FALSE(fromJson(JsonValue(3.0), bad));
}

TEST(ConfigSerialize, MachineRoundTrip) {
  const Machine out = roundTrip(Machine::lassen());
  EXPECT_EQ(out.name, "Lassen");
  EXPECT_EQ(out.nodes, 795u);
  EXPECT_EQ(out.coresPerNode, 44u);
  EXPECT_DOUBLE_EQ(out.nodeInjection, Machine::lassen().nodeInjection);
}

TEST(ConfigSerialize, VastConfigRoundTrip) {
  VastConfig in = vastOnWombat();
  in.dataReductionRatio = 0.42;
  in.dnodeCacheBytes = 3 * units::TB;
  const VastConfig out = roundTrip(in);
  EXPECT_EQ(out.name, in.name);
  EXPECT_EQ(out.cnodes, in.cnodes);
  EXPECT_EQ(out.transport, NfsTransport::Rdma);
  EXPECT_EQ(out.nconnect, 16u);
  EXPECT_DOUBLE_EQ(out.dataReductionRatio, 0.42);
  EXPECT_EQ(out.dnodeCacheBytes, 3 * units::TB);
  EXPECT_DOUBLE_EQ(out.qlcSpec.writeBandwidth, in.qlcSpec.writeBandwidth);
  out.validate();  // still structurally sound
}

TEST(ConfigSerialize, VastGatewayRoundTrip) {
  const VastConfig out = roundTrip(vastOnQuartz());
  EXPECT_TRUE(out.gateway.present);
  EXPECT_EQ(out.gateway.nodes, 32u);
  EXPECT_EQ(out.gateway.linksPerNode, 2u);
  EXPECT_DOUBLE_EQ(out.gateway.linkBandwidth, units::gbps(1));
}

TEST(ConfigSerialize, GpfsLustreNvmeRoundTrip) {
  const GpfsConfig g = roundTrip(gpfsOnLassen());
  EXPECT_EQ(g.nsdServers, 16u);
  EXPECT_EQ(g.capacityTotal, 24 * units::PB);

  LustreConfig l0 = lustreOnQuartz();
  l0.stripeCount = 4;
  const LustreConfig l = roundTrip(l0);
  EXPECT_EQ(l.stripeCount, 4u);
  EXPECT_EQ(l.ossCount, 36u);

  const NvmeLocalConfig n = roundTrip(nvmeOnWombat());
  EXPECT_EQ(n.drivesPerNode, 3u);
  EXPECT_EQ(n.drive.name, "Samsung970PRO");
}

TEST(ConfigSerialize, IorConfigRoundTrip) {
  IorConfig in = IorConfig::singleNodeFsync(AccessPattern::SequentialWrite, 8);
  in.stonewallSeconds = 2.5;
  in.filePerProcess = false;
  const IorConfig out = roundTrip(in);
  EXPECT_EQ(out.access, AccessPattern::SequentialWrite);
  EXPECT_EQ(out.mode, IorConfig::Mode::PerOp);
  EXPECT_TRUE(out.fsyncPerWrite);
  EXPECT_FALSE(out.filePerProcess);
  EXPECT_DOUBLE_EQ(out.stonewallSeconds, 2.5);
  EXPECT_EQ(out.procsPerNode, 8u);
}

TEST(ConfigSerialize, DlioRoundTrip) {
  DlioConfig in;
  in.workload = DlioWorkload::unet3d();
  in.nodes = 16;
  in.procsPerNode = 4;
  const DlioConfig out = roundTrip(in);
  EXPECT_EQ(out.workload.name, "unet3d");
  EXPECT_EQ(out.workload.checkpointEvery, in.workload.checkpointEvery);
  EXPECT_EQ(out.workload.checkpointBytes, in.workload.checkpointBytes);
  EXPECT_EQ(out.workload.scaling, ScalingMode::Weak);
  EXPECT_EQ(out.nodes, 16u);
}

TEST(ConfigSerialize, MdtestRoundTrip) {
  MdtestConfig in;
  in.itemsPerProc = 99;
  in.uniqueDirPerTask = true;
  const MdtestConfig out = roundTrip(in);
  EXPECT_EQ(out.itemsPerProc, 99u);
  EXPECT_TRUE(out.uniqueDirPerTask);
}

TEST(ConfigSerialize, PartialJsonKeepsDefaults) {
  JsonValue j;
  ASSERT_TRUE(parseJson(R"({"cnodes": 4, "transport": "tcp", "dnodeCacheBytes": 1500000000.75,
                            "gateway": {"present": true, "linkBandwidth": 1e9}})", j));
  VastConfig out = VastConfig::wombatInstance();  // defaults to overwrite
  ASSERT_TRUE(fromJson(j, out));
  EXPECT_EQ(out.cnodes, 4u);
  EXPECT_EQ(out.transport, NfsTransport::Tcp);
  EXPECT_TRUE(out.gateway.present);
  EXPECT_DOUBLE_EQ(out.gateway.linkBandwidth, 1e9);
  // Fractional counts truncate: the oracle scales byte counts by factors.
  EXPECT_EQ(out.dnodeCacheBytes, 1500000000u);
  // Untouched keys keep the preset's values.
  EXPECT_EQ(out.nconnect, 16u);
  EXPECT_EQ(out.dboxes, 4u);
}

TEST(ConfigSerialize, StrictReaderNamesTheDottedKey) {
  struct Case {
    const char* json;
    const char* error;
  };
  const Case vast[] = {
      {R"({"cnodez": 4})", "storageConfig.cnodez: unknown key"},
      {R"({"gateway": {"latencyz": 1}})", "storageConfig.gateway.latencyz: unknown key"},
      {R"({"transport": "udp"})", "storageConfig.transport: must be tcp|rdma (got 'udp')"},
      {R"({"cnodes": -3})", "storageConfig.cnodes: must be a positive integer (got -3)"},
      {R"({"cnodes": "4"})", "storageConfig.cnodes: must be a positive integer (got '4')"},
      {R"({"cnodes": 1e30})", "storageConfig.cnodes: must be a non-negative integer (got 1"},
      {R"({"multipath": 1})", "storageConfig.multipath: must be true or false (got 1)"},
      {R"({"fabricLatency": null})", "storageConfig.fabricLatency: must be a number (got null)"},
      {R"({"qlcSpec": 3})", "storageConfig.qlcSpec: must be an object"},
      {R"({"nconnect": 0})", "storageConfig.nconnect: must be a positive integer (got 0)"},
      {R"({"fabricLinkBandwidth": 0})", "storageConfig.fabricLinkBandwidth: must be > 0 (got 0)"},
      {R"({"fabricLinkBandwidth": -5})",
       "storageConfig.fabricLinkBandwidth: must be > 0 (got -5)"},
  };
  for (const Case& c : vast) {
    JsonValue j;
    ASSERT_TRUE(parseJson(c.json, j));
    VastConfig cfg = vastOnLassen();
    const std::string err = readFields(j, cfg, "storageConfig");
    EXPECT_EQ(err.rfind(c.error, 0), 0u) << c.json << " -> " << err;
    EXPECT_EQ(err.find('\n'), std::string::npos) << err;
    EXPECT_FALSE(fromJson(j, cfg)) << c.json;
  }
  JsonValue j;
  ASSERT_TRUE(parseJson(R"({"access": "seq-reed"})", j));
  IorConfig ior;
  EXPECT_EQ(readFields(j, ior, "ior"),
            "ior.access: must be seq-read|seq-write|rand-read|rand-write (got 'seq-reed')");
  ASSERT_TRUE(parseJson(R"({"mode": "bulk"})", j));
  EXPECT_EQ(readFields(j, ior, "ior"), "ior.mode: must be coalesced|per-op (got 'bulk')");
  ASSERT_TRUE(parseJson(R"({"workload": {"epochz": 2}})", j));
  DlioConfig dlio;
  EXPECT_EQ(readFields(j, dlio, "dlio"), "dlio.workload.epochz: unknown key");
  ASSERT_TRUE(parseJson(R"({"kind": "ib"})", j));
  transport::TransportProfile fabric;
  EXPECT_EQ(readFields(j, fabric, "transport"), "transport.kind: must be tcp|rdma (got 'ib')");
}

/// validate() walks the same field list over a config built in code and
/// names the first field outside its range, nested keys dotted.
TEST(ConfigSerialize, ValidateNamesTheFieldOutsideItsRange) {
  const auto whyInvalid = [](const auto& cfg) -> std::string {
    try {
      cfg.validate();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  VastConfig vast = vastOnLassen();
  EXPECT_EQ(whyInvalid(vast), "");
  vast.nconnect = 0;
  EXPECT_EQ(whyInvalid(vast), "VastConfig.nconnect: must be a positive integer (got 0)");
  vast = vastOnLassen();
  vast.qlcSpec.randomEfficiency = 0.0;
  EXPECT_EQ(whyInvalid(vast), "VastConfig.qlcSpec.randomEfficiency: must be in (0, 1] (got 0)");

  DaosConfig daos = DaosConfig::instance();
  EXPECT_EQ(whyInvalid(daos), "");
  daos.fabric.lanes = 0;
  EXPECT_EQ(whyInvalid(daos), "DaosConfig.fabric.lanes: must be a positive integer (got 0)");

  GpfsConfig gpfs = gpfsOnLassen();
  gpfs.raidParityOverhead = 1.0;
  EXPECT_EQ(whyInvalid(gpfs), "GpfsConfig.raidParityOverhead: must be in [0, 1) (got 1)");

  IorConfig ior;
  ior.transferSize = 0;
  EXPECT_EQ(whyInvalid(ior), "IorConfig.transferSize: must be > 0 (got 0)");
}

/// Every numeric leaf of `written` moved off its value and every boolean
/// flipped, each edit inside the field's range: a number moves to
/// floor(v) + 1 (a count, size or time), or to v / 2 when T's reader
/// rejects that (a share already at 1, or one that must stay below 1).
template <typename T>
JsonValue editEveryLeaf(const JsonValue& written) {
  JsonValue edited = sweep::deepCopy(written);
  for (const JsonPathInfo& leaf : enumerateJsonPaths(written)) {
    const JsonValue* v = sweep::jsonPathGet(written, leaf.path);
    if (leaf.kind == JsonPathInfo::Kind::Number) {
      const double d = *v->number();
      JsonValue up = sweep::deepCopy(written);
      sweep::jsonPathSet(up, leaf.path, JsonValue(std::floor(d) + 1.0));
      T probe{};
      sweep::jsonPathSet(edited, leaf.path,
                         JsonValue(fromJson(up, probe) ? std::floor(d) + 1.0 : d / 2));
    } else if (leaf.kind == JsonPathInfo::Kind::Boolean) {
      sweep::jsonPathSet(edited, leaf.path, JsonValue(!*v->boolean()));
    }
  }
  return edited;
}

/// Read the edited bytes back and write them again: a key that is
/// written but not read comes back at its default and fails the match.
template <typename T>
void expectEveryFieldRoundTrips(const JsonValue& written, const std::string& what) {
  const JsonValue edited = editEveryLeaf<T>(written);
  ASSERT_NE(writeJson(edited), writeJson(written)) << what;
  T cfg{};
  ASSERT_TRUE(fromJson(edited, cfg)) << what;
  EXPECT_EQ(writeJson(toJson(cfg)), writeJson(edited)) << what;
}

TEST(ConfigSerialize, EveryWrittenFieldIsRead) {
  for (const BackendInfo& row : backendTable()) {
    for (Site site : row.sites) {
      const JsonValue preset = row.preset(site);
      const std::string what = std::string(row.name) + "@" + toString(site);
      switch (row.kind) {
        case StorageKind::Vast: expectEveryFieldRoundTrips<VastConfig>(preset, what); break;
        case StorageKind::Gpfs: expectEveryFieldRoundTrips<GpfsConfig>(preset, what); break;
        case StorageKind::Lustre: expectEveryFieldRoundTrips<LustreConfig>(preset, what); break;
        case StorageKind::NvmeLocal:
          expectEveryFieldRoundTrips<NvmeLocalConfig>(preset, what);
          break;
        case StorageKind::Daos: expectEveryFieldRoundTrips<DaosConfig>(preset, what); break;
      }
    }
  }
  for (const SiteInfo& s : siteTable()) {
    expectEveryFieldRoundTrips<Machine>(toJson(s.machine()), s.name);
  }
  IorConfig ior = IorConfig::singleNodeFsync(AccessPattern::RandomRead, 4);
  ior.clientsPerRank = 8;  // written only when not 1
  expectEveryFieldRoundTrips<IorConfig>(toJson(ior), "ior");
  DlioConfig dlio;
  dlio.workload = DlioWorkload::unet3d();
  expectEveryFieldRoundTrips<DlioConfig>(toJson(dlio), "dlio");
  expectEveryFieldRoundTrips<MdtestConfig>(toJson(MdtestConfig{}), "mdtest");
  expectEveryFieldRoundTrips<transport::TransportProfile>(
      transport::toJson(transport::TransportProfile::tcp()), "transport tcp");
  expectEveryFieldRoundTrips<transport::TransportProfile>(
      transport::toJson(transport::TransportProfile::rdma()), "transport rdma");
}

TEST(ConfigSerialize, WrongShapeRejected) {
  VastConfig out;
  EXPECT_FALSE(fromJson(JsonValue(3.0), out));
  EXPECT_FALSE(fromJson(JsonValue("x"), out));
}

TEST(ConfigSerialize, SaveAndLoadFile) {
  const std::string path = "/tmp/hcsim_cfg_test.json";
  VastConfig in = vastOnLassen();
  in.cnodes = 24;
  ASSERT_TRUE(saveConfig(in, path));
  VastConfig out;
  ASSERT_TRUE(loadConfig(path, out));
  EXPECT_EQ(out.cnodes, 24u);
  EXPECT_EQ(out.name, "VAST@Lassen");
  std::remove(path.c_str());
  EXPECT_FALSE(loadConfig("/nonexistent/cfg.json", out));
}

TEST(ConfigSerialize, LoadedConfigDrivesASimulation) {
  // The full loop: serialize -> file -> load -> run.
  const std::string path = "/tmp/hcsim_cfg_run.json";
  ASSERT_TRUE(saveConfig(vastOnWombat(), path));
  VastConfig cfg;
  ASSERT_TRUE(loadConfig(path, cfg));
  cfg.name = "fromfile";
  std::remove(path.c_str());

  TestBench bench(Machine::wombat(), 1);
  auto fs = bench.attachVast(cfg);
  PhaseSpec ph;
  ph.pattern = AccessPattern::SequentialWrite;
  ph.requestSize = units::MiB;
  fs->beginPhase(ph);
  IoRequest req;
  req.client = {0, 0};
  req.fileId = 1;
  req.bytes = units::MiB;
  req.pattern = AccessPattern::SequentialWrite;
  SimTime end = 0;
  fs->submit(req, [&](const IoResult& r) { end = r.endTime; });
  bench.sim().run();
  EXPECT_GT(end, 0.0);
}

}  // namespace
}  // namespace hcsim
