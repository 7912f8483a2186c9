#include "core/experiment.hpp"
#include "core/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace hcsim {
namespace {

TEST(Experiment, ToStringNames) {
  EXPECT_STREQ(toString(Site::Lassen), "Lassen");
  EXPECT_STREQ(toString(Site::Wombat), "Wombat");
  EXPECT_STREQ(toString(StorageKind::Vast), "VAST");
  EXPECT_STREQ(toString(StorageKind::NvmeLocal), "NVMe");
}

TEST(Experiment, MachineForMatchesPreset) {
  EXPECT_EQ(machineFor(Site::Ruby).name, "Ruby");
  EXPECT_EQ(machineFor(Site::Quartz).nodes, 3018u);
}

TEST(Experiment, MakesPaperDefinedEnvironments) {
  for (Site site : {Site::Lassen, Site::Ruby, Site::Quartz, Site::Wombat}) {
    const Environment env = makeEnvironment(site, StorageKind::Vast, 2);
    EXPECT_NE(env.fs, nullptr);
    EXPECT_NE(env.bench, nullptr);
  }
  EXPECT_NE(makeEnvironment(Site::Lassen, StorageKind::Gpfs, 1).fs, nullptr);
  EXPECT_NE(makeEnvironment(Site::Quartz, StorageKind::Lustre, 1).fs, nullptr);
  EXPECT_NE(makeEnvironment(Site::Ruby, StorageKind::Lustre, 1).fs, nullptr);
  EXPECT_NE(makeEnvironment(Site::Wombat, StorageKind::NvmeLocal, 1).fs, nullptr);
}

TEST(Experiment, RejectsCombinationsThePaperDoesNotDefine) {
  EXPECT_THROW(makeEnvironment(Site::Wombat, StorageKind::Gpfs, 1), std::invalid_argument);
  EXPECT_THROW(makeEnvironment(Site::Lassen, StorageKind::Lustre, 1), std::invalid_argument);
  EXPECT_THROW(makeEnvironment(Site::Lassen, StorageKind::NvmeLocal, 1), std::invalid_argument);
  EXPECT_THROW(makeEnvironment(Site::Wombat, StorageKind::Lustre, 1), std::invalid_argument);
}

// backendInfo()/siteInfo() index the tables by enum value, and every
// name parser and preset lookup reads the same rows.
TEST(BackendTable, RowsSitInEnumOrderAndServeEverySite) {
  for (std::size_t i = 0; i < siteTable().size(); ++i) {
    const SiteInfo& row = siteTable()[i];
    EXPECT_EQ(static_cast<std::size_t>(row.site), i);
    Site parsed;
    ASSERT_TRUE(parseSite(row.name, parsed));
    EXPECT_EQ(parsed, row.site);
  }
  for (std::size_t i = 0; i < backendTable().size(); ++i) {
    const BackendInfo& row = backendTable()[i];
    EXPECT_EQ(static_cast<std::size_t>(row.kind), i);
    StorageKind parsed;
    ASSERT_TRUE(parseStorage(row.name, parsed));
    EXPECT_EQ(parsed, row.kind);
    for (const SiteInfo& site : siteTable()) {
      const bool runs =
          std::find(row.sites.begin(), row.sites.end(), site.site) != row.sites.end();
      if (runs) {
        EXPECT_TRUE(presetJson(site.site, row.kind).isObject()) << row.name << "@" << site.name;
      } else {
        EXPECT_THROW(presetJson(site.site, row.kind), std::invalid_argument);
      }
    }
  }
  EXPECT_EQ(storageNames(), "vast|gpfs|lustre|nvme|daos");
  EXPECT_TRUE(backendInfo(StorageKind::Daos).oracleKnobs.empty());
}

TEST(Experiment, NodeSweepReturnsOnePointPerCount) {
  const auto pts = runIorNodeSweep(Site::Wombat, StorageKind::Vast,
                                   AccessPattern::SequentialWrite, {1, 2, 4}, 8);
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_EQ(pts[0].x, 1u);
  EXPECT_EQ(pts[2].x, 4u);
  for (const auto& p : pts) {
    EXPECT_GT(p.meanGBs, 0.0);
    EXPECT_LE(p.minGBs, p.meanGBs);
    EXPECT_GE(p.maxGBs, p.meanGBs);
  }
}

TEST(Experiment, ProcSweepRunsSingleNode) {
  const auto pts = runIorProcSweep(Site::Wombat, StorageKind::NvmeLocal,
                                   AccessPattern::SequentialWrite, {1, 4});
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_GT(pts[1].meanGBs, pts[0].meanGBs * 0.5);
}

TEST(Experiment, RunDlioProducesTrace) {
  DlioConfig cfg;
  cfg.workload = DlioWorkload::resnet50();
  cfg.workload.samples = 16;
  cfg.nodes = 1;
  cfg.procsPerNode = 2;
  const DlioResult r = runDlio(Site::Lassen, StorageKind::Gpfs, cfg);
  EXPECT_GT(r.trace.size(), 0u);
  EXPECT_EQ(r.batchesTrained, 32u);
}

TEST(Sweep, PowersOfTwo) {
  EXPECT_EQ(powersOfTwo(8), (std::vector<std::size_t>{1, 2, 4, 8}));
  EXPECT_EQ(powersOfTwo(1), (std::vector<std::size_t>{1}));
  EXPECT_EQ(powersOfTwo(100), (std::vector<std::size_t>{1, 2, 4, 8, 16, 32, 64}));
}

TEST(Sweep, FigureTableAlignsSeries) {
  Series a{"A", {{1, 1.0, 0.9, 1.1}, {2, 2.0, 1.9, 2.1}}};
  Series b{"B", {{2, 4.0, 3.9, 4.1}, {4, 8.0, 7.9, 8.1}}};
  const ResultTable t = makeFigureTable("fig", "nodes", {a, b});
  EXPECT_EQ(t.rowCount(), 3u);  // x grid = {1, 2, 4}
  EXPECT_EQ(t.columnCount(), 3u);
  // Row for x=1 has no B value.
  EXPECT_EQ(std::get<std::string>(t.at(0, 2)), "");
  EXPECT_DOUBLE_EQ(std::get<double>(t.at(1, 2)), 4.0);
}

TEST(Sweep, FigureTableSpreadColumns) {
  Series a{"A", {{1, 1.0, 0.9, 1.1}}};
  const ResultTable t = makeFigureTable("fig", "x", {a}, /*spread=*/true);
  EXPECT_EQ(t.columnCount(), 4u);
  EXPECT_DOUBLE_EQ(std::get<double>(t.at(0, 2)), 0.9);
  EXPECT_DOUBLE_EQ(std::get<double>(t.at(0, 3)), 1.1);
}

}  // namespace
}  // namespace hcsim
