// Regression tests pinning the paper's headline results. The paper's
// artifacts are the sweep specs under examples/specs/paper, and its
// ablations those under examples/specs/studies, each pinned by the
// snapshot beside it: PaperArtifact and StudyArtifact re-run every spec
// against its snapshot, and the other tests assert the SHAPES the paper
// reports (who wins, by what rough factor, where saturation falls) over
// the committed cells. A model change that moves any recorded column of
// a cell past the oracle's 2% (throughput, runtime, the dlio block's
// system throughput and I/O split) fails the first; one that breaks a
// finding fails the others once the snapshots are re-recorded.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>

#include "core/calibration.hpp"
#include "core/experiment.hpp"
#include "oracle/golden.hpp"
#include "sweep/result_sink.hpp"

namespace hcsim {
namespace {

// ---------- every artifact reproduces its snapshot ----------

/// The specs of `dir`, in name order.
std::vector<oracle::GoldenFigure> figuresIn(const char* dir) {
  std::vector<oracle::GoldenFigure> figures;
  std::string error;
  if (!oracle::loadFigures(dir, figures, error)) ADD_FAILURE() << error;
  return figures;
}

std::vector<std::string> artifactNames(const char* dir) {
  std::vector<std::string> names;
  for (const oracle::GoldenFigure& f : figuresIn(dir)) names.push_back(f.name);
  return names;
}

std::string paramName(const ::testing::TestParamInfo<std::string>& info) { return info.param; }

void expectReproducesItsSnapshot(const char* dir, const std::string& name) {
  const std::vector<oracle::GoldenFigure> figures = figuresIn(dir);
  const auto fig = std::find_if(figures.begin(), figures.end(),
                                [&](const oracle::GoldenFigure& f) { return f.name == name; });
  ASSERT_NE(fig, figures.end());
  const oracle::FigureCheck check = oracle::checkFigure(*fig, dir, 1, 2.0);
  EXPECT_TRUE(check.pass()) << oracle::deltaTable(check, 2.0, false);
  EXPECT_EQ(check.cells, fig->spec.trialCount());
}

// The paper's figures, examples/specs/paper.
class PaperArtifact : public ::testing::TestWithParam<std::string> {};

TEST_P(PaperArtifact, SpecReproducesItsSnapshot) {
  expectReproducesItsSnapshot(HCSIM_PAPER_DIR, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Paper, PaperArtifact, ::testing::ValuesIn(artifactNames(HCSIM_PAPER_DIR)),
                         paramName);

// The ablations and extensions, examples/specs/studies.
class StudyArtifact : public ::testing::TestWithParam<std::string> {};

TEST_P(StudyArtifact, SpecReproducesItsSnapshot) {
  expectReproducesItsSnapshot(HCSIM_STUDIES_DIR, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Studies, StudyArtifact,
                         ::testing::ValuesIn(artifactNames(HCSIM_STUDIES_DIR)), paramName);

TEST(PaperArtifacts, EverySpecHasASnapshotAndEverySnapshotASpec) {
  const struct {
    const char* dir;
    std::set<std::string> specs;
  } dirs[] = {
      {HCSIM_PAPER_DIR, {"fig2a", "fig2b", "fig3a", "fig3b", "fig3c", "fig3d", "fig5", "fig6"}},
      {HCSIM_STUDIES_DIR,
       {"apps_dlio_lassen", "apps_dlio_wombat", "apps_ior_lassen", "apps_ior_wombat",
        "dlio_compute", "dlio_io_threads", "dlio_prefetch", "failure", "frontend", "hardware",
        "sharedfile_lassen", "sharedfile_quartz", "sharedfile_wombat"}},
  };
  for (const auto& d : dirs) {
    std::set<std::string> specs, snapshots;
    for (const auto& entry : std::filesystem::directory_iterator(d.dir)) {
      const std::filesystem::path& p = entry.path();
      if (p.extension() == ".json") specs.insert(p.stem().string());
      if (p.extension() == ".jsonl") snapshots.insert(p.stem().string());
    }
    EXPECT_EQ(specs, d.specs) << d.dir;
    EXPECT_EQ(snapshots, specs) << d.dir;
  }
}

// ---------- the paper's shapes over the committed cells ----------

/// The committed snapshot of one paper artifact, or of one study.
oracle::Cells artifact(const std::string& name, const char* dir = HCSIM_PAPER_DIR) {
  oracle::Cells cells;
  EXPECT_TRUE(sweep::loadCells(oracle::goldenPath(dir, name), cells)) << name;
  return cells;
}

/// The cell at these axis values; a test failure when absent.
const sweep::TrialMetrics& at(const oracle::Cells& cells, JsonObject params) {
  static const sweep::TrialMetrics kAbsent;
  const std::string key = writeJson(JsonValue(std::move(params)));
  const auto it = cells.find(key);
  if (it == cells.end() || !it->second.ok) {
    ADD_FAILURE() << "no cell " << key;
    return kAbsent;
  }
  return it->second;
}

/// Aggregate GB/s of a Fig 2 (node scaling) cell.
double fig2(const oracle::Cells& cells, const char* storage, const char* access, double nodes) {
  return at(cells, {{"storage", storage}, {"ior.access", access}, {"ior.nodes", nodes}}).meanGBs;
}

/// GB/s of a Fig 3 (single node, fsync) cell.
double fig3(const oracle::Cells& cells, const char* storage, const char* access, double procs) {
  return at(cells, {{"storage", storage}, {"ior.access", access}, {"ior.procsPerNode", procs}})
      .meanGBs;
}

/// A DLIO (Figs 4-6) cell.
const sweep::TrialMetrics& dlio(const oracle::Cells& cells, const char* storage, double nodes) {
  return at(cells, {{"storage", storage}, {"dlio.nodes", nodes}});
}

double totalIo(const sweep::TrialMetrics& m) {
  return m.dlioNonOverlappingIoSec + m.dlioOverlappingIoSec;
}

TEST(Regression, RdmaVastBeatsTcpVastByRoughly8x) {
  const oracle::Cells lassen = artifact("fig2a");
  const oracle::Cells wombat = artifact("fig2b");
  const double tcpWrite = fig2(lassen, "vast", "seq-write", 1);
  const double tcpRead = fig2(lassen, "vast", "seq-read", 1);
  const double rdmaWrite = fig2(wombat, "vast", "seq-write", 1);
  const double rdmaRead = fig2(wombat, "vast", "seq-read", 2) / 2;
  EXPECT_GT(rdmaWrite / tcpWrite, 4.0);
  EXPECT_LT(rdmaWrite / tcpWrite, 16.0);
  EXPECT_GT(rdmaRead / tcpRead, 4.0);
  EXPECT_NEAR(tcpWrite, calibration::kTcpPerNodeGBs, 0.5);
  EXPECT_NEAR(rdmaWrite, calibration::kRdmaPerNodeGBs, 3.0);
}

TEST(Regression, VastOnLassenStagnatesAfter32NodesWhileGpfsScales) {
  // Fig 2a: "the abrupt stagnation of VAST after 32 nodes ... while GPFS
  // increases"; VAST grows ~1 GB/s per node until the gateway network
  // saturates, then flatlines at "the maximum available bandwidth on the
  // network".
  const oracle::Cells c = artifact("fig2a");
  const double vast4 = fig2(c, "vast", "rand-read", 4);
  const double vast32 = fig2(c, "vast", "rand-read", 32);
  EXPECT_GT(vast32, 3.0 * vast4);  // grows to 32
  EXPECT_NEAR(fig2(c, "vast", "rand-read", 64) / vast32, 1.0, 0.15);  // flat after
  EXPECT_NEAR(fig2(c, "vast", "rand-read", 128) / vast32, 1.0, 0.15);
  // Plateau == the gateway's physical network budget (2x100 GbE).
  EXPECT_NEAR(fig2(c, "vast", "rand-read", 128),
              units::toGBs(vastOnLassen().gateway.totalBandwidth()), 7.0);
  EXPECT_GT(fig2(c, "gpfs", "seq-write", 64) / fig2(c, "gpfs", "seq-write", 4), 8.0);  // ~linear
}

TEST(Regression, GpfsSequentialReadSaturatesNear32Nodes) {
  const oracle::Cells c = artifact("fig2a");
  const double at32 = fig2(c, "gpfs", "seq-read", 32);
  // Growing up to 32, flat beyond.
  EXPECT_GT(at32, fig2(c, "gpfs", "seq-read", 16) * 1.5);
  EXPECT_NEAR(fig2(c, "gpfs", "seq-read", 64) / at32, 1.0, 0.15);
  EXPECT_NEAR(fig2(c, "gpfs", "seq-read", 128) / at32, 1.0, 0.15);
}

TEST(Regression, GpfsRandomReadsCollapseVsSequential) {
  // Takeaway: ~14.5 GB/s sequential vs ~1.4 GB/s random per node (90%),
  // the random figure at cache-defeating scale.
  const oracle::Cells c = artifact("fig2a");
  const double seq = fig2(c, "gpfs", "seq-read", 1);
  const double rand = fig2(c, "gpfs", "rand-read", 64) / 64;
  EXPECT_GT(1.0 - rand / seq, 0.75);
  EXPECT_NEAR(seq, calibration::kGpfsSeqReadPerNodeGBs, 3.0);
  EXPECT_NEAR(rand, calibration::kGpfsRandReadPerNodeGBs, 1.0);
}

TEST(Regression, VastReadsConsistentAcrossPatterns) {
  // Takeaway: "RDMA-based VAST stays consistent" seq vs random.
  const oracle::Cells c = artifact("fig2b");
  const double seq = fig2(c, "vast", "seq-read", 2);
  const double rand = fig2(c, "vast", "rand-read", 2);
  EXPECT_LT(1.0 - rand / seq, 0.35);
  EXPECT_GT(rand, 0.6 * seq);
}

TEST(Regression, VastOutperformsNvmeAtSmallScaleReads) {
  // Fig 2b: "VAST is able to outperform the NVMe in smaller scales".
  const oracle::Cells c = artifact("fig2b");
  EXPECT_GT(fig2(c, "vast", "seq-read", 1), 1.5 * fig2(c, "nvme", "seq-read", 1));  // VAST wins
  EXPECT_GT(fig2(c, "nvme", "seq-read", 8), fig2(c, "vast", "seq-read", 8));  // NVMe wins
}

TEST(Regression, WombatVastMlPeaksThenSaturates) {
  // "global maximum bandwidth of 22.5 GB/s ... saturates on eight nodes".
  const oracle::Cells c = artifact("fig2b");
  const double peak =
      fig2(c, "vast", "rand-read", static_cast<double>(calibration::kWombatMlPeakNodes));
  EXPECT_NEAR(peak, calibration::kWombatMlPeakGBs, 6.0);
  EXPECT_NEAR(fig2(c, "vast", "rand-read", 8) / peak, 1.0, 0.1);  // saturated
}

TEST(Regression, SingleNodeFsyncVastBeatsNvmeBy5x) {
  // Fig 3d: "VAST performs almost 5x better ... than the NVMe".
  const oracle::Cells c = artifact("fig3d");
  const double vast = fig3(c, "vast", "seq-write", 32);
  const double factor = vast / fig3(c, "nvme", "seq-write", 32);
  EXPECT_GT(factor, 3.0);
  EXPECT_LT(factor, 8.0);
  EXPECT_NEAR(vast, calibration::kWombatSingleNodeWriteGBs, 2.0);
}

TEST(Regression, QuartzVastIsGatewayStarved) {
  // Fig 3b: VAST flat and tiny on Quartz (2x1Gb gateway links).
  const oracle::Cells c = artifact("fig3b");
  const double vast = fig3(c, "vast", "seq-read", 32);
  EXPECT_LT(vast, 0.5);
  EXPECT_GT(fig3(c, "lustre", "seq-read", 32), 10.0 * vast);
}

TEST(Regression, LustreFsyncWritesScaleAlmostLinearly) {
  // Fig 3b/3c: "Lustre ... almost linear increase in bandwidth".
  const oracle::Cells c = artifact("fig3c");
  EXPECT_GT(fig3(c, "lustre", "seq-write", 16), 3.0 * fig3(c, "lustre", "seq-write", 4));
}

TEST(Regression, ResNetIoMostlyOverlapsOnVastAtModerateScale) {
  // Fig 4a/5: VAST spends more I/O time than GPFS but hides most of it.
  const oracle::Cells c = artifact("fig5");
  const sweep::TrialMetrics& vast = dlio(c, "vast", 4);
  const sweep::TrialMetrics& gpfs = dlio(c, "gpfs", 4);
  EXPECT_GT(totalIo(vast), totalIo(gpfs));  // more I/O on VAST
  EXPECT_GT(vast.dlioOverlappingIoSec, vast.dlioNonOverlappingIoSec);
  EXPECT_GT(gpfs.dlioSystemGBs, vast.dlioSystemGBs);  // Fig 5b
}

TEST(Regression, CosmoflowFavorsGpfs) {
  // Fig 6: "GPFS serves Cosmoflow better than VAST".
  const oracle::Cells c = artifact("fig6");
  const sweep::TrialMetrics& vast = dlio(c, "vast", 8);
  const sweep::TrialMetrics& gpfs = dlio(c, "gpfs", 8);
  EXPECT_GT(gpfs.meanGBs, vast.meanGBs);  // application throughput
  EXPECT_GT(gpfs.dlioSystemGBs, vast.dlioSystemGBs);
  EXPECT_GT(vast.dlioNonOverlappingIoSec, gpfs.dlioNonOverlappingIoSec);
}

TEST(Regression, SharedFileReadsAreSlowerOnGpfs) {
  // The app suite (studies/apps_ior_lassen.json): BD-CATS reads one
  // shared HDF5 file (N-1), and is slower on GPFS than the N-N read of
  // HACC's restart and of every KMeans pass.
  const oracle::Cells c = artifact("apps_ior_lassen", HCSIM_STUDIES_DIR);
  JsonObject perProcess = {
      {"access", "seq-read"}, {"nodes", 4}, {"procsPerNode", 16}, {"segments", 512}};
  JsonObject shared = perProcess;
  shared["filePerProcess"] = false;
  EXPECT_LT(at(c, {{"storage", "gpfs"}, {"ior", JsonValue(std::move(shared))}}).meanGBs,
            at(c, {{"storage", "gpfs"}, {"ior", JsonValue(std::move(perProcess))}}).meanGBs);
}

/// GB/s of a failure-study cell: `count` components of one kind failed
/// at atSec 0 (none for 0).
double withFailed(const oracle::Cells& cells, const char* component, int count,
                  const char* access) {
  JsonArray events;
  for (int i = 0; i < count; ++i) {
    events.push_back(JsonObject{
        {"atSec", 0}, {"action", "fail"}, {"component", component}, {"index", i}});
  }
  return at(cells, {{"chaos", JsonObject{{"events", std::move(events)}}}, {"ior.access", access}})
      .meanGBs;
}

TEST(Regression, VastBandwidthFallsWithItsCNodesButNotWithItsEnclosures) {
  // The failure study (studies/failure.json; VAST's HA design, §III-A):
  // CNode CPU binds, so half the CNodes down halves the bandwidth, and
  // the CNodes still bind with a DNode or whole DBoxes down.
  const oracle::Cells c = artifact("failure", HCSIM_STUDIES_DIR);
  for (const char* access : {"seq-write", "seq-read"}) {
    const double healthy = withFailed(c, "cnode", 0, access);
    EXPECT_NEAR(withFailed(c, "cnode", 4, access), healthy / 2, 0.01 * healthy) << access;
    EXPECT_LT(withFailed(c, "cnode", 6, access), withFailed(c, "cnode", 4, access)) << access;
    for (const auto& [component, count] :
         {std::pair{"dnode", 1}, std::pair{"dnode", 4}, std::pair{"dbox", 1}, std::pair{"dbox", 2}}) {
      EXPECT_DOUBLE_EQ(withFailed(c, component, count, access), healthy)
          << access << " " << component << " x" << count;
    }
  }
}

TEST(Regression, AllCalibrationChecksPass) {
  std::string missing;
  const std::vector<calibration::Check> checks =
      oracle::takeawayChecks(artifact("fig2a"), artifact("fig2b"), missing);
  ASSERT_EQ(checks.size(), 9u) << missing;
  for (const auto& check : checks) {
    EXPECT_TRUE(check.pass()) << check.name << ": paper=" << check.paperValue
                              << " measured=" << check.measured;
  }
}

}  // namespace
}  // namespace hcsim
