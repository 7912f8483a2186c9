// Cross-cutting property tests: invariants that must hold over parameter
// sweeps, regardless of calibration values.

#include <gtest/gtest.h>

#include "config/fields.hpp"
#include "core/experiment.hpp"
#include "dlio/dlio_runner.hpp"
#include "ior/ior_runner.hpp"
#include "oracle/relation.hpp"
#include "sweep/result_sink.hpp"
#include "sweep/sweep_runner.hpp"
#include "util/random.hpp"

namespace hcsim {
namespace {

// ---------- Flow-network conservation over random schedules ----------

class FlowConservationTest : public ::testing::TestWithParam<int> {};

TEST_P(FlowConservationTest, BytesCarriedEqualsBytesInjected) {
  const int seed = GetParam();
  Simulator sim;
  FlowNetwork net(sim);
  Rng rng(static_cast<std::uint64_t>(seed) * 2654435761u + 3);

  std::vector<LinkId> links;
  for (int i = 0; i < 4; ++i) {
    links.push_back(net.addLink("l" + std::to_string(i), rng.uniform(50, 500)));
  }
  std::vector<double> expected(links.size(), 0.0);
  double completedBytes = 0.0;
  std::size_t completions = 0;
  const int flows = 20;
  for (int f = 0; f < flows; ++f) {
    Route route;
    for (std::size_t i = 0; i < links.size(); ++i) {
      if (rng.uniform() < 0.5) route.push_back(links[i]);
    }
    if (route.empty()) route.push_back(links[0]);
    const Bytes bytes = 1000 + rng.uniformInt(50000);
    for (LinkId l : route) expected[l.value] += static_cast<double>(bytes);
    FlowSpec spec{bytes, route};
    spec.startupLatency = rng.uniform(0.0, 5.0);
    net.startFlow(spec, [&](const FlowCompletion& c) {
      completedBytes += static_cast<double>(c.bytes);
      ++completions;
    });
  }
  sim.run();
  EXPECT_EQ(completions, static_cast<std::size_t>(flows));
  for (std::size_t i = 0; i < links.size(); ++i) {
    EXPECT_NEAR(net.link(links[i]).bytesCarried, expected[i],
                expected[i] * 1e-6 + static_cast<double>(flows))
        << "link " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowConservationTest, ::testing::Range(0, 8));

// ---------- DLIO breakdown identities ----------

struct DlioCase {
  StorageKind kind;
  bool cosmoflowLike;
};

class DlioInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(DlioInvariantTest, OverlapPartitionsTotalIo) {
  const int param = GetParam();
  const StorageKind kind = param % 2 ? StorageKind::Gpfs : StorageKind::Vast;
  DlioConfig cfg;
  cfg.workload = param / 2 ? DlioWorkload::cosmoflow() : DlioWorkload::resnet50();
  cfg.workload.samples = 24;
  cfg.workload.scaling = ScalingMode::Weak;
  cfg.nodes = 1;
  cfg.procsPerNode = 2;
  const DlioResult r = runDlio(Site::Lassen, kind, cfg);

  // Identity: non-overlapping + overlapping == total I/O time.
  EXPECT_NEAR(r.breakdown.nonOverlappingIo + r.breakdown.overlappingIo, r.breakdown.totalIo,
              1e-9 * std::max(1.0, r.breakdown.totalIo));
  // Bytes flow through exactly once.
  EXPECT_EQ(r.breakdown.ioBytes, r.bytesRead + r.bytesCheckpointed);
  // Runtime covers at least the per-rank compute chain.
  EXPECT_GE(r.runtime + 1e-9, r.breakdown.totalCompute / cfg.totalRanks());
  // Every batch trained exactly once.
  EXPECT_EQ(r.batchesTrained,
            cfg.samplesPerRank() * cfg.workload.epochs * cfg.totalRanks());
}

INSTANTIATE_TEST_SUITE_P(Cases, DlioInvariantTest, ::testing::Range(0, 4));

// ---------- IOR scaling monotonicity ----------

struct SweepCase {
  Site site;
  StorageKind kind;
  AccessPattern pattern;
};

class IorMonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(IorMonotonicityTest, AggregateBandwidthNonDecreasingInNodes) {
  static const SweepCase cases[] = {
      {Site::Lassen, StorageKind::Vast, AccessPattern::SequentialWrite},
      {Site::Lassen, StorageKind::Gpfs, AccessPattern::SequentialRead},
      {Site::Lassen, StorageKind::Gpfs, AccessPattern::RandomRead},
      {Site::Wombat, StorageKind::Vast, AccessPattern::RandomRead},
      {Site::Wombat, StorageKind::NvmeLocal, AccessPattern::SequentialWrite},
  };
  const SweepCase& c = cases[static_cast<std::size_t>(GetParam())];
  sweep::SweepSpec spec;
  JsonObject ior;
  ior["access"] = enumName(c.pattern);
  ior["procsPerNode"] = 8.0;
  JsonObject base;
  base["site"] = siteInfo(c.site).name;
  base["storage"] = backendInfo(c.kind).name;
  base["ior"] = JsonValue(std::move(ior));
  spec.base = JsonValue(std::move(base));
  spec.axes.push_back({"ior.nodes", {JsonValue(1.0), JsonValue(2.0), JsonValue(4.0), JsonValue(8.0)}});
  const sweep::SweepOutcome out = sweep::runSweep(spec, 1);
  for (std::size_t i = 1; i < out.results.size(); ++i) {
    // Near-monotone: growing working sets may shave cache hit ratios
    // (GPFS random reads), but aggregate bandwidth must never collapse
    // when nodes are added.
    EXPECT_GE(out.results[i].metrics.meanGBs, out.results[i - 1].metrics.meanGBs * 0.85)
        << toString(c.kind) << "@" << toString(c.site) << " "
        << sweep::paramsKey(out.results[i].trial);
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, IorMonotonicityTest, ::testing::Range(0, 5));

// ---------- IOR bandwidth sanity across transfer sizes ----------

class IorTransferSizeTest : public ::testing::TestWithParam<Bytes> {};

TEST_P(IorTransferSizeTest, SmallerTransfersNeverFaster) {
  const Bytes xfer = GetParam();
  Environment env = makeEnvironment(Site::Wombat, StorageKind::Vast, 2);
  IorRunner runner(*env.bench, *env.fs);
  IorConfig small = IorConfig::scalability(AccessPattern::SequentialWrite, 2, 8);
  small.transferSize = xfer;
  small.blockSize = units::MiB;
  small.segments = 64;
  IorConfig big = small;
  big.transferSize = units::MiB;
  const double smallBw = runner.run(small).bandwidth.mean;
  const double bigBw = runner.run(big).bandwidth.mean;
  EXPECT_LE(smallBw, bigBw * 1.01) << "xfer=" << xfer;
}

INSTANTIATE_TEST_SUITE_P(Sizes, IorTransferSizeTest,
                         ::testing::Values(4 * units::KiB, 64 * units::KiB, 256 * units::KiB,
                                           units::MiB / 2));

// ---------- VAST configuration space stays physical ----------

class VastConfigSpaceTest : public ::testing::TestWithParam<int> {};

TEST_P(VastConfigSpaceTest, AnyValidConfigYieldsPositiveBoundedBandwidth) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) + 77);
  VastConfig cfg = VastConfig::wombatInstance();
  cfg.name = "sweep" + std::to_string(seed);
  cfg.cnodes = 1 + rng.uniformInt(32);
  cfg.dboxes = 1 + rng.uniformInt(8);
  cfg.nconnect = 1 + rng.uniformInt(32);
  cfg.dataReductionRatio = rng.uniform(0.0, 0.9);
  cfg.dnodeCacheBytes = rng.uniformInt(8) * units::TB;
  cfg.validate();

  TestBench bench(Machine::wombat(), 2);
  auto fs = bench.attachVast(cfg);
  IorRunner runner(bench, *fs);
  IorConfig ior = IorConfig::scalability(AccessPattern::SequentialRead, 2, 8);
  ior.segments = 64;
  const double bw = runner.run(ior).bandwidth.mean;
  EXPECT_GT(bw, 0.0);
  // Physical ceiling: cannot beat both NICs' injection bandwidth.
  EXPECT_LE(bw, 2.0 * Machine::wombat().nodeInjection * 1.001);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VastConfigSpaceTest, ::testing::Range(0, 10));

// ---------- per-filesystem metamorphic relations ----------
//
// Each paper claim below is stated once, as a relation in the oracle's
// built-in catalog, and dogfooded here over a handful of seeded
// perturbed configs. `hcsim oracle relations` runs the same catalog at
// 50+ cases; these keep the claims wired into plain ctest.

class MetamorphicCatalogTest : public ::testing::TestWithParam<const char*> {};

TEST_P(MetamorphicCatalogTest, HoldsOverSeededPerturbedConfigs) {
  const auto* rel = oracle::RelationRegistry::builtin().find(GetParam());
  ASSERT_NE(rel, nullptr) << GetParam();
  oracle::SuiteOptions options;
  options.casesPerRelation = 8;
  options.jobs = 2;
  const oracle::RelationReport rep = oracle::runRelation(*rel, options);
  EXPECT_TRUE(rep.pass()) << oracle::toMarkdown({rep});
}

INSTANTIATE_TEST_SUITE_P(
    PaperClaims, MetamorphicCatalogTest,
    ::testing::Values(
        // Fig 2b: VAST's SCM/QLC path keeps random reads within a bounded
        // gap of sequential reads.
        "vast.random-read-tracks-sequential",
        // §V: a bigger GPFS pagepool keeps a bigger resident core, so the
        // random-read hit ratio (and bandwidth) is monotone in it.
        "gpfs.random-read-monotone-in-pagepool",
        // Fig 3b/3c: Lustre bandwidth is monotone in stripe count.
        "lustre.read-monotone-in-stripe-count",
        // Fig 2b: NVMe aggregate bandwidth is monotone in queue depth and
        // saturates at (never beats) the per-node drive pool.
        "nvme.read-monotone-in-queue-depth", "nvme.reads-saturate-at-device-pool"));

}  // namespace
}  // namespace hcsim
