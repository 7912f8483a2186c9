// The aggregation-equivalence suite pinning hcsim::scale: a flow class
// of N members must be byte-identical to N explicit symmetric clients,
// at every layer it passes through — the max-min solver, the four
// storage models (with and without fail-slow), the retry layer, and the
// open-loop workload driver. Plus the scale library itself (demand
// placement, statistical demultiplexing) and the engine's flat-memory
// evidence (peak pending events).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/experiment.hpp"
#include "fs/client_session.hpp"
#include "net/flow_network.hpp"
#include "net/topology.hpp"
#include "scale/flow_class.hpp"
#include "sweep/result_sink.hpp"
#include "sweep/sweep_runner.hpp"
#include "telemetry/metrics_registry.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "workload/ior_source.hpp"
#include "workload/openloop_source.hpp"
#include "workload/workload_runner.hpp"
#include "workload/workload_spec.hpp"

namespace hcsim {
namespace {

JsonValue mustParse(const std::string& text) {
  JsonValue v;
  EXPECT_TRUE(parseJson(text, v)) << text;
  return v;
}

// ---- scale library: demand placement ----

TEST(NormalQuantile, KnownValuesAndSymmetry) {
  EXPECT_NEAR(scale::normalQuantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(scale::normalQuantile(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(scale::normalQuantile(0.0013498980316301), -3.0, 1e-6);
  for (double p : {0.01, 0.1, 0.25, 0.4}) {
    EXPECT_NEAR(scale::normalQuantile(p), -scale::normalQuantile(1.0 - p), 1e-9) << p;
  }
  EXPECT_THROW(scale::normalQuantile(0.0), std::invalid_argument);
  EXPECT_THROW(scale::normalQuantile(1.0), std::invalid_argument);
}

TEST(NormalQuantile, StrictlyIncreasing) {
  double prev = scale::normalQuantile(0.001);
  for (double p = 0.01; p < 1.0; p += 0.01) {
    const double q = scale::normalQuantile(p);
    EXPECT_GT(q, prev) << p;
    prev = q;
  }
}

TEST(DemandMultipliers, UniformIsBitwiseOnes) {
  const auto m = scale::demandMultipliers({scale::DemandKind::Uniform, 0.0, 0.0}, 5);
  ASSERT_EQ(m.size(), 5u);
  for (double v : m) EXPECT_EQ(v, 1.0);  // the literal, not "close to"
  // Degenerate parameterizations collapse to the same no-op.
  const auto zeroSigma = scale::demandMultipliers({scale::DemandKind::Lognormal, 0.0, 0.0}, 3);
  for (double v : zeroSigma) EXPECT_EQ(v, 1.0);
}

TEST(DemandMultipliers, LognormalMeanOneAscending) {
  const auto m = scale::demandMultipliers({scale::DemandKind::Lognormal, 0.8, 0.0}, 64);
  ASSERT_EQ(m.size(), 64u);
  double sum = 0.0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_GT(m[i], 0.0);
    if (i > 0) EXPECT_GE(m[i], m[i - 1]);
    sum += m[i];
  }
  EXPECT_NEAR(sum / 64.0, 1.0, 1e-12);
  EXPECT_GT(m.back() / m.front(), 3.0);  // sigma 0.8 is real heterogeneity
}

TEST(DemandMultipliers, ZipfMeanOneAscending) {
  const auto m = scale::demandMultipliers({scale::DemandKind::Zipf, 0.0, 1.0}, 16);
  ASSERT_EQ(m.size(), 16u);
  double sum = 0.0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i > 0) EXPECT_GE(m[i], m[i - 1]);
    sum += m[i];
  }
  EXPECT_NEAR(sum / 16.0, 1.0, 1e-12);
}

TEST(DemandMultipliers, NegativeParametersThrow) {
  EXPECT_THROW(scale::demandMultipliers({scale::DemandKind::Lognormal, -0.5, 0.0}, 4),
               std::invalid_argument);
  EXPECT_THROW(scale::demandMultipliers({scale::DemandKind::Zipf, 0.0, -1.0}, 4),
               std::invalid_argument);
}

// ---- scale library: statistical demultiplexing ----

TEST(WeightedPercentile, MatchesExpandedMultiset) {
  const std::vector<scale::WeightedSample> weighted = {
      {0.5, 3}, {1.25, 1}, {2.0, 5}, {7.5, 2}};
  std::vector<double> expanded;
  for (const auto& s : weighted) {
    for (std::uint64_t i = 0; i < s.count; ++i) expanded.push_back(s.value);
  }
  std::sort(expanded.begin(), expanded.end());
  for (double q : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(scale::weightedPercentile(weighted, q), percentileSorted(expanded, q))
        << "q=" << q;
  }
}

TEST(Demultiplex, CountOneMatchesSummarize) {
  const std::vector<double> values = {3.2, 0.7, 5.5, 1.1, 4.9, 2.0, 0.9};
  std::vector<scale::WeightedSample> weighted;
  for (double v : values) weighted.push_back({v, 1});
  const Summary a = summarize(values);
  const Summary b = scale::demultiplex(weighted);
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.min, b.min);
  EXPECT_DOUBLE_EQ(a.max, b.max);
  EXPECT_DOUBLE_EQ(a.p50, b.p50);
  EXPECT_DOUBLE_EQ(a.p95, b.p95);
  EXPECT_DOUBLE_EQ(a.p99, b.p99);
  EXPECT_NEAR(a.mean, b.mean, 1e-12);
  EXPECT_NEAR(a.stddev, b.stddev, 1e-9);
}

TEST(Demultiplex, WeightedMatchesExpandedSummarize) {
  const std::vector<scale::WeightedSample> weighted = {{0.004, 1000}, {0.011, 250}, {0.09, 17}};
  std::vector<double> expanded;
  for (const auto& s : weighted) {
    for (std::uint64_t i = 0; i < s.count; ++i) expanded.push_back(s.value);
  }
  const Summary a = summarize(expanded);
  const Summary b = scale::demultiplex(weighted);
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.p50, b.p50);
  EXPECT_DOUBLE_EQ(a.p95, b.p95);
  EXPECT_DOUBLE_EQ(a.p99, b.p99);
  EXPECT_NEAR(a.mean, b.mean, 1e-12);
  EXPECT_NEAR(a.stddev, b.stddev, 1e-9);
}

TEST(Demultiplex, ZeroCountSamplesIgnored) {
  const Summary s = scale::demultiplex({{5.0, 0}, {2.0, 3}});
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.max, 2.0);
}

TEST(ClassStats, ExportsGauges) {
  telemetry::MetricsRegistry reg;
  scale::exportTo(scale::ClassStats{4, 4000}, reg);
  EXPECT_DOUBLE_EQ(reg.gaugeOr("scale.classes", 0.0), 4.0);
  EXPECT_DOUBLE_EQ(reg.gaugeOr("scale.clientsPerClass", 0.0), 1000.0);
  EXPECT_DOUBLE_EQ(reg.gaugeOr("scale.clientsTotal", 0.0), 4000.0);
}

// ---- flow network: class-of-N == N singleton flows ----

struct NetHarness {
  Simulator sim;
  FlowNetwork net{sim};
};

/// A competing flow in its own fairness group (the rate cap separates
/// its signature), so the class actually contends for the link.
FlowSpec cappedCompetitor(LinkId l) {
  FlowSpec s{8000, {l}};
  s.rateCap = 10.0;
  return s;
}

TEST(FlowClassEquivalence, ClassOfNMatchesNSingletons) {
  const std::uint32_t n = 4;
  // N explicit flows.
  std::vector<SimTime> singleEnds;
  SimTime competitorEndA = -1;
  {
    NetHarness h;
    const LinkId l = h.net.addLink("l", 100.0);
    for (std::uint32_t i = 0; i < n; ++i) {
      h.net.startFlow({1000, {l}},
                      [&](const FlowCompletion& c) { singleEnds.push_back(c.endTime); });
    }
    h.net.startFlow(cappedCompetitor(l),
                    [&](const FlowCompletion& c) { competitorEndA = c.endTime; });
    h.sim.run();
  }
  // One class of N.
  FlowCompletion classDone{};
  SimTime competitorEndB = -1;
  {
    NetHarness h;
    const LinkId l = h.net.addLink("l", 100.0);
    FlowSpec spec{1000, {l}};
    spec.members = n;
    h.net.startFlow(spec, [&](const FlowCompletion& c) { classDone = c; });
    h.net.startFlow(cappedCompetitor(l),
                    [&](const FlowCompletion& c) { competitorEndB = c.endTime; });
    h.sim.run();
  }
  ASSERT_EQ(singleEnds.size(), static_cast<std::size_t>(n));
  for (SimTime end : singleEnds) EXPECT_DOUBLE_EQ(end, classDone.endTime);
  EXPECT_DOUBLE_EQ(competitorEndA, competitorEndB);
  EXPECT_EQ(classDone.bytes, 4000u);  // aggregate payload
  EXPECT_EQ(classDone.members, n);
}

TEST(FlowClassEquivalence, PartitionInvariance) {
  // 6 clients as one class, as 2+4, and as 6 singletons: identical.
  auto run = [](const std::vector<std::uint32_t>& classSizes) {
    NetHarness h;
    const LinkId l = h.net.addLink("l", 100.0);
    std::vector<SimTime> ends;
    for (std::uint32_t members : classSizes) {
      FlowSpec spec{1000, {l}};
      spec.members = members;
      h.net.startFlow(spec, [&](const FlowCompletion& c) { ends.push_back(c.endTime); });
    }
    SimTime competitorEnd = -1;
    h.net.startFlow(cappedCompetitor(l),
                    [&](const FlowCompletion& c) { competitorEnd = c.endTime; });
    h.sim.run();
    ends.push_back(competitorEnd);
    return ends;
  };
  const auto whole = run({6});
  const auto split = run({2, 4});
  const auto singles = run({1, 1, 1, 1, 1, 1});
  // Last entry is the competitor; everything before it is the class.
  for (const auto* ends : {&split, &singles}) {
    for (std::size_t i = 0; i + 1 < ends->size(); ++i) {
      EXPECT_DOUBLE_EQ((*ends)[i], whole.front());
    }
    EXPECT_DOUBLE_EQ(ends->back(), whole.back());
  }
}

TEST(FlowClassEquivalence, FailSlowHitsClassAndSingletonsAlike) {
  auto run = [](bool asClass) {
    NetHarness h;
    const LinkId l = h.net.addLink("l", 100.0);
    std::vector<SimTime> ends;
    if (asClass) {
      FlowSpec spec{1000, {l}};
      spec.members = 4;
      h.net.startFlow(spec, [&](const FlowCompletion& c) { ends.push_back(c.endTime); });
    } else {
      for (int i = 0; i < 4; ++i) {
        h.net.startFlow({1000, {l}},
                        [&](const FlowCompletion& c) { ends.push_back(c.endTime); });
      }
    }
    // Mid-transfer fail-slow, then a partial recovery.
    h.sim.schedule(10.0, [&] { h.net.setLinkHealth(l, 0.25); });
    h.sim.schedule(30.0, [&] { h.net.setLinkHealth(l, 0.8); });
    h.sim.run();
    return ends;
  };
  const auto classEnds = run(true);
  const auto singleEnds = run(false);
  ASSERT_EQ(classEnds.size(), 1u);
  ASSERT_EQ(singleEnds.size(), 4u);
  for (SimTime end : singleEnds) EXPECT_DOUBLE_EQ(end, classEnds[0]);
}

TEST(FlowClassEquivalence, SizeOneClassIsLegacyPath) {
  auto run = [](std::uint32_t members) {
    NetHarness h;
    const LinkId l = h.net.addLink("l", 100.0);
    FlowSpec spec{1000, {l}};
    spec.members = members;
    FlowCompletion done{};
    h.net.startFlow(spec, [&](const FlowCompletion& c) { done = c; });
    h.net.startFlow(cappedCompetitor(l), [](const FlowCompletion&) {});
    h.sim.run();
    return done;
  };
  const FlowCompletion a = run(1);
  const FlowCompletion b = run(1);
  EXPECT_DOUBLE_EQ(a.endTime, b.endTime);
  EXPECT_EQ(a.bytes, 1000u);
  EXPECT_EQ(a.members, 1u);
}

TEST(FlowClassEquivalence, ActiveMembersCountsThePopulation) {
  NetHarness h;
  const LinkId l = h.net.addLink("l", 1e9);
  FlowSpec big{1000000, {l}};
  big.members = 1000;
  h.net.startFlow(big, [](const FlowCompletion&) {});
  h.net.startFlow({1000000, {l}}, [](const FlowCompletion&) {});
  EXPECT_EQ(h.net.activeMembers(), 1001u);
  h.sim.run();
  EXPECT_EQ(h.net.activeMembers(), 0u);
}

// ---- storage models: members=N == N identical concurrent submits ----

struct ModelTarget {
  Site site;
  StorageKind kind;
};

const ModelTarget kModelTargets[] = {
    {Site::Lassen, StorageKind::Vast},
    {Site::Lassen, StorageKind::Gpfs},
    {Site::Ruby, StorageKind::Lustre},
    {Site::Wombat, StorageKind::NvmeLocal},
};

class ModelClassEquivalence : public ::testing::TestWithParam<int> {
 protected:
  ModelTarget target() const { return kModelTargets[static_cast<std::size_t>(GetParam())]; }
};

IoRequest classBaseRequest(AccessPattern p) {
  IoRequest req;
  req.client = {0, 0};
  req.fileId = 1;
  req.bytes = 32 * units::MiB;
  req.ops = 32;  // multi-op: VAST/GPFS take the deterministic cache split
  req.pattern = p;
  return req;
}

PhaseSpec classPhase(AccessPattern p, std::uint32_t procs) {
  PhaseSpec ph;
  ph.pattern = p;
  ph.requestSize = units::MiB;
  ph.nodes = 1;
  ph.procsPerNode = procs;  // the phase declares the full population
  ph.workingSetBytes = 256 * units::MiB;
  return ph;
}

struct ModelRun {
  std::vector<SimTime> ends;
  Bytes totalBytes = 0;
};

ModelRun runModel(const ModelTarget& t, AccessPattern p, std::uint32_t members, bool explicitClients,
                  bool failSlow) {
  Environment env = makeEnvironment(t.site, t.kind, 1);
  env.fs->beginPhase(classPhase(p, members));
  if (failSlow) {
    // Degrade the whole fabric early in the transfer (NVMe finishes in
    // ~5 ms; its route is device links, not the client NIC, so hit
    // every link rather than guessing the bottleneck).
    FlowNetwork& net = env.bench->topo().network();
    env.bench->sim().schedule(0.001, [&net] {
      for (std::uint32_t i = 0; i < net.linkCount(); ++i) net.setLinkHealth(LinkId{i}, 0.25);
    });
  }
  ModelRun run;
  const std::uint32_t submits = explicitClients ? members : 1;
  for (std::uint32_t i = 0; i < submits; ++i) {
    IoRequest req = classBaseRequest(p);
    if (!explicitClients) req.members = members;
    env.fs->submit(req, [&run](const IoResult& r) {
      run.ends.push_back(r.endTime);
      run.totalBytes += r.bytes;
    });
  }
  env.bench->sim().run();
  env.fs->endPhase();
  return run;
}

TEST_P(ModelClassEquivalence, ClassMatchesExplicitSymmetricClients) {
  for (AccessPattern p : {AccessPattern::SequentialWrite, AccessPattern::RandomRead}) {
    const ModelRun explicitRun = runModel(target(), p, 4, true, false);
    const ModelRun classRun = runModel(target(), p, 4, false, false);
    ASSERT_EQ(explicitRun.ends.size(), 4u) << toString(p);
    ASSERT_EQ(classRun.ends.size(), 1u) << toString(p);
    for (SimTime end : explicitRun.ends) {
      EXPECT_DOUBLE_EQ(end, classRun.ends[0]) << toString(p);
    }
    EXPECT_EQ(classRun.totalBytes, explicitRun.totalBytes) << toString(p);
  }
}

TEST_P(ModelClassEquivalence, ClassMatchesExplicitClientsUnderFailSlow) {
  const AccessPattern p = AccessPattern::SequentialWrite;
  const ModelRun explicitRun = runModel(target(), p, 4, true, true);
  const ModelRun classRun = runModel(target(), p, 4, false, true);
  ASSERT_EQ(classRun.ends.size(), 1u);
  for (SimTime end : explicitRun.ends) EXPECT_DOUBLE_EQ(end, classRun.ends[0]);
  EXPECT_EQ(classRun.totalBytes, explicitRun.totalBytes);
  // The fault actually bit: degraded completion is later than healthy.
  const ModelRun healthy = runModel(target(), p, 4, false, false);
  EXPECT_GT(classRun.ends[0], healthy.ends[0]);
}

TEST_P(ModelClassEquivalence, SizeOneClassIsLegacyByteIdentical) {
  const AccessPattern p = AccessPattern::RandomRead;
  const ModelRun legacy = runModel(target(), p, 1, true, false);
  const ModelRun sizeOne = runModel(target(), p, 1, false, false);
  ASSERT_EQ(legacy.ends.size(), 1u);
  ASSERT_EQ(sizeOne.ends.size(), 1u);
  EXPECT_DOUBLE_EQ(legacy.ends[0], sizeOne.ends[0]);
  EXPECT_EQ(legacy.totalBytes, sizeOne.totalBytes);
}

std::string modelTargetName(const ::testing::TestParamInfo<int>& info) {
  static const char* names[] = {"LassenVast", "LassenGpfs", "RubyLustre", "WombatNvme"};
  return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelClassEquivalence, ::testing::Range(0, 4),
                         modelTargetName);

// ---- retry layer: one timeout, one retry, one counter per class ----

/// Strands the first submit forever (a request parked on a failed
/// component), serves every later submit after a short delay. Records
/// the member count of every attempt.
class StallFirstFs final : public FileSystemModel {
 public:
  explicit StallFirstFs(Simulator& sim, std::size_t stallCount) : sim_(&sim), stall_(stallCount) {}

  const std::string& name() const override { return name_; }
  void beginPhase(const PhaseSpec&) override {}
  void endPhase() override {}
  Bytes totalCapacity() const override { return 0; }
  void submit(const IoRequest& req, IoCallback cb) override {
    memberCounts.push_back(req.members);
    if (submits_++ < stall_) return;  // stranded: no completion, ever
    sim_->schedule(0.05, [this, cb = std::move(cb), req] {
      if (cb) cb(IoResult{sim_->now() - 0.05, sim_->now(), req.bytes * req.members});
    });
  }
  void submitMeta(const MetaRequest&, IoCallback cb) override {
    if (cb) cb(IoResult{});
  }

  std::vector<std::uint32_t> memberCounts;

 private:
  std::string name_ = "stall-first";
  Simulator* sim_;
  std::size_t stall_;
  std::size_t submits_ = 0;
};

TEST(RetryUnderAggregation, TimedOutClassBillsOneRetryNotN) {
  Simulator sim;
  StallFirstFs fs(sim, 1);
  ClientSession session(fs);
  session.enableRetry(sim, RetryPolicy{1.0, 4, 0.25, 2.0});
  IoRequest req = classBaseRequest(AccessPattern::SequentialWrite);
  req.members = 64;
  IoResult got{};
  bool done = false;
  session.submitRequest(req, [&](const IoResult& r) {
    got = r;
    done = true;
  });
  sim.run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(got.failed);
  EXPECT_EQ(got.bytes, req.bytes * 64);  // aggregate payload delivered
  EXPECT_EQ(session.retries(), 1u) << "a class times out once, not per member";
  EXPECT_EQ(session.failedOps(), 0u);
  // Re-submission preserved the member count.
  ASSERT_EQ(fs.memberCounts.size(), 2u);
  EXPECT_EQ(fs.memberCounts[0], 64u);
  EXPECT_EQ(fs.memberCounts[1], 64u);
}

TEST(RetryUnderAggregation, ExhaustedClassFailsOnce) {
  Simulator sim;
  StallFirstFs fs(sim, 100);  // every attempt strands
  ClientSession session(fs);
  session.enableRetry(sim, RetryPolicy{0.5, 2, 0.1, 2.0});
  IoRequest req = classBaseRequest(AccessPattern::SequentialWrite);
  req.members = 1000;
  IoResult got{};
  session.submitRequest(req, [&](const IoResult& r) { got = r; });
  sim.run();
  EXPECT_TRUE(got.failed);
  EXPECT_EQ(got.bytes, 0u);
  EXPECT_EQ(session.retries(), 2u);    // maxRetries, not maxRetries * members
  EXPECT_EQ(session.failedOps(), 1u);  // ONE failed class op
}

/// Completes the first attempt late (after the client timed out and
/// re-submitted), later attempts promptly.
class LateFirstFs final : public FileSystemModel {
 public:
  explicit LateFirstFs(Simulator& sim) : sim_(&sim) {}
  const std::string& name() const override { return name_; }
  void beginPhase(const PhaseSpec&) override {}
  void endPhase() override {}
  Bytes totalCapacity() const override { return 0; }
  void submit(const IoRequest& req, IoCallback cb) override {
    const Seconds delay = first_ ? 10.0 : 0.05;
    first_ = false;
    sim_->schedule(delay, [this, cb = std::move(cb), req, delay] {
      if (cb) cb(IoResult{sim_->now() - delay, sim_->now(), req.bytes * req.members});
    });
  }
  void submitMeta(const MetaRequest&, IoCallback cb) override {
    if (cb) cb(IoResult{});
  }

 private:
  std::string name_ = "late-first";
  Simulator* sim_;
  bool first_ = true;
};

TEST(RetryUnderAggregation, LateClassCompletionSwallowedOnce) {
  Simulator sim;
  LateFirstFs fs(sim);
  ClientSession session(fs);
  session.enableRetry(sim, RetryPolicy{1.0, 4, 0.25, 2.0});
  IoRequest req = classBaseRequest(AccessPattern::SequentialWrite);
  req.members = 32;
  int completions = 0;
  session.submitRequest(req, [&](const IoResult&) { ++completions; });
  sim.run();
  EXPECT_EQ(completions, 1) << "the late duplicate must be swallowed";
  EXPECT_EQ(session.retries(), 1u);
  EXPECT_EQ(session.lateCompletions(), 1u) << "one late class completion, not 32";
}

// ---- workload layer: open-loop classes == explicit ranks ----

workload::WorkloadOutcome runOpenLoop(const workload::OpenLoopConfig& cfg, Site site,
                                      StorageKind kind, const JsonValue* storageOverrides) {
  Environment env = makeEnvironment(site, kind, cfg.nodes(), storageOverrides);
  workload::OpenLoopSource source(cfg);
  workload::WorkloadRunner runner(*env.bench, *env.fs);
  return runner.run(source);
}

workload::OpenLoopConfig sharedStreamBase() {
  workload::OpenLoopConfig cfg;
  cfg.ratePerClientHz = 20.0;
  cfg.horizonSec = 2.0;
  cfg.objects = 64;
  cfg.objectBytes = 4 * units::MiB;
  cfg.requestBytes = 128 * units::KiB;
  cfg.readFraction = 0.9;
  cfg.seed = 123;
  cfg.sharedStream = true;  // identical arrival draws in every rank
  return cfg;
}

void expectOutcomesEquivalent(const workload::WorkloadOutcome& a,
                              const workload::WorkloadOutcome& b) {
  EXPECT_EQ(a.bytesMoved, b.bytesMoved);
  EXPECT_EQ(a.opsIssued, b.opsIssued);
  EXPECT_EQ(a.opsCompleted, b.opsCompleted);
  EXPECT_EQ(a.opsFailed, b.opsFailed);
  EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
  EXPECT_DOUBLE_EQ(a.simElapsed, b.simElapsed);
  EXPECT_EQ(a.clientsTotal(), b.clientsTotal());
  // Latencies demultiplex to the same per-client distribution.
  auto weighted = [](const workload::WorkloadOutcome& out) {
    std::vector<scale::WeightedSample> w;
    for (double v : out.opLatencies) w.push_back({v, out.clientsPerRank});
    return scale::demultiplex(std::move(w));
  };
  const Summary sa = weighted(a);
  const Summary sb = weighted(b);
  EXPECT_EQ(sa.count, sb.count);
  EXPECT_DOUBLE_EQ(sa.p50, sb.p50);
  EXPECT_DOUBLE_EQ(sa.p95, sb.p95);
  EXPECT_DOUBLE_EQ(sa.p99, sb.p99);
  EXPECT_NEAR(sa.mean, sb.mean, 1e-12);
  // Goodput timelines slice-for-slice.
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.timeline[i].gbs, b.timeline[i].gbs) << "slice " << i;
  }
}

TEST(OpenLoopClassEquivalence, ClassOfFourMatchesFourExplicitRanksOnLustre) {
  workload::OpenLoopConfig explicitCfg = sharedStreamBase();
  explicitCfg.clients = 4;
  explicitCfg.clientsPerNode = 4;
  explicitCfg.clientsPerRank = 1;
  workload::OpenLoopConfig classCfg = sharedStreamBase();
  classCfg.clients = 1;
  classCfg.clientsPerNode = 1;
  classCfg.clientsPerRank = 4;
  const auto a = runOpenLoop(explicitCfg, Site::Ruby, StorageKind::Lustre, nullptr);
  const auto b = runOpenLoop(classCfg, Site::Ruby, StorageKind::Lustre, nullptr);
  EXPECT_EQ(a.ranks, 4u);
  EXPECT_EQ(b.ranks, 1u);
  EXPECT_EQ(b.clientsTotal(), 4u);
  expectOutcomesEquivalent(a, b);
}

TEST(OpenLoopClassEquivalence, PartitionInvarianceOnVast) {
  // The same 12 clients as 1, 2 and 4 classes. nconnect=1 keeps every
  // rank on the same NFS session path; clientsPerRank > 1 everywhere
  // keeps VAST reads on the deterministic fractional cache split.
  const JsonValue overrides = mustParse(R"({"nconnect":1})");
  std::vector<workload::WorkloadOutcome> outs;
  for (std::size_t classes : {1u, 2u, 4u}) {
    workload::OpenLoopConfig cfg = sharedStreamBase();
    cfg.clients = classes;
    cfg.clientsPerNode = classes;
    cfg.clientsPerRank = 12 / classes;
    outs.push_back(runOpenLoop(cfg, Site::Lassen, StorageKind::Vast, &overrides));
  }
  EXPECT_EQ(outs[0].clientsTotal(), 12u);
  expectOutcomesEquivalent(outs[0], outs[1]);
  expectOutcomesEquivalent(outs[0], outs[2]);
}

TEST(OpenLoopClassEquivalence, SpecDrivenTrialsAgree) {
  // The same equivalence through the sweep trial layer (spec parsing,
  // runWorkload, JSONL metrics): classes vs explicit ranks produce the
  // same trial line.
  auto doc = [](double clients, double members) {
    JsonValue v = mustParse(R"({"site":"ruby","storage":"lustre","workload":{
      "generator":"openloop","ratePerClientHz":20,"horizonSec":2,
      "objects":64,"objectBytes":4194304,"requestBytes":131072,
      "readFraction":0.9,"seed":123,"sharedStream":true}})");
    JsonObject& w = *(*v.object())["workload"].object();
    w["clients"] = clients;
    w["clientsPerNode"] = clients;
    w["clientsPerRank"] = members;
    return v;
  };
  const sweep::TrialMetrics a = sweep::runTrial("workload", doc(4, 1));
  const sweep::TrialMetrics b = sweep::runTrial("workload", doc(1, 4));
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(sweep::toJsonlLine({sweep::Trial{}, a}), sweep::toJsonlLine({sweep::Trial{}, b}));
}

TEST(OpenLoopClassEquivalence, DemandSigmaSpreadsPerRankRates) {
  workload::OpenLoopConfig cfg = sharedStreamBase();
  cfg.clients = 8;
  cfg.clientsPerNode = 8;
  cfg.sharedStream = false;
  cfg.demandSigma = 1.0;
  const auto hetero = runOpenLoop(cfg, Site::Ruby, StorageKind::Lustre, nullptr);
  cfg.demandSigma = 0.0;
  const auto homo = runOpenLoop(cfg, Site::Ruby, StorageKind::Lustre, nullptr);
  EXPECT_GT(hetero.opsIssued, 0u);
  EXPECT_GT(homo.opsIssued, 0u);
  // Heterogeneous demand changes the arrival pattern but not the mean
  // rate: op counts stay in the same ballpark.
  const double ratio =
      static_cast<double>(hetero.opsIssued) / static_cast<double>(homo.opsIssued);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

// ---- IOR under aggregation ----

TEST(IorClassAggregation, MembersMultiplyBytesExactly) {
  IorConfig base;
  base.access = AccessPattern::SequentialWrite;
  base.nodes = 1;
  base.procsPerNode = 2;
  base.segments = 2;
  base.blockSize = 4 * units::MiB;
  base.transferSize = units::MiB;
  base.mode = IorConfig::Mode::PerOp;
  auto run = [&](std::size_t members) {
    IorConfig cfg = base;
    cfg.clientsPerRank = members;
    Environment env = makeEnvironment(Site::Lassen, StorageKind::Vast, cfg.nodes);
    workload::IorSource source(cfg);
    workload::WorkloadRunner runner(*env.bench, *env.fs);
    return runner.run(source);
  };
  const auto one = run(1);
  const auto four = run(4);
  // Closed loop: every rank issues the same op count whatever the
  // contention, so payload scales exactly with the member count.
  EXPECT_EQ(four.bytesMoved, 4 * one.bytesMoved);
  EXPECT_EQ(four.opsCompleted, 4 * one.opsCompleted);
  EXPECT_EQ(four.clientsTotal(), 4 * one.clientsTotal());
  EXPECT_EQ(four.ranks, one.ranks);
  EXPECT_GE(four.elapsed, one.elapsed);  // 4x the demand cannot finish sooner
}

// ---- engine: flat memory in the member count ----

TEST(SimulatorScale, PeakPendingEventsIsAHighWaterMark) {
  Simulator sim;
  EXPECT_EQ(sim.peakPendingEvents(), 0u);
  for (int i = 0; i < 5; ++i) sim.schedule(1.0 + i, [] {});
  EXPECT_EQ(sim.peakPendingEvents(), 5u);
  sim.run();
  EXPECT_EQ(sim.peakPendingEvents(), 5u);  // high-water, not current depth
}

TEST(OpenLoopScale, EventFootprintFlatInMembers) {
  // 8 classes at 1k members vs 100k members: two orders of magnitude
  // more clients, the same op streams — the event high-water mark must
  // not grow with the member count once the system is saturated.
  auto run = [](std::size_t members) {
    workload::OpenLoopConfig cfg;
    cfg.clients = 8;
    cfg.clientsPerNode = 8;
    cfg.clientsPerRank = members;
    cfg.ratePerClientHz = 5.0;
    cfg.horizonSec = 2.0;
    cfg.seed = 42;
    Environment env = makeEnvironment(Site::Lassen, StorageKind::Vast, cfg.nodes(), nullptr);
    workload::OpenLoopSource source(cfg);
    workload::WorkloadRunner runner(*env.bench, *env.fs);
    const workload::WorkloadOutcome out = runner.run(source);
    return std::pair<std::size_t, workload::WorkloadOutcome>(
        env.bench->sim().peakPendingEvents(), out);
  };
  const auto [peak1k, out1k] = run(1000);
  const auto [peak100k, out100k] = run(100000);
  EXPECT_EQ(out1k.clientsTotal(), 8000u);
  EXPECT_EQ(out100k.clientsTotal(), 800000u);
  EXPECT_EQ(out1k.ranks, out100k.ranks);
  EXPECT_LE(peak100k, peak1k * 2) << "event footprint must track classes, not clients";
}

}  // namespace
}  // namespace hcsim
