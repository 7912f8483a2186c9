// hcsim::chaos tests: scenario parsing + schedule validation, FlowNetwork
// link-health/abort primitives, the client retry/backoff layer, fault
// hooks on the storage models (including the GPFS mid-phase hit-ratio
// staleness regression), zero-cost empty schedules, and the committed
// CNode-failover acceptance scenario.

#include "chaos/chaos_runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/deployments.hpp"
#include "net/topology.hpp"
#include "sweep/sweep_runner.hpp"
#include "sweep/sweep_spec.hpp"
#include "sweep/trial_cache.hpp"
#include "util/units.hpp"

namespace hcsim {
namespace {

using chaos::ChaosSpec;

JsonValue parseOrDie(const std::string& text) {
  JsonValue j;
  EXPECT_TRUE(parseJson(text, j)) << text;
  return j;
}

ChaosSpec specFromText(const std::string& text) {
  ChaosSpec spec;
  std::string err;
  EXPECT_TRUE(chaos::parseChaosSpec(parseOrDie(text), spec, err)) << err;
  return spec;
}

std::string parseError(const std::string& text) {
  ChaosSpec spec;
  std::string err;
  EXPECT_FALSE(chaos::parseChaosSpec(parseOrDie(text), spec, err));
  return err;
}

// ---------- spec parsing ----------

TEST(ChaosSpec, MinimalSpecGetsDefaults) {
  const ChaosSpec spec = specFromText("{}");
  EXPECT_EQ(spec.site, Site::Lassen);
  EXPECT_EQ(spec.storage, StorageKind::Vast);
  EXPECT_EQ(spec.workload.nodes, 4u);
  EXPECT_EQ(spec.workload.procsPerNode, 8u);
  EXPECT_EQ(spec.workload.access, AccessPattern::SequentialWrite);
  EXPECT_DOUBLE_EQ(spec.horizon, 90.0);
  EXPECT_DOUBLE_EQ(spec.interval, 5.0);
  EXPECT_TRUE(spec.retryEnabled);
  EXPECT_TRUE(spec.events.empty());
}

TEST(ChaosSpec, FullSpecParses) {
  const ChaosSpec spec = specFromText(R"({
    "name": "drill", "site": "wombat", "storage": "nvme",
    "workload": {"nodes": 2, "procsPerNode": 4, "access": "seq-read",
                 "requestBytes": 1048576},
    "horizonSec": 30, "intervalSec": 2,
    "retry": {"timeoutSec": 5, "maxRetries": 2, "backoffBaseSec": 0.1,
              "backoffMultiplier": 3},
    "events": [
      {"atSec": 5, "action": "fail-slow", "component": "drive", "index": 1,
       "severity": 0.4},
      {"atSec": 15, "action": "restore", "component": "drive", "index": 1,
       "rebuildGiB": 2.5}
    ]})");
  EXPECT_EQ(spec.name, "drill");
  EXPECT_EQ(spec.site, Site::Wombat);
  EXPECT_EQ(spec.storage, StorageKind::NvmeLocal);
  EXPECT_EQ(spec.workload.access, AccessPattern::SequentialRead);
  EXPECT_DOUBLE_EQ(spec.retry.timeout, 5.0);
  EXPECT_EQ(spec.retry.maxRetries, 2u);
  ASSERT_EQ(spec.events.size(), 2u);
  EXPECT_EQ(spec.events[0].fault.action, FaultAction::FailSlow);
  EXPECT_EQ(spec.events[0].fault.component, "drive");
  EXPECT_DOUBLE_EQ(spec.events[0].fault.severity, 0.4);
  EXPECT_EQ(spec.events[1].fault.action, FaultAction::Restore);
  EXPECT_DOUBLE_EQ(spec.events[1].rebuildGiB, 2.5);
}

TEST(ChaosSpec, RetryFalseDisablesTheLayer) {
  const ChaosSpec spec = specFromText(R"({"retry": false})");
  EXPECT_FALSE(spec.retryEnabled);
}

TEST(ChaosSpec, ParseRejectsBadEvents) {
  // A missing required key keeps its message; a value outside the key's
  // range is reported by the field list, like every other key's.
  EXPECT_EQ(parseError(R"({"events": [{"action": "fail", "component": "cnode"}]})"),
            "events[0]: 'atSec' must be a non-negative number");
  EXPECT_EQ(parseError(R"({"events": [{"atSec": -1, "action": "fail",
                           "component": "cnode"}]})"),
            "events[0].atSec: must be >= 0 (got -1)");
  EXPECT_EQ(parseError(R"({"events": [{"atSec": 1, "action": "fail",
                           "component": "cnode", "index": 1.5}]})"),
            "events[0].index: must be a non-negative integer (got 1.5)");
  EXPECT_NE(parseError(R"({"events": [{"atSec": 1, "action": "explode",
                           "component": "cnode"}]})")
                .find("fail|fail-slow|restore"),
            std::string::npos);
  EXPECT_NE(parseError(R"({"events": [{"atSec": 1, "action": "fail"}]})")
                .find("'component'"),
            std::string::npos);
  EXPECT_NE(parseError(R"({"events": [{"atSec": 1, "action": "fail",
                           "component": "cnode", "rebuildGiB": 4}]})")
                .find("restore"),
            std::string::npos);
  // The index of the offending event is part of the message.
  EXPECT_NE(parseError(R"({"events": [{"atSec": 1, "action": "fail",
                           "component": "cnode"},
                          {"atSec": 2, "action": "bogus", "component": "cnode"}]})")
                .find("events[1]"),
            std::string::npos);
}

TEST(ChaosSpec, EventAndMonitorEntriesRejectUnknownKeys) {
  EXPECT_EQ(parseError(R"({"events": [
      {"atSec": 30, "action": "fail", "component": "cnode", "index": 0},
      {"atSec": 30, "action": "fail", "component": "cnode", "index": 1},
      {"atSec": 60, "action": "restore", "component": "cnode", "index": 0,
       "rebuildGib": 32}]})"),
            "events[2].rebuildGib: unknown key");
  EXPECT_EQ(parseError(R"({"monitors": [
      {"metric": "goodputGBs", "min": 4.0, "windowsec": 15.0}]})"),
            "monitors[0].windowsec: unknown key");
  // Wrong types and values outside a key's range name the key too.
  EXPECT_EQ(parseError(R"({"events": [
      {"atSec": 1, "action": "fail", "component": "cnode", "severity": "low"}]})"),
            "events[0].severity: must be a number (got 'low')");
  EXPECT_EQ(parseError(R"({"monitors": [{"metric": "stallSec", "max": "10"}]})"),
            "monitors[0].max: must be a number (got '10')");
  // A bound the monitor's metric does not read is rejected, not ignored.
  EXPECT_EQ(parseError(R"({"monitors": [{"metric": "stallSec", "max": 10, "min": 1}]})"),
            "monitors[0]: stallSec takes 'max' only");
  // Every key of the committed example reads.
  const ChaosSpec spec = specFromText(R"({"events": [
      {"atSec": 45, "action": "fail-slow", "link": "oss0.device", "severity": 0.5},
      {"atSec": 60, "action": "restore", "link": "oss0.device", "rebuildGiB": 1}],
    "monitors": [{"name": "floor", "metric": "goodputGBs", "min": 4, "windowSec": 15}]})");
  ASSERT_EQ(spec.events.size(), 2u);
  EXPECT_EQ(spec.events[0].fault.component, "link");
  EXPECT_DOUBLE_EQ(spec.events[0].fault.severity, 0.5);
  EXPECT_DOUBLE_EQ(spec.events[1].rebuildGiB, 1.0);
  ASSERT_EQ(spec.monitors.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.monitors[0].windowSec, 15.0);
}

// ---------- schedule validation against a deployment ----------

struct ValidationHarness {
  ValidationHarness() : bench(Machine::lassen(), 4), fs(bench.attachVast(vastOnLassen())) {}
  TestBench bench;
  std::unique_ptr<VastModel> fs;

  std::vector<std::string> validate(const std::string& text) {
    const ChaosSpec spec = specFromText(text);
    return chaos::validateSchedule(spec, *fs, bench.topo());
  }
};

TEST(ChaosValidate, EmptyScheduleIsValid) {
  ValidationHarness h;
  EXPECT_TRUE(h.validate("{}").empty());
}

TEST(ChaosValidate, UnknownComponentListsSupportedKinds) {
  ValidationHarness h;
  const auto problems = h.validate(
      R"({"events": [{"atSec": 1, "action": "fail", "component": "oss"}]})");
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("unknown component 'oss'"), std::string::npos);
  // A VAST deployment advertises its own kinds, not Lustre's.
  EXPECT_NE(problems[0].find("cnode"), std::string::npos);
  EXPECT_NE(problems[0].find("link"), std::string::npos);
  EXPECT_EQ(problems[0].find("|oss"), std::string::npos);
}

TEST(ChaosValidate, IndexOutOfRangeNamesTheCount) {
  ValidationHarness h;
  const auto problems = h.validate(
      R"({"events": [{"atSec": 1, "action": "fail", "component": "cnode", "index": 99}]})");
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("index 99 out of range"), std::string::npos);
  EXPECT_NE(problems[0].find("16"), std::string::npos);  // Lassen preset has 16 CNodes
}

TEST(ChaosValidate, UnknownLinkRejected) {
  ValidationHarness h;
  const auto problems = h.validate(
      R"({"events": [{"atSec": 1, "action": "fail", "link": "no-such-link"}]})");
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("unknown link 'no-such-link'"), std::string::npos);
}

TEST(ChaosValidate, OutOfOrderTimesRejected) {
  ValidationHarness h;
  const auto problems = h.validate(R"({"events": [
    {"atSec": 10, "action": "fail", "component": "cnode", "index": 0},
    {"atSec": 5, "action": "fail", "component": "cnode", "index": 1}]})");
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("goes backwards"), std::string::npos);
}

TEST(ChaosValidate, EventAtOrAfterHorizonRejected) {
  ValidationHarness h;
  const auto problems = h.validate(R"({"horizonSec": 20, "events": [
    {"atSec": 20, "action": "fail", "component": "cnode", "index": 0}]})");
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("never fire"), std::string::npos);
}

TEST(ChaosValidate, OverlappingFaultStateMachine) {
  ValidationHarness h;
  // fail twice without restore
  auto problems = h.validate(R"({"events": [
    {"atSec": 1, "action": "fail", "component": "cnode", "index": 0},
    {"atSec": 2, "action": "fail", "component": "cnode", "index": 0}]})");
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("already failed"), std::string::npos);

  // restore something healthy
  problems = h.validate(R"({"events": [
    {"atSec": 1, "action": "restore", "component": "cnode", "index": 0}]})");
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("already healthy"), std::string::npos);

  // fail-slow on a failed component
  problems = h.validate(R"({"events": [
    {"atSec": 1, "action": "fail", "component": "cnode", "index": 0},
    {"atSec": 2, "action": "fail-slow", "component": "cnode", "index": 0,
     "severity": 0.5}]})");
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("restore it before"), std::string::npos);

  // fail/restore/fail on the same target is legal
  EXPECT_TRUE(h.validate(R"({"events": [
    {"atSec": 1, "action": "fail", "component": "cnode", "index": 0},
    {"atSec": 2, "action": "restore", "component": "cnode", "index": 0},
    {"atSec": 3, "action": "fail", "component": "cnode", "index": 0}]})")
                  .empty());
}

TEST(ChaosValidate, FailSlowSeverityMustBeFractional) {
  ValidationHarness h;
  const auto problems = h.validate(R"({"events": [
    {"atSec": 1, "action": "fail-slow", "component": "cnode", "index": 0,
     "severity": 1.0}]})");
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("(0, 1)"), std::string::npos);
}

// ---------- FlowNetwork link health ----------

TEST(LinkHealth, FailSlowThrottlesAnActiveFlow) {
  Simulator sim;
  FlowNetwork net{sim};
  const LinkId l = net.addLink("l", 100.0);
  SimTime end = -1;
  net.startFlow({1000, {l}}, [&](const FlowCompletion& c) { end = c.endTime; });
  // Half the bytes at full rate, then the link drops to 30% health.
  sim.schedule(5.0, [&] { net.setLinkHealth(l, 0.3); });
  sim.run();
  // 500 B at 100 B/s + 500 B at 30 B/s.
  EXPECT_NEAR(end, 5.0 + 500.0 / 30.0, 1e-9);
  EXPECT_DOUBLE_EQ(net.linkHealth(l), 0.3);
}

TEST(LinkHealth, FailStopStallsAndRestoreResumes) {
  Simulator sim;
  FlowNetwork net{sim};
  const LinkId l = net.addLink("l", 100.0);
  SimTime end = -1;
  net.startFlow({1000, {l}}, [&](const FlowCompletion& c) { end = c.endTime; });
  sim.schedule(2.0, [&] { net.failLink(l); });
  sim.schedule(12.0, [&] { net.restoreLink(l); });
  sim.run();
  // 200 B, a 10 s outage, then the remaining 800 B at full rate.
  EXPECT_NEAR(end, 12.0 + 800.0 / 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(net.linkHealth(l), 1.0);
}

// ---------- client retry / backoff ----------

struct NvmeRetryHarness {
  NvmeRetryHarness() : bench(Machine::wombat(), 2), fs(bench.attachNvme(nvmeOnWombat())) {
    PhaseSpec phase;
    phase.pattern = AccessPattern::SequentialWrite;
    phase.requestSize = units::MiB;
    phase.nodes = 2;
    phase.procsPerNode = 1;
    fs->beginPhase(phase);
  }
  TestBench bench;
  std::unique_ptr<NvmeLocalModel> fs;
};

/// One 1 MiB sequential write by client {0, 0} to file 0, on node 0's
/// drive.
IoRequest oneMiBWrite() {
  IoRequest req;
  req.bytes = units::MiB;
  req.pattern = AccessPattern::SequentialWrite;
  return req;
}

TEST(Retry, OpFailsAfterExhaustingRetriesAgainstDeadDrive) {
  NvmeRetryHarness h;
  ClientSession session(*h.fs);
  RetryPolicy policy;
  policy.timeout = 1.0;
  policy.maxRetries = 2;
  policy.backoffBase = 0.5;
  session.enableRetry(h.bench.sim(), policy);

  // Local NVMe has no failover: a dead drive strands its node's I/O.
  FaultSpec dead;
  dead.action = FaultAction::Fail;
  dead.component = "drive";
  dead.index = 0;
  ASSERT_TRUE(h.fs->applyFault(dead));

  IoResult result;
  bool done = false;
  session.submitRequest(oneMiBWrite(), [&](const IoResult& r) {
    result = r;
    done = true;
  });
  h.bench.sim().run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.failed);
  EXPECT_EQ(result.bytes, 0u);
  EXPECT_EQ(session.retries(), 2u);
  EXPECT_EQ(session.failedOps(), 1u);
  // attempt(1s) + backoff(0.5) + attempt(1s) + backoff(1.0) + attempt(1s)
  EXPECT_NEAR(result.elapsed(), 4.5, 1e-9);
}

TEST(Retry, OpSucceedsWhenDriveRestoresBeforeRetriesRunOut) {
  NvmeRetryHarness h;
  ClientSession session(*h.fs);
  RetryPolicy policy;
  policy.timeout = 1.0;
  policy.maxRetries = 4;
  policy.backoffBase = 0.5;
  session.enableRetry(h.bench.sim(), policy);

  FaultSpec dead;
  dead.action = FaultAction::Fail;
  dead.component = "drive";
  dead.index = 0;
  ASSERT_TRUE(h.fs->applyFault(dead));
  FaultSpec alive = dead;
  alive.action = FaultAction::Restore;
  h.bench.sim().schedule(2.0, [&] { h.fs->applyFault(alive); });

  IoResult result;
  bool done = false;
  session.submitRequest(oneMiBWrite(), [&](const IoResult& r) {
    result = r;
    done = true;
  });
  h.bench.sim().run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.failed);
  EXPECT_EQ(result.bytes, units::MiB);
  EXPECT_GE(session.retries(), 1u);
  EXPECT_EQ(session.failedOps(), 0u);
}

TEST(Retry, DisabledLayerPassesThroughUnchanged) {
  NvmeRetryHarness h;
  ClientSession plain(*h.fs);
  IoResult result;
  plain.submitRequest(oneMiBWrite(), [&](const IoResult& r) { result = r; });
  h.bench.sim().run();
  EXPECT_FALSE(result.failed);
  EXPECT_EQ(result.bytes, units::MiB);
  EXPECT_EQ(plain.retries(), 0u);
}

// ---------- model fault hooks ----------

TEST(FaultHooks, ComponentCountsMatchDeployments) {
  TestBench bench(Machine::lassen(), 2);
  auto vast = bench.attachVast(vastOnLassen());
  EXPECT_EQ(vast->faultComponentCount("cnode"), vastOnLassen().cnodes);
  EXPECT_EQ(vast->faultComponentCount("dbox"), vastOnLassen().dboxes);
  EXPECT_EQ(vast->faultComponentCount("nsd"), 0u);

  TestBench gbench(Machine::lassen(), 2);
  auto gpfs = gbench.attachGpfs(gpfsOnLassen());
  EXPECT_EQ(gpfs->faultComponentCount("nsd"), gpfsOnLassen().nsdServers);
  EXPECT_EQ(gpfs->faultComponentCount("cnode"), 0u);

  TestBench qbench(Machine::quartz(), 2);
  auto lustre = qbench.attachLustre(lustreOnQuartz());
  EXPECT_EQ(lustre->faultComponentCount("oss"), lustreOnQuartz().ossCount);
  EXPECT_EQ(lustre->faultComponentCount("mds"), lustreOnQuartz().mdsCount);

  TestBench wbench(Machine::wombat(), 3);
  auto nvme = wbench.attachNvme(nvmeOnWombat());
  EXPECT_EQ(nvme->faultComponentCount("drive"), 3u);
}

TEST(FaultHooks, InvalidFaultsThrow) {
  TestBench bench(Machine::lassen(), 2);
  auto vast = bench.attachVast(vastOnLassen());
  FaultSpec f;
  f.component = "cnode";
  f.index = 1000;
  EXPECT_THROW(vast->applyFault(f), std::out_of_range);
  // DBoxes are HA enclosures: fail-slow is not a defined transition.
  f.component = "dbox";
  f.index = 0;
  f.action = FaultAction::FailSlow;
  f.severity = 0.5;
  EXPECT_THROW(vast->applyFault(f), std::invalid_argument);
  f.component = "unknown-kind";
  EXPECT_FALSE(vast->applyFault(f));
}

/// Satellite regression: GPFS recomputes its cached random-read hit
/// ratio when an NSD server fails *mid-phase*. Before the fix the hit
/// ratio was computed only at phase boundaries, so a mid-phase fault
/// kept serving the stale pre-fault ratio.
TEST(FaultHooks, GpfsMidPhaseNsdLossMatchesPreArrangedLoss) {
  const auto elapsedWithFault = [](bool faultBeforePhase) {
    TestBench bench(Machine::lassen(), 2);
    auto fs = bench.attachGpfs(gpfsOnLassen());
    PhaseSpec phase;
    phase.pattern = AccessPattern::RandomRead;
    phase.requestSize = units::MiB;
    phase.nodes = 2;
    phase.procsPerNode = 4;
    // Working set larger than the (surviving) pagepool, so the hit
    // ratio depends on how many NSD servers are alive.
    phase.workingSetBytes = 4ull * gpfsOnLassen().serverCacheBytes * gpfsOnLassen().nsdServers;
    if (faultBeforePhase) fs->failNsdServer(0);
    fs->beginPhase(phase);
    if (!faultBeforePhase) fs->failNsdServer(0);

    IoRequest req;
    req.client = {0, 0};
    req.fileId = 0;
    req.bytes = 64 * units::MiB;
    req.pattern = AccessPattern::RandomRead;
    SimTime end = -1;
    fs->submit(req, [&](const IoResult& r) { end = r.endTime; });
    bench.sim().run();
    return end;
  };
  const SimTime preArranged = elapsedWithFault(true);
  const SimTime midPhase = elapsedWithFault(false);
  ASSERT_GT(preArranged, 0.0);
  // Identical surviving capacity must serve identical requests in
  // identical time, whether the NSD died before or during the phase.
  EXPECT_NEAR(midPhase, preArranged, preArranged * 1e-9);
}

// ---------- runner ----------

JsonValue acceptanceScenario() {
  return parseOrDie(R"({
    "name": "cnode-failover",
    "site": "lassen", "storage": "vast",
    "storageConfig": {"cnodes": 8},
    "workload": {"nodes": 12, "procsPerNode": 8, "access": "seq-write",
                 "requestBytes": 16777216},
    "horizonSec": 90, "intervalSec": 5,
    "retry": {"timeoutSec": 10, "maxRetries": 4, "backoffBaseSec": 0.25,
              "backoffMultiplier": 2.0},
    "events": [
      {"atSec": 30, "action": "fail", "component": "cnode", "index": 0},
      {"atSec": 30, "action": "fail", "component": "cnode", "index": 1},
      {"atSec": 60, "action": "restore", "component": "cnode", "index": 0,
       "rebuildGiB": 32},
      {"atSec": 60, "action": "restore", "component": "cnode", "index": 1,
       "rebuildGiB": 32}
    ]})");
}

/// The committed example scenario (examples/specs/cnode_failover.json
/// carries the same JSON): failing 2 of 8 CNodes dips write bandwidth
/// to ~75% and the restore brings it back within 2% of healthy.
TEST(ChaosRunner, CNodeFailoverAcceptanceScenario) {
  ChaosSpec spec;
  std::string err;
  ASSERT_TRUE(chaos::parseChaosSpec(acceptanceScenario(), spec, err)) << err;
  const chaos::ChaosOutcome out = chaos::runChaos(spec);

  ASSERT_EQ(out.timeline.size(), 18u);
  ASSERT_GT(out.healthyGBs, 0.0);
  // Outage slices (t in [30,60)) sit at ~75% of healthy: 6 of 8 CNodes.
  double outageMean = 0.0;
  for (std::size_t i = 6; i < 12; ++i) outageMean += out.timeline[i].gbs;
  outageMean /= 6.0;
  EXPECT_NEAR(outageMean / out.healthyGBs, 0.75, 0.05);
  for (std::size_t i = 6; i < 12; ++i) {
    EXPECT_TRUE(out.timeline[i].degraded) << "slice " << i;
    EXPECT_EQ(out.timeline[i].activeFaults, 2u) << "slice " << i;
  }
  // Recovery: back within 2% of healthy steady state after the restore.
  EXPECT_NEAR(out.finalGBs, out.healthyGBs, out.healthyGBs * 0.02);
  EXPECT_GE(out.timeToRecover, 0.0);
  EXPECT_LE(out.timeToRecover, 5.0 + 1e-9);  // first slice after the restore
  EXPECT_DOUBLE_EQ(out.degradedSeconds, 30.0);
  // The rebuild traffic drained (2 x 32 GiB over the fabric).
  EXPECT_EQ(out.rebuildBytes, 64ull * units::GiB);
  EXPECT_GT(out.rebuildCompletedAt, 60.0);
}

TEST(ChaosRunner, TimelineIsDeterministic) {
  ChaosSpec spec;
  std::string err;
  ASSERT_TRUE(chaos::parseChaosSpec(acceptanceScenario(), spec, err)) << err;
  // Smaller run, same shape.
  spec.horizon = 30.0;
  spec.events.resize(2);
  spec.events[0].at = spec.events[1].at = 10.0;
  const chaos::ChaosOutcome a = chaos::runChaos(spec);
  const chaos::ChaosOutcome b = chaos::runChaos(spec);
  EXPECT_EQ(chaos::toJsonl(a), chaos::toJsonl(b));
}

// The drill's output bytes, pinned: the committed VAST CNode-failover
// scenario and a DAOS target drill in the benchmark's shape. Any change
// to the drill's issue loop, sampler or availability math shows up here
// byte-for-byte, not just within the dip-shape tolerances above.
constexpr const char* kCnodeFailoverJsonl = R"({"scenario":"cnode-failover","site":"Lassen","storage":"VAST","summary":{"degradedSec":30,"failedOps":0,"finalGBs":7.9725330431999994,"foregroundBytes":657129996288,"healthyGBs":7.9456894976000001,"lateCompletions":0,"maxGBs":8.0530636799999993,"meanGBs":7.3014444031999988,"minGBs":5.8518929408,"rebuildBytes":68719476736,"rebuildCompletedAtSec":60.584149348322896,"retries":0,"timeToRecoverSec":5}}
{"GBs":7.8383153152,"activeFaults":0,"degraded":false,"endSec":5,"interval":0,"retries":0,"startSec":0}
{"GBs":8.0530636799999993,"activeFaults":0,"degraded":false,"endSec":10,"interval":1,"retries":0,"startSec":5}
{"GBs":7.8383153152,"activeFaults":0,"degraded":false,"endSec":15,"interval":2,"retries":0,"startSec":10}
{"GBs":8.0530636799999993,"activeFaults":0,"degraded":false,"endSec":20,"interval":3,"retries":0,"startSec":15}
{"GBs":7.8383153152,"activeFaults":0,"degraded":false,"endSec":25,"interval":4,"retries":0,"startSec":20}
{"GBs":8.0530636799999993,"activeFaults":0,"degraded":false,"endSec":30,"interval":5,"retries":0,"startSec":25}
{"GBs":5.9861106688000003,"activeFaults":2,"degraded":true,"endSec":35,"interval":6,"retries":0,"startSec":30}
{"GBs":5.9055800319999996,"activeFaults":2,"degraded":true,"endSec":40,"interval":7,"retries":0,"startSec":35}
{"GBs":6.0934848511999995,"activeFaults":2,"degraded":true,"endSec":45,"interval":8,"retries":0,"startSec":40}
{"GBs":5.8518929408,"activeFaults":2,"degraded":true,"endSec":50,"interval":9,"retries":0,"startSec":45}
{"GBs":6.0666413056000001,"activeFaults":2,"degraded":true,"endSec":55,"interval":10,"retries":0,"startSec":50}
{"GBs":6.0397977599999999,"activeFaults":2,"degraded":true,"endSec":60,"interval":11,"retries":0,"startSec":55}
{"GBs":7.8651588608000003,"activeFaults":0,"degraded":false,"endSec":65,"interval":12,"retries":0,"startSec":60}
{"GBs":7.9993765888000006,"activeFaults":0,"degraded":false,"endSec":70,"interval":13,"retries":0,"startSec":65}
{"GBs":8.0530636799999993,"activeFaults":0,"degraded":false,"endSec":75,"interval":14,"retries":0,"startSec":70}
{"GBs":7.9188459519999999,"activeFaults":0,"degraded":false,"endSec":80,"interval":15,"retries":0,"startSec":75}
{"GBs":7.9993765888000006,"activeFaults":0,"degraded":false,"endSec":85,"interval":16,"retries":0,"startSec":80}
{"GBs":7.9725330431999994,"activeFaults":0,"degraded":false,"endSec":90,"interval":17,"retries":0,"startSec":85}
)";

constexpr const char* kDaosTargetDrillJsonl = R"({"scenario":"daos-target-drill","site":"Lassen","storage":"DAOS","summary":{"degradedSec":8,"failedOps":0,"finalGBs":21.940404224000002,"foregroundBytes":409942884352,"healthyGBs":21.550333951999999,"lateCompletions":10,"maxGBs":21.940404224000002,"meanGBs":20.497144217599995,"minGBs":17.767071743999999,"rebuildBytes":0,"rebuildCompletedAtSec":-1,"retries":10,"timeToRecoverSec":2}}
{"GBs":21.550333951999999,"activeFaults":0,"degraded":false,"endSec":2,"interval":0,"retries":0,"startSec":0}
{"GBs":17.800626176000002,"activeFaults":1,"degraded":true,"endSec":4,"interval":1,"retries":0,"startSec":2}
{"GBs":17.767071743999999,"activeFaults":1,"degraded":true,"endSec":6,"interval":2,"retries":0,"startSec":4}
{"GBs":18.543017983999999,"activeFaults":1,"degraded":true,"endSec":8,"interval":3,"retries":10,"startSec":6}
{"GBs":19.998441472,"activeFaults":1,"degraded":true,"endSec":10,"interval":4,"retries":0,"startSec":8}
{"GBs":21.692940287999999,"activeFaults":0,"degraded":false,"endSec":12,"interval":5,"retries":0,"startSec":10}
{"GBs":21.877489663999999,"activeFaults":0,"degraded":false,"endSec":14,"interval":6,"retries":0,"startSec":12}
{"GBs":21.9152384,"activeFaults":0,"degraded":false,"endSec":16,"interval":7,"retries":0,"startSec":14}
{"GBs":21.885878271999999,"activeFaults":0,"degraded":false,"endSec":18,"interval":8,"retries":0,"startSec":16}
{"GBs":21.940404224000002,"activeFaults":0,"degraded":false,"endSec":20,"interval":9,"retries":0,"startSec":18}
)";

TEST(ChaosRunner, DrillOutputBytesArePinned) {
  ChaosSpec spec;
  std::string err;
  ASSERT_TRUE(chaos::parseChaosSpec(acceptanceScenario(), spec, err)) << err;
  EXPECT_EQ(chaos::toJsonl(chaos::runChaos(spec)), kCnodeFailoverJsonl);

  const ChaosSpec daos = specFromText(R"({
    "name": "daos-target-drill", "site": "lassen", "storage": "daos",
    "workload": {"nodes": 4, "procsPerNode": 8, "access": "seq-write",
                 "requestBytes": 8388608},
    "horizonSec": 20, "intervalSec": 2, "retry": {"timeoutSec": 5},
    "events": [
      {"atSec": 2, "action": "fail", "component": "target", "index": 3},
      {"atSec": 10, "action": "restore", "component": "target", "index": 3}]})");
  EXPECT_EQ(chaos::toJsonl(chaos::runChaos(daos)), kDaosTargetDrillJsonl);
}

TEST(ChaosRunner, InvalidScheduleThrowsWithEveryProblem) {
  ChaosSpec spec = specFromText(R"({"events": [
    {"atSec": 1, "action": "restore", "component": "cnode", "index": 0},
    {"atSec": 2, "action": "fail", "component": "bogus"}]})");
  try {
    chaos::runChaos(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& ex) {
    const std::string what = ex.what();
    EXPECT_NE(what.find("already healthy"), std::string::npos);
    EXPECT_NE(what.find("unknown component 'bogus'"), std::string::npos);
  }
}

TEST(ChaosRunner, RendersAndExports) {
  ChaosSpec spec = specFromText(R"({
    "workload": {"nodes": 2, "procsPerNode": 4},
    "horizonSec": 10, "intervalSec": 2})");
  const chaos::ChaosOutcome out = chaos::runChaos(spec);
  const ResultTable t = chaos::renderTimeline(out);
  EXPECT_EQ(t.rowCount(), out.timeline.size());
  EXPECT_EQ(t.columnCount(), 6u);

  const std::string jsonl = chaos::toJsonl(out);
  // One summary line + one line per interval.
  EXPECT_EQ(static_cast<std::size_t>(std::count(jsonl.begin(), jsonl.end(), '\n')),
            1 + out.timeline.size());

  telemetry::MetricsRegistry reg;
  chaos::exportTo(out, reg);
  EXPECT_GT(reg.gaugeOr("chaos.healthy_gbs", 0.0), 0.0);
  EXPECT_DOUBLE_EQ(reg.gaugeOr("chaos.degraded_sec", -1.0), out.degradedSeconds);
}

// ---------- zero-cost contract + sweep integration ----------

TEST(ChaosSweep, EmptyChaosSectionLeavesIorTrialByteIdentical) {
  const JsonValue plain = parseOrDie(R"({
    "site": "wombat", "storage": "vast",
    "ior": {"nodes": 2, "procsPerNode": 8, "segments": 16}})");
  const JsonValue withEmpty = parseOrDie(R"({
    "site": "wombat", "storage": "vast",
    "ior": {"nodes": 2, "procsPerNode": 8, "segments": 16},
    "chaos": {"events": []}})");
  const sweep::TrialMetrics a = sweep::runTrial("ior", plain, {});
  const sweep::TrialMetrics b = sweep::runTrial("ior", withEmpty, {});
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.meanGBs, b.meanGBs);
  EXPECT_EQ(a.minGBs, b.minGBs);
  EXPECT_EQ(a.maxGBs, b.maxGBs);
  EXPECT_EQ(a.elapsedSec, b.elapsedSec);
  EXPECT_EQ(a.bytesMoved, b.bytesMoved);
}

TEST(ChaosSweep, MidRunCNodeFaultDegradesIorTrial) {
  const JsonValue plain = parseOrDie(R"({
    "site": "wombat", "storage": "vast",
    "ior": {"nodes": 4, "procsPerNode": 16, "segments": 64}})");
  const JsonValue faulted = parseOrDie(R"({
    "site": "wombat", "storage": "vast",
    "ior": {"nodes": 4, "procsPerNode": 16, "segments": 64},
    "chaos": {"events": [
      {"atSec": 0.5, "action": "fail", "component": "cnode", "index": 0},
      {"atSec": 0.5, "action": "fail", "component": "cnode", "index": 1}]}})");
  const sweep::TrialMetrics a = sweep::runTrial("ior", plain, {});
  const sweep::TrialMetrics b = sweep::runTrial("ior", faulted, {});
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_LT(b.meanGBs, a.meanGBs * 0.95);
}

TEST(ChaosSweep, ChaosExperimentTrialReportsTimelineMetrics) {
  const JsonValue config = parseOrDie(R"({
    "site": "lassen", "storage": "vast", "storageConfig": {"cnodes": 4},
    "workload": {"nodes": 4, "procsPerNode": 8, "requestBytes": 8388608},
    "horizonSec": 20, "intervalSec": 2,
    "events": [
      {"atSec": 4, "action": "fail", "component": "cnode", "index": 0},
      {"atSec": 12, "action": "restore", "component": "cnode", "index": 0}]})");
  const sweep::TrialMetrics m = sweep::runTrial("chaos", config, {});
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_GT(m.meanGBs, 0.0);
  EXPECT_LT(m.minGBs, m.maxGBs);  // the dip is visible in the spread
  EXPECT_DOUBLE_EQ(m.elapsedSec, 20.0);
  EXPECT_GT(m.bytesMoved, 0.0);
}

TEST(ChaosSweep, BadChaosSectionFailsTheTrialWithActionableError) {
  const JsonValue bad = parseOrDie(R"({
    "site": "wombat", "storage": "vast",
    "ior": {"nodes": 2, "procsPerNode": 8, "segments": 16},
    "chaos": {"events": [
      {"atSec": 1, "action": "fail", "component": "nsd"}]}})");
  const sweep::TrialMetrics m = sweep::runTrial("ior", bad, {});
  EXPECT_FALSE(m.ok);
  EXPECT_NE(m.error.find("unknown component 'nsd'"), std::string::npos);
}

TEST(ChaosSweep, ScheduleIsPartOfTheTrialCacheKey) {
  const JsonValue plain = parseOrDie(R"({
    "site": "wombat", "storage": "vast",
    "ior": {"nodes": 2, "procsPerNode": 8, "segments": 16}})");
  const JsonValue faulted = parseOrDie(R"({
    "site": "wombat", "storage": "vast",
    "ior": {"nodes": 2, "procsPerNode": 8, "segments": 16},
    "chaos": {"events": [
      {"atSec": 0.5, "action": "fail", "component": "cnode", "index": 0}]}})");
  EXPECT_NE(sweep::trialKey("ior", plain), sweep::trialKey("ior", faulted));
}

}  // namespace
}  // namespace hcsim
