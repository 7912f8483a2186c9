// hcsim::probe tests: flight-recorder ring semantics + dump determinism,
// monitor parsing and the SLO watchdog behaviors (goodput window, p99,
// recovery deadline, stall), self-profiler gating, breach exit codes
// through the CLI, the satisfied-monitor byte-identity contract, and the
// telemetry x scale x chaos triple (aggregated drills export correct
// scale.* / chaos.* / probe.* gauges).

#include "probe/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/chaos_runner.hpp"
#include "cli/args.hpp"
#include "cli/commands.hpp"
#include "probe/monitor.hpp"
#include "probe/self_profiler.hpp"
#include "sweep/sweep_runner.hpp"
#include "telemetry/metrics_registry.hpp"
#include "util/json.hpp"
#include "util/random.hpp"
#include "workload/workload_spec.hpp"

namespace hcsim {
namespace {

using probe::FlightRecorder;
using probe::MonitorMetric;
using probe::MonitorSpec;
using probe::RecordKind;
using probe::WatchdogSet;

JsonValue mustParse(const std::string& text) {
  JsonValue v;
  EXPECT_TRUE(parseJson(text, v)) << text;
  return v;
}

std::string writeTemp(const std::string& name, const std::string& content) {
  const std::string path = std::string(::testing::TempDir()) + name;
  std::ofstream f(path, std::ios::trunc);
  f << content;
  return path;
}

std::string readFile(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// ---------- flight recorder ----------

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(100).capacity(), 128u);
  EXPECT_EQ(FlightRecorder(64).capacity(), 64u);
  EXPECT_EQ(FlightRecorder(1).capacity(), 16u);  // floor
}

TEST(FlightRecorder, RingKeepsNewestWindowAndLifetimeTotal) {
  FlightRecorder rec(16);
  for (std::uint32_t i = 0; i < 20; ++i) {
    rec.record(static_cast<double>(i), RecordKind::EngineHeartbeat, i, 2.0 * i);
  }
  EXPECT_EQ(rec.size(), 16u);
  EXPECT_EQ(rec.totalRecorded(), 20u);
  const std::vector<probe::Record> snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 16u);
  EXPECT_EQ(snap.front().subject, 4u);  // oldest retained
  EXPECT_EQ(snap.back().subject, 19u);  // newest
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LE(snap[i - 1].time, snap[i].time);
  }
}

TEST(FlightRecorder, ClearEmptiesTheWindowButKeepsNothing) {
  FlightRecorder rec(16);
  rec.record(1.0, RecordKind::NetRebalance, 3, 4.0);
  EXPECT_FALSE(rec.empty());
  rec.clear();
  EXPECT_TRUE(rec.empty());
  EXPECT_EQ(rec.size(), 0u);
}

TEST(FlightRecorder, DumpsAreDeterministicAcrossIdenticalRuns) {
  const auto fill = [](FlightRecorder& rec) {
    rec.record(0.5, RecordKind::EngineHeartbeat, 1, 10.0);
    rec.record(1.25, RecordKind::NetRebalance, 7, 3.0);
    rec.record(2.0, RecordKind::FaultInject, 0, 0.6);
  };
  FlightRecorder a(16), b(16);
  fill(a);
  fill(b);
  std::ostringstream ja, jb, ta, tb;
  a.dumpJsonl(ja);
  b.dumpJsonl(jb);
  a.dumpChromeTrace(ta);
  b.dumpChromeTrace(tb);
  EXPECT_EQ(ja.str(), jb.str());
  EXPECT_EQ(ta.str(), tb.str());
  EXPECT_NE(ja.str().find("net.rebalance"), std::string::npos) << ja.str();
}

TEST(FlightRecorder, ChromeTraceDumpIsValidJson) {
  FlightRecorder rec(16);
  rec.record(0.1, RecordKind::RetryTimeout, probe::clientSubject(2, 3), 1.0);
  std::ostringstream os;
  rec.dumpChromeTrace(os);
  JsonValue doc;
  ASSERT_TRUE(parseJson(os.str(), doc)) << os.str();
  ASSERT_NE(doc.find("traceEvents"), nullptr);
}

/// The std::vector-backed ring FlightRecorder kept before its slots were
/// left uninitialized: every slot zeroed at construction, four fields
/// written per record. The differential test holds the recorder to it.
class ReferenceRing {
 public:
  explicit ReferenceRing(std::size_t capacity) {
    std::size_t p = 16;
    while (p < capacity) p <<= 1;
    ring_.resize(p);
    mask_ = p - 1;
  }

  void record(double time, RecordKind kind, std::uint32_t subject, double value) {
    probe::Record& r = ring_[head_];
    r.time = time;
    r.kind = kind;
    r.subject = subject;
    r.value = value;
    head_ = (head_ + 1) & mask_;
    if (size_ < ring_.size()) ++size_;
    ++total_;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
    total_ = 0;
  }

  std::size_t size() const { return size_; }
  std::uint64_t totalRecorded() const { return total_; }

  std::vector<probe::Record> snapshot() const {
    std::vector<probe::Record> out;
    const std::size_t start = size_ == ring_.size() ? head_ : 0;
    for (std::size_t i = 0; i < size_; ++i) out.push_back(ring_[(start + i) & mask_]);
    return out;
  }

  std::string jsonl() const {
    std::ostringstream out;
    for (const probe::Record& r : snapshot()) {
      out << "{\"t\":" << jsonNumber(r.time) << ",\"kind\":\"" << probe::toString(r.kind)
          << "\",\"subject\":" << jsonNumber(static_cast<double>(r.subject))
          << ",\"value\":" << jsonNumber(r.value) << "}\n";
    }
    return out.str();
  }

  std::string chromeTrace() const {
    std::ostringstream out;
    out << "{\"traceEvents\":[";
    bool first = true;
    for (const probe::Record& r : snapshot()) {
      if (!first) out << ",";
      first = false;
      out << "{\"name\":\"" << probe::toString(r.kind)
          << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":" << static_cast<unsigned>(r.kind)
          << ",\"ts\":" << jsonNumber(r.time * 1e6)
          << ",\"args\":{\"subject\":" << jsonNumber(static_cast<double>(r.subject))
          << ",\"value\":" << jsonNumber(r.value) << "}}";
    }
    out << "],\"displayTimeUnit\":\"ms\"}\n";
    return out.str();
  }

 private:
  std::vector<probe::Record> ring_;
  std::size_t mask_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
};

void recordRandom(Rng& rng, std::size_t n, FlightRecorder& rec, ReferenceRing& ref) {
  for (std::size_t i = 0; i < n; ++i) {
    const double time = rng.uniform(0.0, 1e3);
    const auto kind = static_cast<RecordKind>(1 + rng.uniformInt(13));
    const auto subject = static_cast<std::uint32_t>(rng.next());
    const double value = rng.uniform(-1e6, 1e6);
    rec.record(time, kind, subject, value);
    ref.record(time, kind, subject, value);
  }
}

void expectSameAsReference(const FlightRecorder& rec, const ReferenceRing& ref) {
  EXPECT_EQ(rec.size(), ref.size());
  EXPECT_EQ(rec.totalRecorded(), ref.totalRecorded());
  const std::vector<probe::Record> got = rec.snapshot();
  const std::vector<probe::Record> want = ref.snapshot();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].time, want[i].time) << "record " << i;
    EXPECT_EQ(got[i].kind, want[i].kind) << "record " << i;
    EXPECT_EQ(got[i].subject, want[i].subject) << "record " << i;
    EXPECT_EQ(got[i].value, want[i].value) << "record " << i;
    EXPECT_EQ(got[i].reserved, 0u) << "record " << i;
  }
  std::ostringstream jsonl, trace;
  rec.dumpJsonl(jsonl);
  rec.dumpChromeTrace(trace);
  EXPECT_EQ(jsonl.str(), ref.jsonl());
  EXPECT_EQ(trace.str(), ref.chromeTrace());
}

TEST(FlightRecorder, MatchesTheVectorBackedReferenceRing) {
  Rng rng(16);
  for (const std::size_t cap : {16u, 64u, 1024u}) {
    const std::size_t counts[] = {0, 1, cap - 1, cap, cap + 1, 3 * cap + 5};
    for (const std::size_t fill : counts) {
      // Each fill is followed by a clear() and a refill of every count,
      // so a refill shorter than the fill must not read the fill's slots.
      for (const std::size_t refill : counts) {
        SCOPED_TRACE("capacity " + std::to_string(cap) + ", fill " + std::to_string(fill) +
                     ", refill " + std::to_string(refill));
        FlightRecorder rec(cap);
        ReferenceRing ref(cap);
        ASSERT_EQ(rec.capacity(), cap);
        recordRandom(rng, fill, rec, ref);
        expectSameAsReference(rec, ref);
        rec.clear();
        ref.clear();
        expectSameAsReference(rec, ref);
        recordRandom(rng, refill, rec, ref);
        expectSameAsReference(rec, ref);
      }
    }
  }
}

// ---------- monitor parsing ----------

std::vector<std::string> monitorProblems(const std::string& text,
                                         std::vector<MonitorSpec>* parsed = nullptr) {
  std::vector<MonitorSpec> out;
  std::vector<std::string> problems;
  probe::parseMonitors(mustParse(text), out, problems);
  if (parsed != nullptr) *parsed = out;
  return problems;
}

TEST(MonitorParse, AbsentMonitorsMeansNone) {
  std::vector<MonitorSpec> parsed;
  EXPECT_TRUE(monitorProblems(R"({})", &parsed).empty());
  EXPECT_TRUE(parsed.empty());
}

TEST(MonitorParse, ParsesAllFourMetrics) {
  std::vector<MonitorSpec> parsed;
  const auto problems = monitorProblems(R"({"monitors":[
    {"name":"floor","metric":"goodputGBs","min":4.0,"windowSec":15},
    {"metric":"p99OpLatencySec","max":0.5},
    {"metric":"recoverySec","max":20},
    {"metric":"stallSec","max":10}]})", &parsed);
  EXPECT_TRUE(problems.empty()) << (problems.empty() ? "" : problems[0]);
  ASSERT_EQ(parsed.size(), 4u);
  EXPECT_EQ(parsed[0].name, "floor");
  EXPECT_EQ(parsed[0].metric, MonitorMetric::GoodputGBs);
  EXPECT_DOUBLE_EQ(parsed[0].min, 4.0);
  EXPECT_DOUBLE_EQ(parsed[0].windowSec, 15.0);
  EXPECT_EQ(parsed[1].name, "p99OpLatencySec");  // defaults to the metric
  EXPECT_EQ(parsed[3].metric, MonitorMetric::StallSec);
}

TEST(MonitorParse, UnknownMetricIsActionableAndLeavesOutputUnchanged) {
  std::vector<MonitorSpec> parsed;
  const auto problems =
      monitorProblems(R"({"monitors":[{"metric":"goodput"}]})", &parsed);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("unknown 'metric'"), std::string::npos) << problems[0];
  EXPECT_NE(problems[0].find("goodputGBs"), std::string::npos) << problems[0];
  EXPECT_TRUE(parsed.empty());
}

TEST(MonitorParse, MissingBoundsRejected) {
  EXPECT_EQ(monitorProblems(R"({"monitors":[{"metric":"goodputGBs"}]})").size(), 1u);
  EXPECT_EQ(monitorProblems(R"({"monitors":[{"metric":"stallSec","max":0}]})").size(), 1u);
  EXPECT_EQ(
      monitorProblems(R"({"monitors":[{"metric":"goodputGBs","min":1,"windowSec":0}]})").size(),
      1u);
}

// ---------- watchdog behaviors ----------

TEST(Watchdog, PerSliceGoodputFloorCountsEveryViolation) {
  MonitorSpec spec;
  spec.name = "floor";
  spec.metric = MonitorMetric::GoodputGBs;
  spec.min = 5.0;
  WatchdogSet dog({spec});
  dog.observeSlice(0.0, 1.0, 6.0);
  dog.observeSlice(1.0, 2.0, 4.0);
  dog.observeSlice(2.0, 3.0, 3.0);
  dog.finish(3.0);
  ASSERT_EQ(dog.breaches().size(), 1u);
  EXPECT_EQ(dog.breaches()[0].monitor, "floor");
  EXPECT_DOUBLE_EQ(dog.breaches()[0].observed, 4.0);  // first violation reported
  EXPECT_DOUBLE_EQ(dog.breaches()[0].atSec, 2.0);
  EXPECT_EQ(dog.breaches()[0].occurrences, 2u);
}

TEST(Watchdog, TrailingWindowAbsorbsOneBadSlice) {
  MonitorSpec spec;
  spec.metric = MonitorMetric::GoodputGBs;
  spec.min = 5.0;
  spec.windowSec = 2.0;
  WatchdogSet dog({spec});
  dog.observeSlice(0.0, 1.0, 10.0);  // window not yet full: not judged
  dog.observeSlice(1.0, 2.0, 10.0);
  dog.observeSlice(2.0, 3.0, 1.0);  // mean (10+1)/2 = 5.5: still ok
  EXPECT_FALSE(dog.breached());
  dog.observeSlice(3.0, 4.0, 1.0);  // mean 1.0: breach
  dog.finish(4.0);
  ASSERT_EQ(dog.breaches().size(), 1u);
  EXPECT_DOUBLE_EQ(dog.breaches()[0].observed, 1.0);
  EXPECT_DOUBLE_EQ(dog.breaches()[0].atSec, 4.0);
}

TEST(Watchdog, P99CeilingFiresOnlineAndOnFinish) {
  MonitorSpec spec;
  spec.metric = MonitorMetric::P99OpLatencySec;
  spec.max = 1.0;
  {
    WatchdogSet dog({spec});
    dog.observeOpLatency(0.5, 10.0);
    dog.observeSlice(0.0, 1.0, 1.0);  // online eval picks up the sample
    EXPECT_TRUE(dog.breached());
  }
  {
    WatchdogSet dog({spec});
    dog.observeOpLatency(0.5, 10.0);  // no slices: only finish() evaluates
    dog.finish(1.0);
    ASSERT_EQ(dog.breaches().size(), 1u);
    EXPECT_GT(dog.breaches()[0].observed, 1.0);
  }
}

TEST(Watchdog, RecoveryDeadlineUsesSliceCloseLikeChaosOutcome) {
  MonitorSpec spec;
  spec.metric = MonitorMetric::RecoverySec;
  spec.max = 3.0;
  WatchdogSet dog({spec});
  dog.setRecoveryContext(/*lastRestoreAt=*/10.0, /*healthyGBs=*/8.0, /*tolerance=*/0.02);
  dog.observeSlice(10.0, 12.0, 2.0);  // still degraded
  dog.observeSlice(12.0, 14.0, 8.0);  // recovered at slice close: took 4 s
  dog.finish(14.0);
  ASSERT_EQ(dog.breaches().size(), 1u);
  EXPECT_DOUBLE_EQ(dog.breaches()[0].observed, 4.0);
  EXPECT_DOUBLE_EQ(dog.breaches()[0].atSec, 14.0);
}

TEST(Watchdog, RecoveryWithinDeadlineStaysQuiet) {
  MonitorSpec spec;
  spec.metric = MonitorMetric::RecoverySec;
  spec.max = 5.0;
  WatchdogSet dog({spec});
  dog.setRecoveryContext(10.0, 8.0, 0.02);
  dog.observeSlice(10.0, 12.0, 8.0);  // recovered in 2 s
  dog.finish(12.0);
  EXPECT_FALSE(dog.breached());
}

TEST(Watchdog, NeverRecoveredFiresAtFinish) {
  MonitorSpec spec;
  spec.metric = MonitorMetric::RecoverySec;
  spec.max = 3.0;
  WatchdogSet dog({spec});
  dog.setRecoveryContext(10.0, 8.0, 0.02);
  dog.observeSlice(10.0, 12.0, 1.0);
  dog.finish(20.0);
  ASSERT_EQ(dog.breaches().size(), 1u);
  EXPECT_DOUBLE_EQ(dog.breaches()[0].observed, 10.0);  // still down at the end
}

TEST(Watchdog, StallFiresOncePerStretch) {
  MonitorSpec spec;
  spec.metric = MonitorMetric::StallSec;
  spec.max = 3.0;
  WatchdogSet dog({spec});
  dog.observeSlice(0.0, 2.0, 0.0);
  dog.observeSlice(2.0, 4.0, 0.0);  // 4 s stalled: fire
  dog.observeSlice(4.0, 6.0, 0.0);  // same stretch: no refire
  dog.observeSlice(6.0, 8.0, 1.0);  // recovery resets the stretch
  dog.observeSlice(8.0, 10.0, 0.0);
  dog.observeSlice(10.0, 12.0, 0.0);  // second stretch: fire again
  dog.finish(12.0);
  ASSERT_EQ(dog.breaches().size(), 1u);
  EXPECT_EQ(dog.breaches()[0].occurrences, 2u);
}

TEST(Watchdog, BreachLandsInTheFlightRecorder) {
  MonitorSpec spec;
  spec.name = "floor";
  spec.metric = MonitorMetric::GoodputGBs;
  spec.min = 5.0;
  WatchdogSet dog({spec});
  FlightRecorder rec(16);
  dog.setRecorder(&rec);
  dog.observeSlice(0.0, 1.0, 1.0);
  const std::vector<probe::Record> snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].kind, RecordKind::MonitorBreach);
  EXPECT_DOUBLE_EQ(snap[0].value, 1.0);
}

TEST(Watchdog, BreachTableNamesObservedAndLimit) {
  MonitorSpec spec;
  spec.name = "floor";
  spec.metric = MonitorMetric::GoodputGBs;
  spec.min = 5.0;
  WatchdogSet dog({spec});
  dog.observeSlice(0.0, 1.0, 1.0);
  const std::string table = probe::renderBreachTable(dog.breaches());
  EXPECT_NE(table.find("floor"), std::string::npos) << table;
  EXPECT_NE(table.find("goodputGBs"), std::string::npos) << table;
  EXPECT_NE(table.find("observed 1"), std::string::npos) << table;
  EXPECT_NE(table.find("limit 5"), std::string::npos) << table;
  EXPECT_TRUE(probe::renderBreachTable({}).empty());
}

// ---------- self profiler ----------

TEST(SelfProfiler, DisabledScopesCostNothing) {
  probe::SelfProfiler prof;
  EXPECT_FALSE(prof.enabled());
  {
    probe::SelfProfiler::Scope s(&prof, probe::SelfProfiler::Bucket::Dispatch);
  }
  EXPECT_EQ(prof.count(probe::SelfProfiler::Bucket::Dispatch), 0u);
  EXPECT_DOUBLE_EQ(prof.seconds(probe::SelfProfiler::Bucket::Dispatch), 0.0);
}

TEST(SelfProfiler, EnabledScopeAccumulatesWallClock) {
  probe::SelfProfiler prof;
  prof.setEnabled(true);
  {
    probe::SelfProfiler::Scope s(&prof, probe::SelfProfiler::Bucket::Solve);
    volatile double sink = 0.0;
    for (int i = 0; i < 1000; ++i) sink = sink + static_cast<double>(i);
  }
  EXPECT_EQ(prof.count(probe::SelfProfiler::Bucket::Solve), 1u);
  EXPECT_GE(prof.seconds(probe::SelfProfiler::Bucket::Solve), 0.0);
}

// ---------- workload spec validation ----------

std::string workloadSpecError(const std::string& text) {
  workload::WorkloadRunSpec spec;
  std::vector<std::string> problems;
  workload::parseWorkloadSpec(mustParse(text), spec, problems);
  EXPECT_FALSE(problems.empty());
  std::string joined;
  for (const std::string& p : problems) joined += p + "\n";
  return joined;
}

TEST(WorkloadSpecProbe, SampleIntervalMustBePositive) {
  const std::string err = workloadSpecError(R"({
    "sampleIntervalSec": -1,
    "workload": {"generator": "io500", "nodes": 1, "procsPerNode": 2}})");
  EXPECT_NE(err.find("sampleIntervalSec: must be > 0"), std::string::npos) << err;
}

TEST(WorkloadSpecProbe, TimelineMonitorOnClosedGeneratorNeedsInterval) {
  const std::string err = workloadSpecError(R"({
    "workload": {"generator": "io500", "nodes": 1, "procsPerNode": 2},
    "monitors": [{"metric": "goodputGBs", "min": 1.0}]})");
  EXPECT_NE(err.find("sampleIntervalSec"), std::string::npos) << err;
}

TEST(WorkloadSpecProbe, RecoveryMonitorRequiresChaosSection) {
  const std::string err = workloadSpecError(R"({
    "sampleIntervalSec": 1.0,
    "workload": {"generator": "io500", "nodes": 1, "procsPerNode": 2},
    "monitors": [{"metric": "recoverySec", "max": 5.0}]})");
  EXPECT_NE(err.find("requires a 'chaos' section"), std::string::npos) << err;
}

// ---------- chaos integration ----------

chaos::ChaosSpec chaosSpecFromText(const std::string& text) {
  chaos::ChaosSpec spec;
  std::string err;
  EXPECT_TRUE(chaos::parseChaosSpec(mustParse(text), spec, err)) << err;
  return spec;
}

TEST(ChaosProbe, P99MonitorRejectedByChaosSpecs) {
  chaos::ChaosSpec spec;
  std::string err;
  EXPECT_FALSE(chaos::parseChaosSpec(mustParse(R"({
    "monitors": [{"metric": "p99OpLatencySec", "max": 1.0}]})"), spec, err));
  EXPECT_NE(err.find("p99OpLatencySec"), std::string::npos) << err;
}

// The telemetry x scale x chaos triple: a drill over aggregated flow
// classes must export correct scale.* gauges alongside chaos.* — and a
// satisfied watchdog must ride along without changing either.
TEST(ChaosProbe, AggregatedDrillExportsScaleChaosAndProbeGauges) {
  const chaos::ChaosSpec spec = chaosSpecFromText(R"({
    "workload": {"nodes": 2, "procsPerNode": 4, "clientsPerProc": 8},
    "horizonSec": 10, "intervalSec": 2,
    "events": [
      {"atSec": 3, "action": "fail", "component": "cnode", "index": 0},
      {"atSec": 6, "action": "restore", "component": "cnode", "index": 0}
    ],
    "monitors": [{"name": "floor", "metric": "goodputGBs", "min": 0.0001}]})");
  const chaos::ChaosOutcome out = chaos::runChaos(spec);
  EXPECT_EQ(out.flowClasses, 8u);       // 2 nodes x 4 procs = 8 sessions
  EXPECT_EQ(out.clientsTotal, 64u);     // each standing for 8 clients
  EXPECT_EQ(out.monitors, 1u);
  EXPECT_TRUE(out.breaches.empty());

  telemetry::MetricsRegistry reg;
  chaos::exportTo(out, reg);
  EXPECT_DOUBLE_EQ(reg.gaugeOr("scale.classes", 0.0), 8.0);
  EXPECT_DOUBLE_EQ(reg.gaugeOr("scale.clientsTotal", 0.0), 64.0);
  EXPECT_DOUBLE_EQ(reg.gaugeOr("scale.clientsPerClass", 0.0), 8.0);
  EXPECT_GT(reg.gaugeOr("chaos.healthy_gbs", 0.0), 0.0);
  EXPECT_DOUBLE_EQ(reg.gaugeOr("chaos.degraded_sec", -1.0), out.degradedSeconds);
  EXPECT_DOUBLE_EQ(reg.gaugeOr("probe.monitors", 0.0), 1.0);
  EXPECT_DOUBLE_EQ(reg.gaugeOr("probe.breaches", -1.0), 0.0);

  // Same drill without the watchdog: the aggregation and the timeline
  // must be untouched by monitor evaluation.
  chaos::ChaosSpec bare = spec;
  bare.monitors.clear();
  const chaos::ChaosOutcome plain = chaos::runChaos(bare);
  EXPECT_EQ(chaos::toJsonl(plain), chaos::toJsonl(out));
}

// ---------- sweep self-profile ----------

TEST(SweepProbe, SelfProfileFillsWallClockColumns) {
  const JsonValue config = mustParse(R"({
    "site": "wombat", "storage": "vast",
    "ior": {"nodes": 1, "procsPerNode": 4, "segments": 8}})");
  sweep::TrialOptions opts;
  opts.selfProfile = true;
  const sweep::TrialMetrics m = sweep::runTrial("ior", config, opts);
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_TRUE(m.hasSelf);
  EXPECT_GT(m.selfDispatchSec + m.selfCallbackSec + m.selfSolveSec, 0.0);

  const sweep::TrialMetrics off = sweep::runTrial("ior", config, {});
  EXPECT_FALSE(off.hasSelf);
  EXPECT_EQ(off.meanGBs, m.meanGBs);  // profiling must not change results
}

// ---------- CLI ----------

constexpr const char* kCliChaosSpec = R"({
  "name": "probe-drill", "site": "lassen", "storage": "vast",
  "workload": {"nodes": 2, "procsPerNode": 4},
  "horizonSec": 12, "intervalSec": 2,
  "events": [
    {"atSec": 3, "action": "fail", "component": "cnode", "index": 0},
    {"atSec": 6, "action": "restore", "component": "cnode", "index": 0}
  ]%s})";

std::string cliChaosSpec(const std::string& monitorsJson) {
  std::string text(kCliChaosSpec);
  const auto pos = text.find("%s");
  text.replace(pos, 2, monitorsJson);
  return text;
}

TEST(ProbeCli, SatisfiedMonitorsExitZeroAndKeepJsonlByteIdentical) {
  const std::string plain = writeTemp("probe_plain.json", cliChaosSpec(""));
  const std::string slo = writeTemp("probe_slo.json", cliChaosSpec(R"(,
    "monitors": [
      {"name": "floor", "metric": "goodputGBs", "min": 0.0001},
      {"name": "no-stall", "metric": "stallSec", "max": 11.0}
    ])"));
  const std::string outPlain = std::string(::testing::TempDir()) + "probe_plain.jsonl";
  const std::string outSlo = std::string(::testing::TempDir()) + "probe_slo.jsonl";
  std::ostringstream so1, se1, so2, se2;
  ASSERT_EQ(cli::run(ArgParser({"chaos", plain, "--out", outPlain}), so1, se1), 0) << se1.str();
  ASSERT_EQ(cli::run(ArgParser({"chaos", slo, "--out", outSlo}), so2, se2), 0) << se2.str();
  EXPECT_EQ(readFile(outPlain), readFile(outSlo));
  EXPECT_NE(so2.str().find("monitors: 2 evaluated, 0 breach(es)"), std::string::npos)
      << so2.str();
  std::remove(plain.c_str());
  std::remove(slo.c_str());
  std::remove(outPlain.c_str());
  std::remove(outSlo.c_str());
}

TEST(ProbeCli, BreachedMonitorExitsThreeWithBreachTable) {
  const std::string spec = writeTemp("probe_breach.json", cliChaosSpec(R"(,
    "monitors": [{"name": "impossible", "metric": "goodputGBs", "min": 100000.0}])"));
  std::ostringstream so, se;
  EXPECT_EQ(cli::run(ArgParser({"chaos", spec}), so, se), 3);
  EXPECT_NE(so.str().find("SLO breaches:"), std::string::npos) << so.str();
  EXPECT_NE(so.str().find("impossible"), std::string::npos) << so.str();
  std::remove(spec.c_str());
}

// The run's outcome exports the probe gauges, and --telemetry prints
// them with the run's other gauges.
TEST(ProbeCli, TelemetryPrintsTheMonitorAndBreachGauges) {
  const std::string spec = writeTemp("probe_gauges.json", cliChaosSpec(R"(,
    "monitors": [
      {"name": "floor", "metric": "goodputGBs", "min": 0.0001},
      {"name": "impossible", "metric": "goodputGBs", "min": 100000.0}
    ])"));
  std::ostringstream so, se;
  EXPECT_EQ(cli::run(ArgParser({"chaos", spec, "--telemetry"}), so, se), 3);
  EXPECT_NE(so.str().find("  probe.monitors = 2\n"), std::string::npos) << so.str();
  EXPECT_NE(so.str().find("  probe.breaches = 1\n"), std::string::npos) << so.str();
  std::remove(spec.c_str());
}

TEST(ProbeCli, DumpOnExitWritesDeterministicRecorderDumps) {
  const std::string spec = writeTemp("probe_dump.json", cliChaosSpec(""));
  const std::string pa = std::string(::testing::TempDir()) + "probe_dump_a";
  const std::string pb = std::string(::testing::TempDir()) + "probe_dump_b";
  for (const std::string& prefix : {pa, pb}) {
    std::ostringstream so, se;
    ASSERT_EQ(cli::run(ArgParser({"chaos", spec, "--dump-on-exit", prefix}), so, se), 0)
        << se.str();
    EXPECT_NE(so.str().find("flight-recorder"), std::string::npos) << so.str();
  }
  const std::string ja = readFile(pa + ".jsonl");
  EXPECT_FALSE(ja.empty());
  EXPECT_EQ(ja, readFile(pb + ".jsonl"));
  EXPECT_EQ(readFile(pa + ".trace.json"), readFile(pb + ".trace.json"));
  for (const std::string& p : {pa + ".jsonl", pa + ".trace.json", pb + ".jsonl",
                               pb + ".trace.json", spec}) {
    std::remove(p.c_str());
  }
}

TEST(ProbeCli, ProbeCommandDispatchesChaosAndWorkloadByShape) {
  const std::string chaosSpec = writeTemp("probe_dispatch_chaos.json", cliChaosSpec(R"(,
    "monitors": [{"name": "floor", "metric": "goodputGBs", "min": 0.0001}])"));
  std::ostringstream so1, se1;
  EXPECT_EQ(cli::run(ArgParser({"probe", chaosSpec}), so1, se1), 0) << se1.str();
  EXPECT_NE(so1.str().find("chaos:"), std::string::npos) << so1.str();

  const std::string wlSpec = writeTemp("probe_dispatch_wl.json", R"({
    "site": "lassen", "storage": "vast",
    "workload": {"generator": "io500", "nodes": 1, "procsPerNode": 2,
                 "easyOpsMedian": 4, "hardOpsMedian": 8, "seed": 3},
    "monitors": [{"metric": "p99OpLatencySec", "max": 600.0}]})");
  std::ostringstream so2, se2;
  EXPECT_EQ(cli::run(ArgParser({"probe", wlSpec}), so2, se2), 0) << se2.str();
  EXPECT_NE(so2.str().find("monitors: 1 evaluated"), std::string::npos) << so2.str();
  std::remove(chaosSpec.c_str());
  std::remove(wlSpec.c_str());
}

TEST(ProbeCli, StatsJsonIsLosslessMachineOutput) {
  std::ostringstream so, se;
  const ArgParser args({"stats", "--site", "lassen", "--storage", "vast", "--access",
                        "seq-read", "--nodes", "1", "--ppn", "2", "--json"});
  ASSERT_EQ(cli::run(args, so, se), 0) << se.str();
  JsonValue doc;
  ASSERT_TRUE(parseJson(so.str(), doc)) << so.str().substr(0, 200);
  ASSERT_NE(doc.find("gauges"), nullptr);
  ASSERT_NE(doc.find("counters"), nullptr);
}

TEST(ProbeCli, StatsSelfPrintsProfileSection) {
  std::ostringstream so, se;
  const ArgParser args({"stats", "--site", "lassen", "--storage", "vast", "--access",
                        "seq-read", "--nodes", "1", "--ppn", "2", "--self"});
  ASSERT_EQ(cli::run(args, so, se), 0) << se.str();
  EXPECT_NE(so.str().find("self."), std::string::npos) << so.str().substr(0, 400);
}

}  // namespace
}  // namespace hcsim
