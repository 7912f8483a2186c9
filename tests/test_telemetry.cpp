// hcsim::telemetry — metrics registry, stage-family collapsing, span
// accrual through the flow network, engine-counter export, the
// telemetry-off/on result-identity contract, and bottleneck attribution
// on the paper's Lassen gateway deployment.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cluster/deployments.hpp"
#include "core/experiment.hpp"
#include "ior/ior_runner.hpp"
#include "oracle/golden.hpp"
#include "sweep/result_sink.hpp"
#include "sweep/sweep_runner.hpp"
#include "sweep/trial_cache.hpp"
#include "telemetry/attribution.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace_import.hpp"

namespace hcsim {
namespace {

using telemetry::AttributionReport;
using telemetry::MetricsRegistry;
using telemetry::Telemetry;

// ---------- MetricsRegistry ----------

TEST(MetricsRegistry, CountersAndGaugesSnapshot) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  reg.counter("engine.events.dispatched", 10.0);
  reg.counter("engine.events.dispatched", 12.0);  // snapshot overwrites
  reg.gauge("net.flows.active", 3.0);
  EXPECT_DOUBLE_EQ(reg.counterOr("engine.events.dispatched", 0.0), 12.0);
  EXPECT_DOUBLE_EQ(reg.gaugeOr("net.flows.active", 0.0), 3.0);
  EXPECT_DOUBLE_EQ(reg.counterOr("missing", -1.0), -1.0);
  EXPECT_TRUE(reg.hasCounter("engine.events.dispatched"));
  EXPECT_FALSE(reg.hasCounter("net.flows.active"));  // it's a gauge
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistry, HistogramFirstBoundsWin) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat", 1e-6, 10.0, 16);
  h.add(0.5);
  Histogram& again = reg.histogram("lat", 1.0, 2.0, 4);  // same object back
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(again.total(), 1u);
  ASSERT_NE(reg.findHistogram("lat"), nullptr);
  EXPECT_EQ(reg.findHistogram("nope"), nullptr);
}

TEST(MetricsRegistry, JsonAndTableAreDeterministic) {
  MetricsRegistry reg;
  reg.counter("b.second", 2.0);
  reg.counter("a.first", 1.0);
  reg.gauge("z.gauge", 9.0);
  reg.histogram("h", 1e-3, 1e3, 8).add(1.0);
  const std::string j = writeJson(reg.toJson());
  // std::map ordering: "a.first" serializes before "b.second".
  EXPECT_LT(j.find("a.first"), j.find("b.second"));
  EXPECT_NE(j.find("\"counters\""), std::string::npos);
  EXPECT_NE(j.find("\"gauges\""), std::string::npos);
  EXPECT_NE(j.find("\"histograms\""), std::string::npos);
  const std::string t = reg.renderTable();
  EXPECT_NE(t.find("counters:"), std::string::npos);
  EXPECT_NE(t.find("gauges:"), std::string::npos);
  EXPECT_NE(t.find("histograms:"), std::string::npos);
}

// ---------- stage families ----------

TEST(Attribution, StageFamilyCollapsesLinkNames) {
  using telemetry::stageFamily;
  EXPECT_EQ(stageFamily("VAST@Lassen.gw[1]"), "gw");
  EXPECT_EQ(stageFamily("VAST@Lassen.sess.n3[0]"), "sess");
  EXPECT_EQ(stageFamily("Lassen.nic.n5"), "nic");
  EXPECT_EQ(stageFamily("NVMe@Wombat.n2.read"), "read");
  EXPECT_EQ(stageFamily("VAST@Lassen.qlc.read"), "qlc.read");
  EXPECT_EQ(stageFamily("VAST@Lassen.cnode[12]"), "cnode");
  // Pseudo stages carry no '.' and pass through.
  EXPECT_EQ(stageFamily("startup"), "startup");
  EXPECT_EQ(stageFamily("stream-cap"), "stream-cap");
}

// ---------- span store ----------

TEST(Telemetry, SpanLifecycleAndAttribution) {
  Telemetry tel;
  tel.setEnabled(true);
  const std::uint32_t s = tel.beginSpan("vast.read", 3, 1, 10.0, 100.0);
  const std::uint32_t gw = tel.stageId("gw");
  const std::uint32_t cap = tel.stageId("stream-cap");
  tel.accrue(s, gw, 3.0, 60.0);
  tel.accrue(s, cap, 1.0, 40.0);
  tel.accrue(s, gw, 1.0, 0.0);  // same stage accumulates
  tel.endSpan(s, 15.0);

  ASSERT_EQ(tel.spanCount(), 1u);
  const telemetry::Span& sp = tel.spans()[0];
  EXPECT_TRUE(sp.closed());
  EXPECT_DOUBLE_EQ(sp.duration(), 5.0);
  ASSERT_EQ(sp.stages.size(), 2u);

  const AttributionReport rep = tel.attribution();
  EXPECT_EQ(rep.spans, 1u);
  EXPECT_DOUBLE_EQ(rep.totalSeconds, 5.0);
  ASSERT_EQ(rep.stages.size(), 2u);
  EXPECT_EQ(rep.dominantStage, "gw");
  EXPECT_DOUBLE_EQ(rep.dominantSharePct, 80.0);
  EXPECT_DOUBLE_EQ(rep.stages[0].bytes, 60.0);
  const std::string table = rep.renderTable();
  EXPECT_NE(table.find("dominant stage: gw"), std::string::npos);
}

TEST(Telemetry, ExportToRegistry) {
  Telemetry tel;
  tel.setEnabled(true);
  const std::uint32_t s = tel.beginSpan("f", 0, 0, 0.0, 8.0);
  tel.accrue(s, tel.stageId("gw"), 2.0, 8.0);
  tel.endSpan(s, 2.0);
  tel.beginSpan("open", 0, 0, 1.0, 4.0);  // stays open

  MetricsRegistry reg;
  tel.exportTo(reg);
  EXPECT_DOUBLE_EQ(reg.counterOr("telemetry.spans", 0.0), 2.0);
  EXPECT_DOUBLE_EQ(reg.gaugeOr("telemetry.spans.open", 0.0), 1.0);
  const Histogram* lat = reg.findHistogram("telemetry.span.latency_s");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->total(), 1u);  // only closed spans carry a latency
}

// ---------- flow-network integration ----------

TEST(TelemetryFlows, DisabledSinkCostsNothing) {
  TestBench bench(Machine::lassen(), 2);
  auto fs = bench.attachVast(vastOnLassen());
  IorRunner runner(bench, *fs);
  runner.run(IorConfig::scalability(AccessPattern::SequentialWrite, 2, 2));
  EXPECT_FALSE(bench.telemetry().enabled());
  EXPECT_EQ(bench.telemetry().spanCount(), 0u);
  EXPECT_EQ(bench.telemetry().stageCount(), 0u);
}

TEST(TelemetryFlows, SpansCoverFlowLifetimes) {
  TestBench bench(Machine::lassen(), 2);
  auto fs = bench.attachVast(vastOnLassen());
  bench.telemetry().setEnabled(true);
  IorRunner runner(bench, *fs);
  IorConfig cfg = IorConfig::scalability(AccessPattern::SequentialWrite, 2, 2);
  cfg.repetitions = 1;
  runner.run(cfg);

  const Telemetry& tel = bench.telemetry();
  ASSERT_GT(tel.spanCount(), 0u);
  for (const telemetry::Span& sp : tel.spans()) {
    EXPECT_TRUE(sp.closed()) << sp.name << " left open";
    EXPECT_GT(sp.bytes, 0.0);
    double charged = 0.0;
    for (const auto& st : sp.stages) charged += st.seconds;
    // Residency is charged over the whole life of the flow (startup
    // included), so per-stage seconds must add up to its duration.
    EXPECT_NEAR(charged, sp.duration(), 1e-9 * std::max(1.0, sp.duration()));
    EXPECT_NE(sp.name.find("VAST@Lassen.write"), std::string::npos);
  }
  const AttributionReport rep = tel.attribution();
  EXPECT_EQ(rep.spans, tel.spanCount());
  EXPECT_FALSE(rep.dominantStage.empty());
}

// Satellite: engine schedule/cancel/adjust counters and the network's
// rerate count must surface through the registry, matching the engine.
TEST(TelemetryFlows, EngineCountersExportThroughRegistry) {
  TestBench bench(Machine::lassen(), 4);
  auto fs = bench.attachVast(vastOnLassen());
  IorRunner runner(bench, *fs);
  IorConfig cfg = IorConfig::scalability(AccessPattern::SequentialRead, 4, 4);
  cfg.repetitions = 1;
  runner.run(cfg);

  // Two unequal flows on a private link share one signature group: the
  // second arrival halves the group's rate, so its completion is re-rated
  // through the in-place adjust-key path and `adjusted` must move.
  FlowNetwork& net = bench.topo().network();
  const LinkId shared = net.addLink("test.shared", 1e9);
  FlowSpec small;
  small.bytes = 1000;
  small.route = {shared};
  FlowSpec large;
  large.bytes = 50000;
  large.route = {shared};
  net.startFlow(small, [](const FlowCompletion&) {});
  net.startFlow(large, [](const FlowCompletion&) {});
  bench.sim().run();

  MetricsRegistry reg;
  bench.collectMetrics(reg, fs.get());
  const Simulator& sim = bench.sim();
  EXPECT_DOUBLE_EQ(reg.counterOr("engine.events.scheduled", -1.0),
                   static_cast<double>(sim.eventsScheduled()));
  EXPECT_DOUBLE_EQ(reg.counterOr("engine.events.cancelled", -1.0),
                   static_cast<double>(sim.eventsCancelled()));
  EXPECT_DOUBLE_EQ(reg.counterOr("engine.events.adjusted", -1.0),
                   static_cast<double>(sim.eventsAdjusted()));
  EXPECT_DOUBLE_EQ(reg.counterOr("engine.events.dispatched", -1.0),
                   static_cast<double>(sim.eventsDispatched()));
  EXPECT_DOUBLE_EQ(reg.counterOr("net.rerates", -1.0),
                   static_cast<double>(bench.topo().network().rerates()));
  EXPECT_GT(sim.eventsScheduled(), 0u);
  EXPECT_GE(sim.eventsScheduled(), sim.eventsDispatched());
  EXPECT_GT(bench.topo().network().rerates(), 0u);
  // Multi-flow runs re-rate through the in-place adjust path.
  EXPECT_GT(sim.eventsAdjusted(), 0u);
  // Model metrics ride along under the model-name prefix.
  EXPECT_TRUE(reg.hasCounter("VAST@Lassen.meta.ops_completed"));
}

// ---------- the acceptance scenario ----------

// The paper's headline: IOR reads from Lassen bind on the single
// gateway node's TCP pipe. Attribution must name the gateway family as
// dominant at scale.
TEST(TelemetryFlows, LassenGatewayDominatesSeqRead) {
  Environment env = makeEnvironment(Site::Lassen, StorageKind::Vast, 32);
  env.bench->telemetry().setEnabled(true);
  IorRunner runner(*env.bench, *env.fs);
  IorConfig cfg = IorConfig::scalability(AccessPattern::SequentialRead, 32, 8);
  cfg.segments = 64;
  cfg.repetitions = 1;
  runner.run(cfg);

  const AttributionReport rep = env.bench->telemetry().attribution();
  ASSERT_FALSE(rep.stages.empty());
  EXPECT_EQ(rep.dominantStage, "gw");
  EXPECT_GT(rep.dominantSharePct, 50.0);
}

// ---------- merged chrome trace ----------

TEST(TelemetryTrace, MergedJsonRoundTripsThroughImporter) {
  TestBench bench(Machine::lassen(), 2);
  auto fs = bench.attachVast(vastOnLassen());
  bench.telemetry().setEnabled(true);
  TraceLog app;
  IorRunner runner(bench, *fs);
  runner.setTraceLog(&app);
  IorConfig cfg = IorConfig::scalability(AccessPattern::SequentialWrite, 2, 2);
  cfg.repetitions = 1;
  runner.run(cfg);
  ASSERT_GT(app.events().size(), 0u);

  const std::string json = telemetry::mergedChromeTraceJson(app, bench.telemetry());
  EXPECT_NE(json.find("\"cat\":\"internal\""), std::string::npos);

  TraceLog imported;
  TraceImportStats stats;
  ASSERT_TRUE(parseChromeTraceJson(json, imported, &stats));
  EXPECT_EQ(stats.skipped, 0u);
  EXPECT_EQ(imported.events().size(), app.events().size() + bench.telemetry().spanCount());
  // Internal spans live on their own pid rows, above kInternalPidBase.
  std::size_t internal = 0;
  for (const auto& e : imported.events()) {
    if (e.pid >= telemetry::kInternalPidBase) ++internal;
  }
  EXPECT_EQ(internal, bench.telemetry().spanCount());
}

// ---------- telemetry-off/on result identity ----------

sweep::SweepSpec tinySpec() {
  sweep::SweepSpec spec;
  spec.name = "telemetry-identity";
  spec.experiment = "ior";
  JsonObject ior;
  ior["segments"] = 16;
  ior["procsPerNode"] = 2;
  ior["repetitions"] = 2;
  ior["noiseStdDevFrac"] = 0.02;
  JsonObject base;
  base["site"] = "lassen";
  base["ior"] = JsonValue(std::move(ior));
  spec.base = JsonValue(std::move(base));
  spec.axes.push_back({"storage", {JsonValue("gpfs"), JsonValue("vast")}});
  spec.axes.push_back({"ior.access", {JsonValue("seq-write"), JsonValue("seq-read")}});
  spec.axes.push_back({"ior.nodes", {JsonValue(1), JsonValue(2)}});
  return spec;
}

std::string jsonlOf(const sweep::SweepOutcome& out) {
  std::string all;
  for (const auto& r : out.results) all += sweep::toJsonlLine(r) + "\n";
  return all;
}

// Satellite: simulated results must be byte-identical with telemetry on
// — collection observes, it never perturbs.
TEST(TelemetryIdentity, SweepJsonlIsByteIdenticalAfterStrippingTelemetry) {
  const sweep::SweepSpec spec = tinySpec();
  const sweep::SweepOutcome off = sweep::runSweep(spec, 2, nullptr, {});
  sweep::TrialOptions telemetryOn;
  telemetryOn.telemetry = true;
  sweep::SweepOutcome on = sweep::runSweep(spec, 2, nullptr, telemetryOn);

  ASSERT_EQ(on.results.size(), off.results.size());
  for (std::size_t i = 0; i < on.results.size(); ++i) {
    ASSERT_TRUE(on.results[i].metrics.ok) << on.results[i].metrics.error;
    EXPECT_TRUE(on.results[i].metrics.hasTelemetry);
    EXPECT_GT(on.results[i].metrics.eventsDispatched, 0.0);
    EXPECT_FALSE(on.results[i].metrics.dominantStage.empty());
  }
  const std::string onJsonl = jsonlOf(on);
  EXPECT_NE(onJsonl.find("\"telemetry\":"), std::string::npos);

  // Strip the telemetry sub-object: the remaining bytes must match the
  // telemetry-off run exactly (no FP drift, no reordering).
  for (auto& r : on.results) r.metrics.hasTelemetry = false;
  EXPECT_EQ(jsonlOf(on), jsonlOf(off));
  EXPECT_EQ(jsonlOf(off).find("\"telemetry\":"), std::string::npos);
}

TEST(TelemetryIdentity, CsvGrowsColumnsOnlyWithTelemetry) {
  const sweep::SweepSpec spec = tinySpec();
  const sweep::SweepOutcome off = sweep::runSweep(spec, 2, nullptr, {});
  sweep::TrialOptions telemetryOn;
  telemetryOn.telemetry = true;
  const sweep::SweepOutcome on = sweep::runSweep(spec, 2, nullptr, telemetryOn);
  const std::string offCsv = sweep::toCsv(off);
  const std::string onCsv = sweep::toCsv(on);
  EXPECT_EQ(offCsv.find("dominantStage"), std::string::npos);
  EXPECT_NE(onCsv.find("dominantStage"), std::string::npos);
  // Shared prefix: the off-CSV header is a prefix of the on-CSV header.
  const std::string offHeader = offCsv.substr(0, offCsv.find('\n'));
  const std::string onHeader = onCsv.substr(0, onCsv.find('\n'));
  EXPECT_EQ(onHeader.rfind(offHeader, 0), 0u);
}

// Satellite: golden snapshots and figure checks must not notice
// telemetry at all.
TEST(TelemetryIdentity, GoldenRecordAndCheckIgnoreTelemetry) {
  const oracle::GoldenFigure* fig = oracle::findFigure("fig2b");
  ASSERT_NE(fig, nullptr);
  oracle::GoldenFigure small = *fig;  // shrink for test runtime
  small.spec.axes.back().values = {JsonValue(1), JsonValue(2)};

  const std::string dirOff = ::testing::TempDir() + "golden-tel-off";
  const std::string dirOn = ::testing::TempDir() + "golden-tel-on";
  std::filesystem::create_directories(dirOff);
  std::filesystem::create_directories(dirOn);
  std::string error;
  sweep::TrialOptions telemetryOn;
  telemetryOn.telemetry = true;
  ASSERT_TRUE(oracle::recordFigure(small, dirOff, 2, error)) << error;
  ASSERT_TRUE(oracle::recordFigure(small, dirOn, 2, error, nullptr, telemetryOn)) << error;

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  const std::string snapOff = slurp(oracle::goldenPath(dirOff, small.name));
  const std::string snapOn = slurp(oracle::goldenPath(dirOn, small.name));
  ASSERT_FALSE(snapOff.empty());
  EXPECT_EQ(snapOff, snapOn);
  EXPECT_EQ(snapOn.find("telemetry"), std::string::npos);

  const oracle::FigureCheck checkOff = oracle::checkFigure(small, dirOff, 2, 2.0);
  const oracle::FigureCheck checkOn =
      oracle::checkFigure(small, dirOff, 2, 2.0, nullptr, telemetryOn);
  EXPECT_TRUE(checkOff.pass());
  EXPECT_TRUE(checkOn.pass());
  EXPECT_EQ(oracle::deltaTable(checkOn, 2.0, true), oracle::deltaTable(checkOff, 2.0, true));
}

// ---------- trial cache ----------

TEST(TelemetryCache, MetricsRoundTripAndKeySeparation) {
  sweep::TrialCache cache;
  sweep::TrialMetrics m;
  m.ok = true;
  m.meanGBs = 1.5;
  m.hasTelemetry = true;
  m.rerates = 12.0;
  m.eventsScheduled = 100.0;
  m.eventsCancelled = 3.0;
  m.eventsAdjusted = 40.0;
  m.eventsDispatched = 97.0;
  m.dominantStage = "gw";
  m.dominantSharePct = 81.25;
  m.latencyCapable = true;  // ... but no per-op distribution: opLatency null
  cache.insert("k", m);

  // Every other block, with a latency distribution this time.
  sweep::TrialMetrics full;
  full.ok = true;
  full.meanGBs = 2.5;
  full.minGBs = 2.25;
  full.maxGBs = 2.75;
  full.elapsedSec = 0.125;
  full.bytesMoved = 3e9;
  full.latencyCapable = true;
  full.hasOpLatency = true;
  full.opCount = 4096.0;
  full.opP50 = 1.5e-4;
  full.opP95 = 2.5e-4;
  full.opP99 = 1.0 / 3.0;
  full.hasMonitors = true;
  full.monitors = 3.0;
  full.breaches = 1.0;
  full.hasTransport = true;
  full.transportOps = 512.0;
  full.transportBytes = 5.5e8;
  full.transportThrottleSec = 0.01;
  full.transportConnSetups = 16.0;
  full.transportSqWaits = 7.0;
  full.transportDoorbells = 40.0;
  cache.insert("k-full", full);
  sweep::TrialMetrics failed;
  failed.error = "storageConfig.cnodez: unknown key";
  cache.insert("k-failed", failed);

  const std::string path = ::testing::TempDir() + "telemetry-cache.jsonl";
  ASSERT_TRUE(cache.saveFile(path));
  sweep::TrialCache loaded;
  ASSERT_TRUE(loaded.loadFile(path));
  const auto hit = loaded.lookup("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->hasTelemetry);
  EXPECT_DOUBLE_EQ(hit->rerates, 12.0);
  EXPECT_DOUBLE_EQ(hit->eventsScheduled, 100.0);
  EXPECT_DOUBLE_EQ(hit->eventsCancelled, 3.0);
  EXPECT_DOUBLE_EQ(hit->eventsAdjusted, 40.0);
  EXPECT_DOUBLE_EQ(hit->eventsDispatched, 97.0);
  EXPECT_EQ(hit->dominantStage, "gw");
  EXPECT_DOUBLE_EQ(hit->dominantSharePct, 81.25);
  EXPECT_TRUE(hit->latencyCapable);
  EXPECT_FALSE(hit->hasOpLatency);
  EXPECT_FALSE(hit->hasMonitors);
  EXPECT_FALSE(hit->hasTransport);

  const auto hitFull = loaded.lookup("k-full");
  ASSERT_TRUE(hitFull.has_value());
  EXPECT_FALSE(hitFull->hasTelemetry);
  EXPECT_TRUE(hitFull->hasOpLatency);
  EXPECT_EQ(hitFull->opP99, full.opP99);  // bit-exact, not just close
  EXPECT_TRUE(hitFull->hasMonitors);
  EXPECT_DOUBLE_EQ(hitFull->breaches, 1.0);
  EXPECT_TRUE(hitFull->hasTransport);
  EXPECT_DOUBLE_EQ(hitFull->transportDoorbells, 40.0);
  const auto hitFailed = loaded.lookup("k-failed");
  ASSERT_TRUE(hitFailed.has_value());
  EXPECT_FALSE(hitFailed->ok);
  EXPECT_EQ(hitFailed->error, failed.error);
  // Every column of every block: the reloaded metrics serialize to the
  // same JSONL metrics object as the originals.
  const std::pair<const char*, sweep::TrialMetrics> stored[] = {
      {"k", m}, {"k-full", full}, {"k-failed", failed}};
  for (const auto& [key, original] : stored) {
    EXPECT_EQ(writeJson(sweep::metricsToJson(*loaded.lookup(key))),
              writeJson(sweep::metricsToJson(original)))
        << key;
  }
  std::remove(path.c_str());

  // A telemetry run memoizes under a distinct key, so a warm plain
  // cache never serves (telemetry-free) metrics to a telemetry sweep.
  sweep::SweepSpec spec = tinySpec();
  spec.axes.resize(1);  // 2 trials is enough
  sweep::TrialCache shared;
  const sweep::SweepOutcome plain = sweep::runSweep(spec, 1, &shared);
  EXPECT_EQ(plain.cacheMisses, plain.results.size());
  sweep::TrialOptions telemetryOn;
  telemetryOn.telemetry = true;
  const sweep::SweepOutcome tele = sweep::runSweep(spec, 1, &shared, telemetryOn);
  EXPECT_EQ(tele.cacheMisses, tele.results.size()) << "plain entries must not hit";
  for (const auto& r : tele.results) EXPECT_TRUE(r.metrics.hasTelemetry);
  // And a second telemetry sweep is served entirely from the cache,
  // with the columns intact.
  const sweep::SweepOutcome warm = sweep::runSweep(spec, 1, &shared, telemetryOn);
  EXPECT_EQ(warm.cacheHits, warm.results.size());
  for (const auto& r : warm.results) EXPECT_TRUE(r.metrics.hasTelemetry);
}

}  // namespace
}  // namespace hcsim
