// hcsim::sweep — spec parsing, JSON-path editing, grid/random
// expansion, parallel-vs-serial determinism and the result sinks.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>

#include "config/fields.hpp"
#include "core/experiment.hpp"
#include "sweep/result_sink.hpp"
#include "sweep/sweep_runner.hpp"
#include "sweep/sweep_spec.hpp"
#include "sweep/trial_cache.hpp"

using namespace hcsim;
using namespace hcsim::sweep;

namespace {

SweepSpec smallIorSpec() {
  SweepSpec spec;
  spec.name = "unit";
  spec.experiment = "ior";
  JsonObject ior;
  ior["segments"] = 32;
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

std::string jsonl(const SweepOutcome& out) {
  std::string all;
  for (const auto& r : out.results) all += toJsonlLine(r) + "\n";
  return all;
}

}  // namespace

TEST(SweepSpec, JsonRoundTrip) {
  SweepSpec in = smallIorSpec();
  in.sampling.mode = Sampling::Mode::Random;
  in.sampling.samples = 5;
  in.sampling.seed = 42;

  SweepSpec out;
  ASSERT_TRUE(fromJson(toJson(in), out));
  EXPECT_EQ(out.name, in.name);
  EXPECT_EQ(out.experiment, in.experiment);
  ASSERT_EQ(out.axes.size(), 3u);
  EXPECT_EQ(out.axes[0].path, "storage");
  ASSERT_EQ(out.axes[2].values.size(), 2u);
  EXPECT_EQ(*out.axes[2].values[1].number(), 2.0);
  EXPECT_EQ(out.sampling.mode, Sampling::Mode::Random);
  EXPECT_EQ(out.sampling.samples, 5u);
  EXPECT_EQ(out.sampling.seed, 42u);
  EXPECT_EQ(out.base.stringOr("site", ""), "lassen");
  EXPECT_EQ(writeJson(toJson(out)), writeJson(toJson(in)));
}

TEST(SweepSpec, RejectsMalformedAxes) {
  JsonObject ax;
  ax["path"] = "ior.nodes";
  ax["values"] = JsonValue(JsonArray{});  // empty values
  JsonObject o;
  o["axes"] = JsonValue(JsonArray{JsonValue(std::move(ax))});
  SweepSpec out;
  EXPECT_FALSE(fromJson(JsonValue(std::move(o)), out));

  // A misspelled or wrong-typed key fails with one line naming it
  // instead of running a smaller sweep.
  const struct {
    const char* spec;
    const char* problem;
  } cases[] = {
      {R"({"axis": [{"path": "ior.nodes", "values": [1, 2]}]})", "axis: unknown key"},
      {R"({"axes": [{"pathh": "ior.nodes", "values": [1]}]})", "axes[0].pathh: unknown key"},
      {R"({"sampling": {"mode": "random", "sampels": 4}})", "sampling.sampels: unknown key"},
      {R"({"name": 3})", "name: must be a string (got 3)"},
      {R"({"experiment": ["ior"]})", "experiment: must be a string"},
      {R"({"experiment": "iorr"})", "experiment: must be ior|dlio|chaos|workload (got 'iorr')"},
      {R"({"sampling": {"mode": "random", "samples": "4"}})", "sampling.samples: must be a"},
      {R"({"sampling": {"mode": "random", "samples": 4, "seed": -1}})", "sampling.seed: must be a"},
  };
  for (const auto& c : cases) {
    JsonValue j;
    ASSERT_TRUE(parseJson(c.spec, j)) << c.spec;
    std::string error;
    SweepSpec spec;
    EXPECT_FALSE(fromJson(j, spec, &error)) << c.spec;
    EXPECT_EQ(error.find(c.problem), 0u) << c.spec << " -> " << error;
  }
}

TEST(SweepSpec, JsonPathSetCreatesIntermediates) {
  JsonValue root;
  ASSERT_TRUE(jsonPathSet(root, "storageConfig.gateway.latency", JsonValue(1.5e-4)));
  const JsonValue* v = jsonPathGet(root, "storageConfig.gateway.latency");
  ASSERT_NE(v, nullptr);
  EXPECT_DOUBLE_EQ(*v->number(), 1.5e-4);
  // A scalar in the way is a refusal, not an overwrite.
  ASSERT_TRUE(jsonPathSet(root, "site", JsonValue("lassen")));
  EXPECT_FALSE(jsonPathSet(root, "site.nested", JsonValue(1)));
  EXPECT_EQ(jsonPathGet(root, "site.nested"), nullptr);
  EXPECT_EQ(jsonPathGet(root, "missing.key"), nullptr);
}

TEST(SweepSpec, DeepCopyDoesNotAlias) {
  JsonValue a;
  ASSERT_TRUE(jsonPathSet(a, "ior.nodes", JsonValue(1)));
  JsonValue shallow = a;           // shares the object tree
  JsonValue deep = deepCopy(a);    // must not
  ASSERT_TRUE(jsonPathSet(a, "ior.nodes", JsonValue(8)));
  EXPECT_DOUBLE_EQ(*jsonPathGet(shallow, "ior.nodes")->number(), 8.0);
  EXPECT_DOUBLE_EQ(*jsonPathGet(deep, "ior.nodes")->number(), 1.0);
}

TEST(SweepExpand, GridCountAndOrder) {
  const SweepSpec spec = smallIorSpec();
  EXPECT_EQ(spec.gridSize(), 8u);
  const std::vector<Trial> trials = expandTrials(spec);
  ASSERT_EQ(trials.size(), 8u);
  // Row-major with the last axis (ior.nodes) fastest.
  EXPECT_DOUBLE_EQ(*jsonPathGet(trials[0].config, "ior.nodes")->number(), 1.0);
  EXPECT_DOUBLE_EQ(*jsonPathGet(trials[1].config, "ior.nodes")->number(), 2.0);
  EXPECT_EQ(*jsonPathGet(trials[0].config, "storage")->str(), "gpfs");
  EXPECT_EQ(*jsonPathGet(trials[7].config, "storage")->str(), "vast");
  EXPECT_EQ(*jsonPathGet(trials[7].config, "ior.access")->str(), "seq-read");
  // Base fields survive, axis params are recorded per trial.
  EXPECT_EQ(trials[5].config.stringOr("site", ""), "lassen");
  ASSERT_EQ(trials[5].params.size(), 3u);
  EXPECT_EQ(trials[5].params[0].first, "storage");
  for (std::size_t i = 0; i < trials.size(); ++i) EXPECT_EQ(trials[i].index, i);
}

TEST(SweepExpand, RandomSamplerIsSeedDeterministic) {
  SweepSpec spec = smallIorSpec();
  spec.sampling.mode = Sampling::Mode::Random;
  spec.sampling.samples = 16;
  spec.sampling.seed = 7;
  const std::vector<Trial> a = expandTrials(spec);
  const std::vector<Trial> b = expandTrials(spec);
  ASSERT_EQ(a.size(), 16u);
  ASSERT_EQ(b.size(), 16u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(paramsKey(a[i]), paramsKey(b[i]));
    EXPECT_EQ(writeJson(a[i].config), writeJson(b[i].config));
  }
  spec.sampling.seed = 8;
  const std::vector<Trial> c = expandTrials(spec);
  bool anyDiffer = false;
  for (std::size_t i = 0; i < a.size(); ++i) anyDiffer |= paramsKey(a[i]) != paramsKey(c[i]);
  EXPECT_TRUE(anyDiffer);
}

TEST(SweepRun, ParallelMatchesSerialByteForByte) {
  const SweepSpec spec = smallIorSpec();
  const SweepOutcome serial = runSweep(spec, 1);
  const SweepOutcome parallel = runSweep(spec, 8);
  ASSERT_EQ(serial.results.size(), 8u);
  ASSERT_EQ(parallel.results.size(), 8u);
  EXPECT_EQ(serial.failures, 0u);
  EXPECT_EQ(parallel.failures, 0u);
  EXPECT_EQ(jsonl(serial), jsonl(parallel));
  EXPECT_EQ(toCsv(serial), toCsv(parallel));
  EXPECT_DOUBLE_EQ(serial.bandwidthGBs.mean(), parallel.bandwidthGBs.mean());
  for (const auto& r : serial.results) EXPECT_GT(r.metrics.meanGBs, 0.0);
}

TEST(SweepRun, ImpossibleDeploymentFailsThatTrialOnly) {
  SweepSpec spec = smallIorSpec();
  spec.axes[0].values.push_back(JsonValue("nvme"));  // NVMe is Wombat-only
  const SweepOutcome out = runSweep(spec, 2);
  ASSERT_EQ(out.results.size(), 12u);
  EXPECT_EQ(out.failures, 4u);
  for (const auto& r : out.results) {
    const std::string storage = r.trial.config.stringOr("storage", "");
    EXPECT_EQ(r.metrics.ok, storage != "nvme");
    if (!r.metrics.ok) EXPECT_FALSE(r.metrics.error.empty());
  }
}

TEST(SweepRun, StorageConfigOverridesChangeTheOutcome) {
  SweepSpec spec;
  spec.experiment = "ior";
  JsonObject ior;
  ior["access"] = "seq-read";
  ior["nodes"] = 2;
  ior["procsPerNode"] = 4;
  ior["segments"] = 64;
  JsonObject base;
  base["site"] = "lassen";
  base["storage"] = "vast";
  base["ior"] = JsonValue(std::move(ior));
  spec.base = JsonValue(std::move(base));
  // Session-capped NFS reads: doubling the per-client cap must help.
  spec.axes.push_back(
      {"storageConfig.tcpSessionCap", {JsonValue(1.15e9), JsonValue(2.3e9)}});
  const SweepOutcome out = runSweep(spec, 2);
  ASSERT_EQ(out.results.size(), 2u);
  ASSERT_TRUE(out.results[0].metrics.ok) << out.results[0].metrics.error;
  ASSERT_TRUE(out.results[1].metrics.ok) << out.results[1].metrics.error;
  EXPECT_GT(out.results[1].metrics.meanGBs, out.results[0].metrics.meanGBs * 1.2);
}

// A CNode that fails right after t = 0 (1e-9) strikes while the first
// flows are still in their startup delay. The failover must reroute
// those too, or they start on the dead CNode's link and the trial drains
// with I/O outstanding. One at 0 strikes before the first op is issued
// (FaultAtTimeZeroEqualsTheComponentDownBeforeTheRun).
TEST(SweepRun, CNodeFailureAtStartReroutesFlowsInTheirStartupDelay) {
  for (const char* at : {"0", "1e-9", "0.001"}) {
    JsonValue config;
    ASSERT_TRUE(parseJson(std::string(R"({"site": "wombat", "storage": "vast",
        "ior": {"nodes": 4, "procsPerNode": 48, "segments": 512},
        "chaos": {"events": [{"atSec": )") + at +
                              R"(, "action": "fail", "component": "cnode", "index": 0}]}})",
                          config));
    const TrialMetrics m = runTrial("ior", config);
    EXPECT_TRUE(m.ok) << "atSec " << at << ": " << m.error;
    EXPECT_GT(m.meanGBs, 0.0) << "atSec " << at;
  }
}

// A fault at atSec 0 strikes when its schedule is injected, before the
// run issues its first op, so the trial reads exactly as the component
// failed before IorRunner::run: the same placement of every flow, not a
// failover of flows already placed.
TEST(SweepRun, FaultAtTimeZeroEqualsTheComponentDownBeforeTheRun) {
  const struct {
    Site site;
    StorageKind storage;
    const char* component;
  } cases[] = {
      {Site::Wombat, StorageKind::Vast, "cnode"}, {Site::Wombat, StorageKind::Vast, "dnode"},
      {Site::Wombat, StorageKind::Vast, "dbox"},  {Site::Lassen, StorageKind::Gpfs, "nsd"},
      {Site::Ruby, StorageKind::Lustre, "oss"},   {Site::Lassen, StorageKind::Daos, "target"},
  };
  for (const auto& c : cases) {
    for (const char* access : {"seq-write", "seq-read"}) {
      const std::string what = std::string(enumName(c.storage)) + " " + c.component + " " + access;
      JsonValue config;
      ASSERT_TRUE(parseJson(std::string(R"({"site": ")") + enumName(c.site) +
                                R"(", "storage": ")" + enumName(c.storage) +
                                R"(", "ior": {"access": ")" + access +
                                R"(", "nodes": 2, "procsPerNode": 16, "segments": 64},
          "chaos": {"events": [{"atSec": 0, "action": "fail", "component": ")" +
                                c.component + R"(", "index": 0}]}})",
                            config));
      const TrialMetrics m = runTrial("ior", config);
      ASSERT_TRUE(m.ok) << what << ": " << m.error;

      IorConfig cfg;
      ASSERT_EQ(readFields(*config.find("ior"), cfg, "ior"), "");
      Environment env = makeEnvironment(c.site, c.storage, cfg.nodes);
      FaultSpec fault;
      fault.component = c.component;
      ASSERT_TRUE(env.fs->applyFault(fault)) << what;
      IorRunner runner(*env.bench, *env.fs);
      EXPECT_EQ(m.meanGBs, units::toGBs(runner.run(cfg).bandwidth.mean)) << what;
    }
  }
}

TEST(SweepRun, NonsenseSectionsFailEveryTrialWithTheKey) {
  // A misspelled axis must not draw a flat, plausible curve: every trial
  // fails without running, and its JSONL error names the dotted key.
  struct Case {
    const char* path;
    JsonValue value;
    const char* error;
  };
  const Case cases[] = {
      {"ior.segmentz", JsonValue(4), "ior.segmentz: unknown key"},
      {"ior.access", JsonValue("seq-reed"),
       "ior.access: must be seq-read|seq-write|rand-read|rand-write (got 'seq-reed')"},
      {"ior.nodes", JsonValue(-3), "ior.nodes: must be a positive integer (got -3)"},
      {"storageConfig.cnodez", JsonValue(4), "storageConfig.cnodez: unknown key"},
      {"transport.lanez", JsonValue(2), "transport.lanez: unknown key"},
  };
  for (const Case& c : cases) {
    SweepSpec spec = smallIorSpec();
    spec.axes.resize(1);
    spec.axes[0].values = {JsonValue("vast")};
    ASSERT_TRUE(jsonPathSet(spec.base, c.path, deepCopy(c.value)));
    const SweepOutcome out = runSweep(spec, 1);
    ASSERT_EQ(out.results.size(), 1u);
    EXPECT_EQ(out.failures, 1u);
    const TrialMetrics& m = out.results[0].metrics;
    EXPECT_FALSE(m.ok);
    EXPECT_EQ(m.error, c.error);
    const std::string line = toJsonlLine(out.results[0]);
    EXPECT_NE(line.find(R"("ok":false)"), std::string::npos) << line;
    EXPECT_NE(line.find(c.path), std::string::npos) << line;
  }
}

/// The fields of one CSV line: commas split them except inside quotes,
/// where a doubled quote stands for one.
std::vector<std::string> csvFields(const std::string& line) {
  std::vector<std::string> fields(1);
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted && c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
      fields.back() += '"';
      ++i;
    } else if (c == '"') {
      quoted = !quoted;
    } else if (c == ',' && !quoted) {
      fields.emplace_back();
    } else {
      fields.back() += c;
    }
  }
  return fields;
}

TEST(SweepSink, CsvHasHeaderAxisColumnsAndRows) {
  SweepSpec spec = smallIorSpec();
  spec.axes.resize(1);  // storage
  // An object-valued axis: its cells are JSON, with commas and quotes.
  JsonValue tcp, rdma;
  ASSERT_TRUE(parseJson(R"({"kind": "tcp", "lanes": 2})", tcp));
  ASSERT_TRUE(parseJson(R"({"kind": "rdma", "lanes": 4})", rdma));
  spec.axes.push_back({"transport", {tcp, rdma}});
  const SweepOutcome out = runSweep(spec, 2);
  EXPECT_EQ(out.failures, 0u);
  std::istringstream csv(toCsv(out));
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  EXPECT_EQ(line.rfind("trial,storage,transport,ok,meanGBs", 0), 0u) << line;
  const std::size_t width = csvFields(line).size();
  std::size_t rows = 0;
  while (std::getline(csv, line)) {
    const std::vector<std::string> fields = csvFields(line);
    EXPECT_EQ(fields.size(), width) << line;
    EXPECT_EQ(fields[2], writeJson(rows % 2 == 0 ? tcp : rdma)) << line;
    ++rows;
  }
  EXPECT_EQ(rows, 4u);  // 2 storages x 2 transports
}

TEST(SweepSink, BaselineSelfCompareIsZeroDelta) {
  SweepSpec spec = smallIorSpec();
  spec.axes.resize(2);  // 4 trials
  const SweepOutcome out = runSweep(spec, 4);
  const std::string path = "/tmp/hcsim_sweep_baseline_test.jsonl";
  ASSERT_TRUE(writeJsonl(out, path));
  Cells baseline;
  ASSERT_TRUE(loadCells(path, baseline));
  std::remove(path.c_str());
  EXPECT_EQ(baseline.size(), 4u);
  const auto deltas = compareToBaseline(out, baseline);
  ASSERT_EQ(deltas.size(), 4u);
  for (const auto& d : deltas) {
    EXPECT_TRUE(d.matched) << d.key;
    EXPECT_DOUBLE_EQ(d.deltaPct, 0.0);
  }
}

TEST(SweepSink, UnmatchedTrialReportsNew) {
  SweepSpec spec = smallIorSpec();
  spec.axes.resize(1);
  const SweepOutcome out = runSweep(spec, 1);
  const auto deltas = compareToBaseline(out, {});
  ASSERT_EQ(deltas.size(), 2u);
  for (const auto& d : deltas) EXPECT_FALSE(d.matched);
  // A failed baseline cell has no throughput to compare against.
  Cells failed;
  for (const TrialResult& r : out.results) failed[paramsKey(r.trial)] = TrialMetrics{};
  for (const auto& d : compareToBaseline(out, failed)) EXPECT_FALSE(d.matched) << d.key;
}

namespace {

/// Three hand-built rows: opLatency shown as null, every block shown
/// with values, and a failed trial whose error needs quoting. The axes
/// are a string (one value with a comma) and an object, listed out of
/// key order.
SweepOutcome pinnedRows() {
  JsonObject ior;
  ior["access"] = "seq-read";
  ior["nodes"] = 2.0;
  const auto trial = [&ior](std::size_t index, const char* tag) {
    TrialResult r;
    r.trial.index = index;
    r.trial.params = {{"tag", JsonValue(tag)}, {"ior", JsonValue(ior)}};
    return r;
  };
  TrialResult a = trial(0, "plain");
  a.metrics.ok = true;
  a.metrics.latencyCapable = true;
  a.metrics.meanGBs = 1.5;
  a.metrics.minGBs = 0.1;
  a.metrics.maxGBs = 2.0;
  a.metrics.elapsedSec = 1.0 / 3;
  a.metrics.bytesMoved = 1073741824.0;
  TrialResult b = trial(1, "a,b");
  TrialMetrics& m = b.metrics;
  m.ok = m.latencyCapable = m.hasOpLatency = m.hasTelemetry = m.hasMonitors = true;
  m.hasSelf = m.hasTransport = m.hasDlio = true;
  m.meanGBs = 3.25;
  m.minGBs = 3;
  m.maxGBs = 3.5;
  m.elapsedSec = 0.25;
  m.bytesMoved = 5e15;
  m.opCount = 96;
  m.opP50 = 0.001;
  m.opP95 = 0.0025;
  m.opP99 = 0.0031;
  m.rerates = 10;
  m.eventsScheduled = 100;
  m.eventsCancelled = 3;
  m.eventsAdjusted = 40;
  m.eventsDispatched = 97;
  m.dominantStage = "link:vast,gw";
  m.dominantSharePct = 81.25;
  m.monitors = 2;
  m.breaches = 1;
  m.selfDispatchSec = 1e-6;
  m.selfCallbackSec = 2e-6;
  m.selfSolveSec = 3e-6;
  m.selfSinkSec = 5e-7;
  m.transportOps = 12;
  m.transportBytes = 4096;
  m.transportThrottleSec = 0.5;
  m.transportConnSetups = 4;
  m.transportSqWaits = 1;
  m.transportDoorbells = 40;
  m.dlioSystemGBs = 0.13;
  m.dlioNonOverlappingIoSec = 1.5;
  m.dlioOverlappingIoSec = 2.5;
  m.dlioComputeSec = 7;
  TrialResult c = trial(2, "c");
  c.metrics.error = "bad \"x\", y\nz";
  SweepOutcome out;
  out.results = {a, b, c};
  return out;
}

}  // namespace

// The JSONL record's bytes: sorted keys at every level, null for a
// shown block without values, numbers as jsonNumber writes them.
TEST(SweepSink, JsonlRowBytesArePinned) {
  const SweepOutcome out = pinnedRows();
  const std::string params = R"("params":{"ior":{"access":"seq-read","nodes":2},"tag":)";
  EXPECT_EQ(toJsonlLine(out.results[0]),
            R"({"metrics":{"bytes":1073741824,"elapsedSec":0.33333333333333331,"maxGBs":2,)"
            R"("meanGBs":1.5,"minGBs":0.10000000000000001,"ok":true,"opLatency":null},)" +
                params + R"("plain"},"trial":0})");
  EXPECT_EQ(toJsonlLine(out.results[1]),
            R"({"metrics":{"bytes":5000000000000000,"dlio":{"computeSec":7,)"
            R"("nonOverlappingIoSec":1.5,"overlappingIoSec":2.5,"systemGBs":0.13},)"
            R"("elapsedSec":0.25,"maxGBs":3.5,"meanGBs":3.25,"minGBs":3,"ok":true,)"
            R"("opLatency":{"count":96,"p50":0.001,"p95":0.0025000000000000001,)"
            R"("p99":0.0030999999999999999},"probe":{"breaches":1,"monitors":2},)"
            R"("self":{"callbackSec":1.9999999999999999e-06,"dispatchSec":9.9999999999999995e-07,)"
            R"("sinkSec":4.9999999999999998e-07,"solveSec":3.0000000000000001e-06,)"
            R"("telemetrySec":0},"telemetry":{"dominantSharePct":81.25,)"
            R"("dominantStage":"link:vast,gw","eventsAdjusted":40,"eventsCancelled":3,)"
            R"("eventsDispatched":97,"eventsScheduled":100,"rerates":10},)"
            R"("transport":{"bytes":4096,"connSetups":4,"doorbells":40,"ops":12,"sqWaits":1,)"
            R"("throttleSec":0.5}},)" +
                params + R"("a,b"},"trial":1})");
  EXPECT_EQ(toJsonlLine(out.results[2]),
            R"({"metrics":{"error":"bad \"x\", y\nz","ok":false},)" + params +
                R"("c"},"trial":2})");
  EXPECT_EQ(paramsKey(out.results[2].trial),
            R"({"ior":{"access":"seq-read","nodes":2},"tag":"c"})");
}

// The CSV's bytes: axis columns in axis order, every shown block's
// columns, blank cells where a block has no values, and quoting where a
// cell holds a comma, a quote or a newline.
TEST(SweepSink, CsvRowBytesArePinned) {
  const std::string ior = R"("{""access"":""seq-read"",""nodes"":2}")";
  EXPECT_EQ(toCsv(pinnedRows()),
            "trial,tag,ior,ok,meanGBs,minGBs,maxGBs,elapsedSec,bytes,error,opCount,opP50,opP95,"
            "opP99,rerates,eventsScheduled,eventsCancelled,eventsAdjusted,eventsDispatched,"
            "dominantStage,dominantSharePct,monitors,breaches,selfDispatchSec,selfCallbackSec,"
            "selfSolveSec,selfTelemetrySec,selfSinkSec,transportOps,transportBytes,"
            "transportThrottleSec,transportConnSetups,transportSqWaits,transportDoorbells,"
            "dlioSystemGBs,dlioNonOverlappingIoSec,dlioOverlappingIoSec,dlioComputeSec\n"
            "0,plain," + ior + ",1,1.5,0.10000000000000001,2,0.33333333333333331,1073741824"
            ",,,,,,,,,,,,,,,,,,,,,,,,,,,,,\n"
            "1,\"a,b\"," + ior + ",1,3.25,3,3.5,0.25,5000000000000000,,96,0.001,"
            "0.0025000000000000001,0.0030999999999999999,10,100,3,40,97,\"link:vast,gw\",81.25,"
            "2,1,9.9999999999999995e-07,1.9999999999999999e-06,3.0000000000000001e-06,0,"
            "4.9999999999999998e-07,12,4096,0.5,4,1,40,0.13,1.5,2.5,7\n"
            "2,c," + ior + ",0,,,,,,\"bad \"\"x\"\", y\nz\",,,,,,,,,,,,,,,,,,,,,,,,,,,,\n");
}

TEST(TrialCache, Fnv1a64IsStable) {
  // Pinned reference values: persisted cache files depend on them.
  EXPECT_EQ(fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(fnv1a64("a"), 12638187200555641996ull);
  EXPECT_EQ(fnv1a64("hcsim"), 8823723028178096707ull);
}

TEST(TrialCache, KeyIsCanonicalAcrossInsertionOrder) {
  JsonObject a;
  a["x"] = 1.0;
  a["y"] = "s";
  JsonObject b;
  b["y"] = "s";
  b["x"] = 1.0;
  EXPECT_EQ(trialKey("ior", JsonValue(std::move(a))), trialKey("ior", JsonValue(std::move(b))));
}

TEST(TrialCache, CountsHitsAndMisses) {
  TrialCache cache;
  TrialMetrics m;
  m.ok = true;
  m.meanGBs = 1.5;
  EXPECT_FALSE(cache.lookup("k").has_value());
  cache.insert("k", m);
  const auto hit = cache.lookup("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->meanGBs, 1.5);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  cache.resetCounters();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(TrialCache, SweepWithCacheMatchesSweepWithoutByteForByte) {
  const SweepSpec spec = smallIorSpec();
  const SweepOutcome plain = runSweep(spec, 4);
  TrialCache cache;
  const SweepOutcome cold = runSweep(spec, 4, &cache);
  EXPECT_EQ(cold.cacheHits, 0u);
  EXPECT_EQ(cold.cacheMisses, 8u);
  const SweepOutcome warm = runSweep(spec, 4, &cache);
  EXPECT_EQ(warm.cacheHits, 8u);
  EXPECT_EQ(warm.cacheMisses, 0u);
  EXPECT_EQ(jsonl(plain), jsonl(cold));
  EXPECT_EQ(jsonl(plain), jsonl(warm));
  // Warm run at a different job count: still byte-identical.
  const SweepOutcome warm1 = runSweep(spec, 1, &cache);
  EXPECT_EQ(jsonl(plain), jsonl(warm1));
}

TEST(TrialCache, SaveLoadRoundTripsBitExact) {
  const SweepSpec spec = smallIorSpec();
  TrialCache cache;
  runSweep(spec, 2, &cache);
  const std::string path = "trial_cache_test.jsonl";
  ASSERT_TRUE(cache.saveFile(path));

  TrialCache reloaded;
  ASSERT_TRUE(reloaded.loadFile(path));
  EXPECT_EQ(reloaded.size(), cache.size());
  const SweepOutcome fresh = runSweep(spec, 2);
  const SweepOutcome served = runSweep(spec, 2, &reloaded);
  EXPECT_EQ(served.cacheHits, 8u);
  EXPECT_EQ(served.cacheMisses, 0u);
  EXPECT_EQ(jsonl(fresh), jsonl(served));

  // Saving the reloaded cache reproduces the file byte for byte.
  const std::string path2 = "trial_cache_test2.jsonl";
  ASSERT_TRUE(reloaded.saveFile(path2));
  std::ifstream f1(path), f2(path2);
  const std::string b1((std::istreambuf_iterator<char>(f1)), std::istreambuf_iterator<char>());
  const std::string b2((std::istreambuf_iterator<char>(f2)), std::istreambuf_iterator<char>());
  EXPECT_FALSE(b1.empty());
  EXPECT_EQ(b1, b2);
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

TEST(TrialCache, MissingFileIsColdCacheButCorruptFileFails) {
  TrialCache cache;
  EXPECT_TRUE(cache.loadFile("no_such_trial_cache.jsonl"));
  EXPECT_EQ(cache.size(), 0u);

  const std::string path = "trial_cache_corrupt.jsonl";
  {
    std::ofstream out(path);
    out << "{\"fnv\":\"deadbeef\",\"key\":\"ior\\n{}\",\"metrics\":{\"ok\":true}}\n";
  }
  EXPECT_FALSE(cache.loadFile(path));  // hash does not match key
  EXPECT_EQ(cache.size(), 0u);
  {
    std::ofstream out(path);
    out << "not json at all\n";
  }
  EXPECT_FALSE(cache.loadFile(path));
  {
    // The flat record older builds wrote: a valid hash, but its metrics
    // lack the JSONL "bytes" column, so they must not load as zeros.
    const std::string key = "ior\n{}";
    std::ostringstream fnv;
    fnv << std::hex << fnv1a64(key);
    JsonObject flat;
    flat["ok"] = true;
    flat["meanGBs"] = 1.5;
    flat["minGBs"] = 1.5;
    flat["maxGBs"] = 1.5;
    flat["elapsedSec"] = 2.0;
    flat["bytesMoved"] = 3e9;
    flat["latencyCapable"] = true;
    JsonObject rec;
    rec["fnv"] = fnv.str();
    rec["key"] = key;
    rec["metrics"] = JsonValue(std::move(flat));
    std::ofstream out(path);
    out << writeJson(JsonValue(std::move(rec))) << "\n";
  }
  EXPECT_FALSE(cache.loadFile(path));
  EXPECT_EQ(cache.size(), 0u);
  std::remove(path.c_str());
}
