#include "workload/workload_spec.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "cli/commands.hpp"
#include "core/experiment.hpp"
#include "probe/flight_recorder.hpp"
#include "sweep/result_sink.hpp"
#include "sweep/sweep_runner.hpp"
#include "telemetry/metrics_registry.hpp"
#include "util/json.hpp"
#include "workload/grammar_source.hpp"
#include "workload/workload_runner.hpp"

namespace hcsim {
namespace {

using workload::WorkloadRunSpec;

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

/// A small two-pid chrome trace for the replay generator.
std::string chromeTraceFixture() {
  return R"({"traceEvents":[
{"ph":"X","cat":"read","name":"r0","pid":0,"tid":0,"ts":0,"dur":2000,"args":{"bytes":1048576}},
{"ph":"X","cat":"compute","name":"c0","pid":0,"tid":0,"ts":2000,"dur":1000,"args":{}},
{"ph":"X","cat":"write","name":"w0","pid":0,"tid":0,"ts":3000,"dur":2000,"args":{"bytes":2097152}},
{"ph":"X","cat":"read","name":"r1","pid":1,"tid":0,"ts":0,"dur":1500,"args":{"bytes":524288}},
{"ph":"X","cat":"write","name":"w1","pid":1,"tid":0,"ts":1500,"dur":1500,"args":{"bytes":1048576}}
]})";
}

/// One small trial config per registered generator, all fast to run.
std::vector<JsonValue> generatorConfigs(const std::string& tracePath) {
  std::vector<JsonValue> configs;
  // The ior generator simulates one noiseless run: it takes repetitions
  // and noise at those values (any other exits 2, see
  // Cli.NonsenseSpecValuesExitTwoWithOneLine).
  configs.push_back(mustParse(R"({"site":"lassen","storage":"vast","workload":{
    "generator":"ior","nodes":1,"procsPerNode":2,"segments":4,
    "blockSize":4194304,"transferSize":1048576,"seed":41,
    "repetitions":1,"noiseStdDevFrac":0}})"));
  configs.push_back(mustParse(R"({"site":"lassen","storage":"vast","workload":{
    "generator":"dlio","nodes":1,"procsPerNode":2,"workload":{
      "name":"tiny","samples":16,"sampleSize":153600,"transferSize":153600,
      "epochs":1,"ioThreads":2,"computeTimePerBatch":0.005}}})"));
  JsonValue replay = mustParse(R"({"site":"lassen","storage":"vast","workload":{
    "generator":"replay","pidsPerNode":2}})");
  (*(*replay.object())["workload"].object())["trace"] = tracePath;
  configs.push_back(std::move(replay));
  configs.push_back(mustParse(R"({"site":"lassen","storage":"vast","workload":{
    "generator":"io500","nodes":1,"procsPerNode":2,
    "easyOpsMedian":4,"hardOpsMedian":8,"seed":99}})"));
  configs.push_back(mustParse(R"({"site":"lassen","storage":"vast","workload":{
    "generator":"grammar","nodes":1,"procsPerNode":2,"seed":5,
    "fileBytes":67108864,"rules":{"main":[
      {"op":"open"},
      {"op":"write","bytes":1048576,"count":4,"pattern":"seq"},
      {"compute":0.01},
      {"op":"read","bytes":1048576,"count":4,"pattern":"random"},
      {"barrier":true}]}}})"));
  configs.push_back(mustParse(R"({"site":"lassen","storage":"vast","workload":{
    "generator":"openloop","clients":4,"clientsPerNode":2,
    "ratePerClientHz":20,"horizonSec":2,"objects":64,"zipfTheta":0.9,
    "objectBytes":4194304,"requestBytes":131072,"seed":77}})"));
  return configs;
}

// Every generator must produce byte-identical JSONL whatever the job
// count — the slot-per-trial contract extended to the workload trial
// type (satellite 3 / check.sh gate).
TEST(WorkloadSweep, AllGeneratorsByteIdenticalAcrossJobs) {
  const std::string trace = writeTemp("wl_jobs_trace.json", chromeTraceFixture());
  const std::vector<JsonValue> configs = generatorConfigs(trace);
  const auto serial = sweep::runTrialBatch("workload", configs, 1);
  const auto parallel = sweep::runTrialBatch("workload", configs, 3);
  ASSERT_EQ(serial.size(), configs.size());
  ASSERT_EQ(parallel.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    sweep::TrialResult a{sweep::Trial{}, serial[i]};
    sweep::TrialResult b{sweep::Trial{}, parallel[i]};
    EXPECT_TRUE(serial[i].ok) << serial[i].error;
    EXPECT_EQ(sweep::toJsonlLine(a), sweep::toJsonlLine(b)) << "generator index " << i;
  }
  std::remove(trace.c_str());
}

// Running the same spec through the CLI twice must emit identical bytes
// (--out JSONL includes the goodput timeline and opLatency record).
TEST(WorkloadCli, RunTwiceByteIdentical) {
  const std::string spec = writeTemp("wl_twice_spec.json", R"({
    "name":"twice","site":"lassen","storage":"vast",
    "workload":{"generator":"io500","nodes":1,"procsPerNode":2,
                "easyOpsMedian":4,"hardOpsMedian":8,"seed":3}})");
  const std::string out1 = std::string(::testing::TempDir()) + "wl_twice_1.jsonl";
  const std::string out2 = std::string(::testing::TempDir()) + "wl_twice_2.jsonl";
  for (const std::string& out : {out1, out2}) {
    std::ostringstream so, se;
    const ArgParser args(std::vector<std::string>{"workload", spec, "--out", out});
    ASSERT_EQ(cli::run(args, so, se), 0) << se.str();
  }
  const std::string a = readFile(out1);
  const std::string b = readFile(out2);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  std::remove(spec.c_str());
  std::remove(out1.c_str());
  std::remove(out2.c_str());
}

// ---- grammar validation: one actionable line per problem ----

std::vector<std::string> grammarProblems(const std::string& workloadJson) {
  workload::GrammarSpec spec;
  std::vector<std::string> problems;
  EXPECT_FALSE(workload::parseGrammarSpec(mustParse(workloadJson), "workload", spec, problems));
  return problems;
}

TEST(GrammarSpec, UnknownProductionIsOneActionableLine) {
  const auto problems = grammarProblems(R"({"generator":"grammar","rules":{
    "main":["nosuch"]}})");
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("unknown production 'nosuch'"), std::string::npos) << problems[0];
  EXPECT_NE(problems[0].find("known rules: main"), std::string::npos) << problems[0];
}

TEST(GrammarSpec, CyclicRuleIsOneActionableLine) {
  const auto problems = grammarProblems(R"({"generator":"grammar","rules":{
    "main":["a"],"a":["b"],"b":["a"]}})");
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("cyclic expansion"), std::string::npos) << problems[0];
  EXPECT_NE(problems[0].find("DAG"), std::string::npos) << problems[0];
}

TEST(GrammarSpec, ZeroSizeOpIsOneActionableLine) {
  const auto problems = grammarProblems(R"({"generator":"grammar","rules":{
    "main":[{"op":"write","bytes":0,"count":4}]}})");
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("zero-size op"), std::string::npos) << problems[0];
}

TEST(GrammarSpec, EachProductionShapeTakesOnlyItsOwnKeys) {
  const struct {
    const char* production;
    const char* problem;
  } cases[] = {
      {R"({"op":"write","bytes":4194304,"cont":16})", "workload.rules.main[0].cont: unknown key"},
      {R"({"op":"read","bytes":1048576,"patern":"random"})",
       "workload.rules.main[0].patern: unknown key"},
      {R"({"op":"open","bytes":4096})", "workload.rules.main[0].bytes: unknown key"},
      {R"({"rule":"leaf","count":2})", "workload.rules.main[0].count: unknown key"},
      {R"({"compute":0.5,"op":"read"})", "workload.rules.main[0].op: unknown key"},
      {R"({"barrier":true,"shared":true})", "workload.rules.main[0].shared: unknown key"},
  };
  for (const auto& c : cases) {
    const auto problems = grammarProblems(std::string(R"({"generator":"grammar","rules":{
      "leaf":[{"op":"sync"}],"main":[)") + c.production + "]}}");
    ASSERT_EQ(problems.size(), 1u) << c.production;
    EXPECT_EQ(problems[0], c.problem);
  }
}

TEST(WorkloadCli, BadGrammarSpecExitsTwoWithActionableError) {
  const std::string spec = writeTemp("wl_bad_grammar.json", R"({
    "site":"lassen","storage":"vast",
    "workload":{"generator":"grammar","rules":{"main":["nosuch"]}}})");
  std::ostringstream so, se;
  const ArgParser args(std::vector<std::string>{"workload", spec});
  EXPECT_EQ(cli::run(args, so, se), 2);
  EXPECT_NE(se.str().find("unknown production 'nosuch'"), std::string::npos) << se.str();
  std::remove(spec.c_str());
}

TEST(WorkloadSpec, UnknownGeneratorListsSortedRegistry) {
  WorkloadRunSpec spec;
  std::vector<std::string> problems;
  workload::parseWorkloadSpec(
      mustParse(R"({"site":"lassen","storage":"vast","workload":{"generator":"bogus"}})"), spec,
      problems);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("unknown generator 'bogus'"), std::string::npos) << problems[0];
  EXPECT_NE(problems[0].find("dlio, grammar, io500, ior, openloop, replay"), std::string::npos)
      << problems[0];
}

// ---- openloop + chaos composition ----

// A fail-slow CNode mid-run must visibly dent the open-loop goodput
// timeline, and a restore must bring it back: the composition the
// subsystem exists to express (generator x chaos x retry in one spec).
TEST(WorkloadChaos, OpenLoopFailSlowDegradesAndRecovers) {
  const JsonValue doc = mustParse(R"({
    "name":"openloop-chaos","site":"lassen","storage":"vast",
    "storageConfig":{"cnodes":2},
    "workload":{"generator":"openloop","clients":16,"clientsPerNode":4,
      "ratePerClientHz":100,"horizonSec":8,"objects":128,"zipfTheta":0.9,
      "objectBytes":4194304,"requestBytes":1048576,"readFraction":0.9,
      "seed":11},
    "retry":{"timeoutSec":5},
    "chaos":{"events":[
      {"atSec":2.0,"action":"fail-slow","component":"cnode","index":0,"severity":0.2},
      {"atSec":5.0,"action":"restore","component":"cnode","index":0}]}})");
  WorkloadRunSpec spec;
  std::vector<std::string> problems;
  workload::parseWorkloadSpec(doc, spec, problems);
  ASSERT_TRUE(problems.empty());
  workload::SourceBundle bundle = workload::makeSource(spec, problems);
  ASSERT_TRUE(problems.empty());
  ASSERT_NE(bundle.source, nullptr);

  Environment env = makeEnvironment(spec.site, spec.storage, bundle.nodes,
                                    spec.storageConfig.isNull() ? nullptr : &spec.storageConfig);
  workload::injectWorkloadChaos(spec, env);
  const workload::WorkloadOutcome out =
      workload::runWorkload(env, spec, *bundle.source);

  auto sliceAt = [&](double t) {
    for (const workload::WorkloadSample& s : out.timeline) {
      if (s.start <= t && t < s.end) return s.gbs;
    }
    ADD_FAILURE() << "no timeline slice covers t=" << t;
    return 0.0;
  };
  const double healthy = sliceAt(1.5);    // before the fault
  const double degraded = sliceAt(3.5);   // fail-slow active
  const double recovered = sliceAt(7.0);  // after restore
  ASSERT_GT(healthy, 0.0);
  EXPECT_LT(degraded, 0.9 * healthy) << "fail-slow did not dent goodput";
  EXPECT_GT(recovered, 0.7 * healthy) << "restore did not recover goodput";
}

// Retry-layer records name the client whose request timed out, not the
// runner's anonymous per-rank session.
TEST(WorkloadChaos, RetryRecordsCarryTheRequestClient) {
  const JsonValue doc = mustParse(R"({
    "site":"wombat","storage":"nvme",
    "workload":{"generator":"openloop","clients":8,"clientsPerNode":4,
      "ratePerClientHz":50,"horizonSec":4,"objects":64,"objectBytes":4194304,
      "requestBytes":1048576,"readFraction":0,"seed":3},
    "retry":{"timeoutSec":0.5},
    "chaos":{"events":[
      {"atSec":1,"action":"fail","component":"drive","index":0},
      {"atSec":3,"action":"restore","component":"drive","index":0}]}})");
  WorkloadRunSpec spec;
  std::vector<std::string> problems;
  workload::parseWorkloadSpec(doc, spec, problems);
  workload::SourceBundle bundle = workload::makeSource(spec, problems);
  ASSERT_TRUE(problems.empty()) << problems.front();
  Environment env = makeEnvironment(spec.site, spec.storage, bundle.nodes, nullptr);
  workload::injectWorkloadChaos(spec, env);
  const workload::WorkloadOutcome out = workload::runWorkload(env, spec, *bundle.source);
  ASSERT_GT(out.retries, 0u);

  std::set<std::uint32_t> subjects;
  for (const probe::Record& r : env.bench->recorder().snapshot()) {
    if (r.kind == probe::RecordKind::RetryTimeout || r.kind == probe::RecordKind::OpFailed ||
        r.kind == probe::RecordKind::LateCompletion) {
      subjects.insert(r.subject);
    }
  }
  EXPECT_GE(subjects.size(), 2u);
}

// ---- io500 relations, direct ----

TEST(Io500, SameSeedIsDeterministic) {
  const JsonValue cfg = mustParse(R"({"site":"lassen","storage":"vast","workload":{
    "generator":"io500","nodes":1,"procsPerNode":4,
    "easyOpsMedian":8,"hardOpsMedian":16,"seed":500}})");
  const sweep::TrialMetrics a = sweep::runTrial("workload", cfg);
  const sweep::TrialMetrics b = sweep::runTrial("workload", cfg);
  ASSERT_TRUE(a.ok) << a.error;
  EXPECT_EQ(sweep::toJsonlLine({sweep::Trial{}, a}), sweep::toJsonlLine({sweep::Trial{}, b}));
}

TEST(Io500, BandwidthIsScaleInvariant) {
  auto run = [](double scale) {
    JsonValue cfg = mustParse(R"({"site":"lassen","storage":"vast","workload":{
      "generator":"io500","nodes":1,"procsPerNode":4,
      "easyOpsMedian":16,"hardOpsMedian":32,"seed":500}})");
    (*(*cfg.object())["workload"].object())["scale"] = scale;
    return sweep::runTrial("workload", cfg);
  };
  const sweep::TrialMetrics s1 = run(1.0);
  const sweep::TrialMetrics s2 = run(2.0);
  ASSERT_TRUE(s1.ok) << s1.error;
  ASSERT_TRUE(s2.ok) << s2.error;
  EXPECT_GT(s2.bytesMoved, s1.bytesMoved);  // working set grew...
  const double ratio = s2.meanGBs / s1.meanGBs;
  EXPECT_GT(ratio, 0.7) << s1.meanGBs << " vs " << s2.meanGBs;
  EXPECT_LT(ratio, 1.4) << s1.meanGBs << " vs " << s2.meanGBs;  // ...bandwidth did not
}

// ---- telemetry export ----

TEST(WorkloadTelemetry, ExportsAllGauges) {
  workload::WorkloadOutcome out;
  out.generator = "grammar";
  out.elapsed = 2.0;
  out.bytesMoved = 4'000'000'000ull;
  out.opsIssued = 10;
  out.opsCompleted = 9;
  out.opsFailed = 1;
  out.metaOps = 3;
  out.computeOps = 2;
  out.barriers = 1;
  out.retries = 4;
  out.lateCompletions = 1;
  telemetry::MetricsRegistry reg;
  workload::exportTo(out, reg);
  EXPECT_DOUBLE_EQ(reg.gaugeOr("workload.ops.issued", -1), 10.0);
  EXPECT_DOUBLE_EQ(reg.gaugeOr("workload.ops.completed", -1), 9.0);
  EXPECT_DOUBLE_EQ(reg.gaugeOr("workload.ops.failed", -1), 1.0);
  EXPECT_DOUBLE_EQ(reg.gaugeOr("workload.ops.meta", -1), 3.0);
  EXPECT_DOUBLE_EQ(reg.gaugeOr("workload.ops.compute", -1), 2.0);
  EXPECT_DOUBLE_EQ(reg.gaugeOr("workload.barriers", -1), 1.0);
  EXPECT_DOUBLE_EQ(reg.gaugeOr("workload.bytes", -1), 4e9);
  EXPECT_DOUBLE_EQ(reg.gaugeOr("workload.elapsedSec", -1), 2.0);
  EXPECT_DOUBLE_EQ(reg.gaugeOr("workload.goodputGBs", -1), 2.0);
  EXPECT_DOUBLE_EQ(reg.gaugeOr("workload.retries", -1), 4.0);
  EXPECT_DOUBLE_EQ(reg.gaugeOr("workload.lateCompletions", -1), 1.0);
}

// ---- opLatency serialization contract (satellite 1) ----

TEST(OpLatencyContract, CoalescedIorEmitsNullNeverZeros) {
  const JsonValue cfg = mustParse(R"({"site":"lassen","storage":"vast",
    "ior":{"nodes":1,"procsPerNode":2,"segments":4,"blockSize":4194304,
    "transferSize":1048576,"mode":"coalesced"}})");
  const sweep::TrialMetrics m = sweep::runTrial("ior", cfg);
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_TRUE(m.latencyCapable);
  EXPECT_FALSE(m.hasOpLatency);
  const std::string line = sweep::toJsonlLine({sweep::Trial{}, m});
  EXPECT_NE(line.find("\"opLatency\":null"), std::string::npos) << line;
  EXPECT_EQ(line.find("\"opLatency\":{"), std::string::npos) << line;
}

TEST(OpLatencyContract, PerOpIorEmitsDistribution) {
  const JsonValue cfg = mustParse(R"({"site":"lassen","storage":"vast",
    "ior":{"nodes":1,"procsPerNode":2,"segments":4,"blockSize":4194304,
    "transferSize":1048576,"mode":"per-op"}})");
  const sweep::TrialMetrics m = sweep::runTrial("ior", cfg);
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_TRUE(m.latencyCapable);
  EXPECT_TRUE(m.hasOpLatency);
  EXPECT_GT(m.opCount, 0.0);
  EXPECT_GT(m.opP99, 0.0);
  const std::string line = sweep::toJsonlLine({sweep::Trial{}, m});
  EXPECT_NE(line.find("\"opLatency\":{"), std::string::npos) << line;
  EXPECT_NE(line.find("\"count\":"), std::string::npos) << line;
}

TEST(OpLatencyContract, DlioTrialsEmitNoOpLatencyKey) {
  const JsonValue cfg = mustParse(R"({"site":"lassen","storage":"vast",
    "dlio":{"nodes":1,"procsPerNode":2,"workload":{"name":"tiny","samples":16,
    "sampleSize":153600,"transferSize":153600,"computeTimePerBatch":0.005}}})");
  const sweep::TrialMetrics m = sweep::runTrial("dlio", cfg);
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_FALSE(m.latencyCapable);
  const std::string line = sweep::toJsonlLine({sweep::Trial{}, m});
  EXPECT_EQ(line.find("opLatency"), std::string::npos) << line;
}

// The workload summary JSONL follows the same contract.
TEST(OpLatencyContract, WorkloadSummaryNullWithoutCollection) {
  workload::WorkloadOutcome out;
  out.generator = "openloop";
  const std::string jsonl = workload::toJsonl(out);
  EXPECT_NE(jsonl.find("\"opLatency\":null"), std::string::npos) << jsonl;
  out.opLatencies = {0.001, 0.002, 0.003};
  const std::string withLat = workload::toJsonl(out);
  EXPECT_NE(withLat.find("\"opLatency\":{"), std::string::npos) << withLat;
}

}  // namespace
}  // namespace hcsim
