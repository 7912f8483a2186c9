#include "cli/args.hpp"
#include "cli/commands.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <tuple>

#include "config/serialize.hpp"
#include "sweep/trial_cache.hpp"

namespace hcsim {
namespace {

ArgParser parse(std::initializer_list<std::string> args) {
  return ArgParser(std::vector<std::string>(args));
}

/// A flag list over each kind of field read() handles.
struct TestFlags {
  std::string site;
  std::string name;
  bool fsync = false;
  std::size_t nodes = 0;
  double x = 0.0;
  std::size_t n = 0;
  double rate = 5.0;
  std::uint64_t seed = 1;
};
template <class IO>
void fields(IO& io, TestFlags& f) {
  io("--site", f.site);
  io("--name", f.name);
  io("--fsync", f.fsync);
  io("--nodes", f.nodes, kWhole);
  io("--x", f.x);
  io("--n", f.n, kWhole);
  io("--rate", f.rate);
  io("--seed", f.seed, kWhole);
}

TEST(ArgParser, SeparatesPositionalsAndOptions) {
  ArgParser a = parse({"ior", "--site", "wombat", "--fsync", "extra"});
  TestFlags f;
  ASSERT_EQ(a.read(f), "");
  // --fsync is a bool field, so it takes no value: "extra" is positional.
  ASSERT_EQ(a.positionals().size(), 2u);
  EXPECT_EQ(a.positionals()[0], "ior");
  EXPECT_EQ(a.positionals()[1], "extra");
  EXPECT_EQ(f.site, "wombat");
  EXPECT_TRUE(f.fsync);
  EXPECT_EQ(f.nodes, 0u);  // absent: the default stays
  EXPECT_FALSE(a.get("--missing"));
}

TEST(ArgParser, EqualsSyntax) {
  ArgParser a = parse({"--nodes=8", "--name=x=y"});
  TestFlags f;
  ASSERT_EQ(a.read(f), "");
  EXPECT_EQ(f.nodes, 8u);
  EXPECT_EQ(f.name, "x=y");
}

TEST(ArgParser, FlagFollowedByOptionIsBare) {
  ArgParser a = parse({"--fsync", "--nodes", "4"});
  TestFlags f;
  ASSERT_EQ(a.read(f), "");
  EXPECT_TRUE(f.fsync);
  EXPECT_EQ(*a.get("--fsync"), "");
  EXPECT_EQ(f.nodes, 4u);
}

TEST(ArgParser, NumericHelpers) {
  ArgParser a = parse({"--x", "2.5", "--n", "12"});
  TestFlags f;
  ASSERT_EQ(a.read(f), "");
  EXPECT_DOUBLE_EQ(f.x, 2.5);
  EXPECT_EQ(f.n, 12u);
  EXPECT_DOUBLE_EQ(f.rate, 5.0);  // absent: the default stays
  // A whole number past 2^53 reads exactly, up to 2^64.
  ArgParser big = parse({"--seed", "10000000000000000"});
  ASSERT_EQ(big.read(f), "");
  EXPECT_EQ(f.seed, 10000000000000000ull);
}

TEST(ArgParser, PositionalOrFallback) {
  const ArgParser a = parse({"only"});
  EXPECT_EQ(a.positionalOr(0, "x"), "only");
  EXPECT_EQ(a.positionalOr(5, "x"), "x");
}

TEST(ArgParser, UnknownOptionsDetected) {
  ArgParser a = parse({"--nodes", "1", "--typo", "2", "--good", "3"});
  TestFlags f;
  EXPECT_EQ(a.read(f), "--typo: unknown option");  // the first, in argv order
}

TEST(ArgParser, NonNumericValueOfANumericOptionIsAProblem) {
  ArgParser a = parse({"--x", "1e3", "--nodes", "four"});
  TestFlags f;
  EXPECT_EQ(a.read(f), "--nodes: must be a non-negative integer (got 'four')");
  ArgParser ok = parse({"--x", "1e3"});
  ASSERT_EQ(ok.read(f), "");
  EXPECT_DOUBLE_EQ(f.x, 1000.0);
  ArgParser b = parse({"--n", "-2"});
  EXPECT_EQ(b.read(f), "--n: must be a non-negative integer (got -2)");
  ArgParser c = parse({"--rate", "fast"});
  EXPECT_EQ(c.read(f), "--rate: must be a number (got 'fast')");
}

TEST(ArgParser, ArgcArgvConstructorSkipsProgramName) {
  const char* argv[] = {"hcsim", "help"};
  const ArgParser a(2, argv);
  EXPECT_EQ(a.positionalOr(0, ""), "help");
}

// ---- command dispatch ----

int runCli(std::initializer_list<std::string> args, std::string* outText = nullptr,
           std::string* errText = nullptr) {
  std::ostringstream out, err;
  const int rc = cli::run(parse(args), out, err);
  if (outText) *outText = out.str();
  if (errText) *errText = err.str();
  return rc;
}

TEST(Cli, HelpListsCommands) {
  std::string out;
  EXPECT_EQ(runCli({"help"}, &out), 0);
  for (const char* cmd : {"ior", "dlio", "mdtest", "plan", "takeaways", "dump-config"}) {
    EXPECT_NE(out.find(cmd), std::string::npos) << cmd;
  }
}

TEST(Cli, NoArgsShowsHelp) {
  std::string out;
  EXPECT_EQ(runCli({}, &out), 0);
  EXPECT_NE(out.find("usage"), std::string::npos);
  // --help after any command is the usage too, not an unread option.
  EXPECT_EQ(runCli({"ior", "--site", "lassen", "--help"}, &out), 0);
  EXPECT_NE(out.find("usage"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  std::string err;
  EXPECT_EQ(runCli({"frobnicate"}, nullptr, &err), 2);
  EXPECT_NE(err.find("unknown command"), std::string::npos);
}

TEST(Cli, IorRequiresValidTarget) {
  std::string err;
  EXPECT_EQ(runCli({"ior", "--site", "mars", "--storage", "vast"}, nullptr, &err), 2);
  EXPECT_NE(err.find("--site"), std::string::npos);
  EXPECT_EQ(runCli({"ior", "--site", "wombat", "--storage", "tape"}, nullptr, &err), 2);
}

TEST(Cli, IorRunsAndReportsBandwidth) {
  std::string out;
  const int rc = runCli({"ior", "--site", "wombat", "--storage", "vast", "--access",
                         "seq-write", "--nodes", "2", "--ppn", "8", "--segments", "64",
                         "--reps", "1"},
                        &out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("bandwidth:"), std::string::npos);
  EXPECT_NE(out.find("GB/s"), std::string::npos);
}

TEST(Cli, DlioRunsWorkloadPreset) {
  std::string out;
  const int rc = runCli({"dlio", "--site", "lassen", "--storage", "gpfs", "--workload",
                         "resnet50", "--nodes", "1", "--ppn", "2"},
                        &out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("non-overlapping I/O"), std::string::npos);
  std::string err;
  EXPECT_EQ(runCli({"dlio", "--site", "lassen", "--storage", "gpfs", "--workload", "bogus"},
                   nullptr, &err),
            2);
}

TEST(Cli, MdtestRuns) {
  std::string out;
  const int rc = runCli({"mdtest", "--site", "wombat", "--storage", "nvme", "--procs", "4",
                         "--items", "16", "--reps", "1"},
                        &out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("create:"), std::string::npos);
}

TEST(Cli, DumpConfigEmitsValidJson) {
  std::string out;
  EXPECT_EQ(runCli({"dump-config", "--site", "wombat", "--storage", "vast"}, &out), 0);
  JsonValue v;
  ASSERT_TRUE(parseJson(out.substr(0, out.find_last_not_of('\n') + 1), v));
  EXPECT_EQ(v.stringOr("name", ""), "VAST@Wombat");
  EXPECT_DOUBLE_EQ(v.numberOr("nconnect", 0), 16.0);
}

// The preset comes from the backend table, so dump-config rejects the
// site/storage pairs makeEnvironment rejects, with the same message.
TEST(Cli, DumpConfigFollowsSiteRules) {
  for (const auto& [site, storage, rule] :
       {std::tuple{"wombat", "gpfs", "only tests GPFS on Lassen"},
        std::tuple{"lassen", "nvme", "node-local NVMe is only on Wombat"}}) {
    std::string out, err, iorErr;
    EXPECT_NE(runCli({"dump-config", "--site", site, "--storage", storage}, &out, &err), 0);
    EXPECT_TRUE(out.empty()) << out;
    EXPECT_NE(err.find(rule), std::string::npos) << err;
    runCli({"ior", "--site", site, "--storage", storage}, nullptr, &iorErr);
    EXPECT_EQ(err, iorErr);
  }
}

// ---- chaos command ----

std::string writeTempSpec(const std::string& name, const std::string& text) {
  const std::string path = "/tmp/hcsim_cli_" + name + ".json";
  std::ofstream f(path, std::ios::trunc);
  f << text;
  return path;
}

TEST(Cli, ChaosRequiresSpecFile) {
  std::string err;
  EXPECT_EQ(runCli({"chaos"}, nullptr, &err), 2);
  EXPECT_NE(err.find("scenario file"), std::string::npos);
  EXPECT_EQ(runCli({"chaos", "/no/such/spec.json"}, nullptr, &err), 2);
  EXPECT_NE(err.find("cannot open"), std::string::npos);
}

TEST(Cli, ChaosRejectsMalformedSpec) {
  const std::string path = writeTempSpec("chaos_bad_json", "{not json");
  std::string err;
  EXPECT_EQ(runCli({"chaos", path}, nullptr, &err), 2);
  std::remove(path.c_str());
  EXPECT_NE(err.find("not valid JSON"), std::string::npos);
}

TEST(Cli, ChaosRejectsUnknownComponentWithActionableError) {
  const std::string path = writeTempSpec("chaos_bad_component", R"({
    "site": "lassen", "storage": "vast",
    "events": [{"atSec": 1, "action": "fail", "component": "oss"}]})");
  std::string err;
  EXPECT_EQ(runCli({"chaos", path}, nullptr, &err), 2);
  std::remove(path.c_str());
  EXPECT_NE(err.find("unknown component 'oss'"), std::string::npos);
  EXPECT_NE(err.find("supported:"), std::string::npos);
}

TEST(Cli, ChaosRejectsOutOfOrderAndOverlappingEvents) {
  const std::string path = writeTempSpec("chaos_bad_schedule", R"({
    "site": "lassen", "storage": "vast",
    "events": [
      {"atSec": 10, "action": "fail", "component": "cnode", "index": 0},
      {"atSec": 5, "action": "fail", "component": "cnode", "index": 0}]})");
  std::string err;
  EXPECT_EQ(runCli({"chaos", path}, nullptr, &err), 2);
  std::remove(path.c_str());
  // Both problems are reported at once, each naming its event index.
  EXPECT_NE(err.find("goes backwards"), std::string::npos);
  EXPECT_NE(err.find("already failed"), std::string::npos);
  EXPECT_NE(err.find("events[1]"), std::string::npos);
}

TEST(Cli, ChaosRunsScenarioAndWritesTimeline) {
  const std::string path = writeTempSpec("chaos_ok", R"({
    "name": "cli-drill", "site": "lassen", "storage": "vast",
    "storageConfig": {"cnodes": 4},
    "workload": {"nodes": 4, "procsPerNode": 8, "requestBytes": 8388608},
    "horizonSec": 12, "intervalSec": 2,
    "events": [
      {"atSec": 4, "action": "fail", "component": "cnode", "index": 0},
      {"atSec": 8, "action": "restore", "component": "cnode", "index": 0}]})");
  const std::string outPath = "/tmp/hcsim_cli_chaos_out.jsonl";
  std::string out;
  const int rc = runCli({"chaos", path, "--out", outPath}, &out);
  std::remove(path.c_str());
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("cli-drill"), std::string::npos);
  EXPECT_NE(out.find("DEGRADED"), std::string::npos);
  EXPECT_NE(out.find("healthy"), std::string::npos);

  std::ifstream written(outPath);
  ASSERT_TRUE(written.good());
  std::string firstLine;
  std::getline(written, firstLine);
  std::remove(outPath.c_str());
  EXPECT_NE(firstLine.find("\"scenario\""), std::string::npos);
}

TEST(Cli, ChaosTelemetryPrintsGaugesWithoutChangingResults) {
  const std::string path = writeTempSpec("chaos_telemetry", R"({
    "name": "cli-telemetry", "site": "lassen", "storage": "vast",
    "workload": {"nodes": 2, "procsPerNode": 4, "requestBytes": 8388608},
    "horizonSec": 6, "intervalSec": 2,
    "events": [
      {"atSec": 2, "action": "fail", "component": "cnode", "index": 0},
      {"atSec": 4, "action": "restore", "component": "cnode", "index": 0}]})");
  const std::string plainPath = "/tmp/hcsim_cli_chaos_plain.jsonl";
  const std::string telPath = "/tmp/hcsim_cli_chaos_tel.jsonl";
  std::string plainOut, telOut;
  EXPECT_EQ(runCli({"chaos", path, "--out", plainPath}, &plainOut), 0);
  EXPECT_EQ(runCli({"chaos", path, "--out", telPath, "--telemetry"}, &telOut), 0);
  std::remove(path.c_str());
  EXPECT_EQ(plainOut.find("chaos.degraded_sec"), std::string::npos);
  EXPECT_NE(telOut.find("chaos.degraded_sec"), std::string::npos) << telOut;
  const auto slurp = [](const std::string& p) {
    std::ifstream f(p, std::ios::binary);
    std::stringstream ss;
    ss << f.rdbuf();
    std::remove(p.c_str());
    return ss.str();
  };
  const std::string plain = slurp(plainPath);
  EXPECT_FALSE(plain.empty());
  EXPECT_EQ(plain, slurp(telPath));
}

// Nonsense header and drill values fail at parse time with one
// actionable line and exit 2, in both spec dialects.
TEST(Cli, NonsenseSpecValuesExitTwoWithOneLine) {
  const std::string ior = R"("workload": {"generator": "ior", "nodes": 1, "procsPerNode": 2,
                                          "segments": 4})";
  const std::string badEvent =
      R"("events": [{"atSec": 1, "action": "fail", "component": "cnode", "index": -1}])";
  struct Case {
    const char* command;
    std::string spec;
    const char* problem;
  };
  const Case cases[] = {
      {"chaos", R"({"workload": {"nodes": -3}})", "workload.nodes: must be a positive integer"},
      {"chaos", R"({"workload": {"requestBytes": -5}})", "workload.requestBytes: must be > 0"},
      {"chaos", R"({"retry": {"timeoutSec": -1}})", "retry.timeoutSec: must be > 0"},
      {"chaos", R"({"retry": {"maxRetries": -1}})", "retry.maxRetries: must be a non-negative"},
      {"chaos", R"({"retry": {"backoffBaseSec": -0.5}})", "retry.backoffBaseSec: must be >= 0"},
      {"chaos", R"({"retry": {"backoffMultiplier": 0.5}})", "retry.backoffMultiplier: must be >= 1"},
      {"chaos", "{" + badEvent + "}",
       "events[0].index: must be a non-negative integer (got -1)"},
      {"workload", "{" + ior + R"(, "retry": {"timeoutSec": -1}})", "retry.timeoutSec: must be > 0"},
      {"workload", "{" + ior + R"(, "retry": {"maxRetries": -1}})",
       "retry.maxRetries: must be a non-negative"},
      {"workload", "{" + ior + R"(, "chaos": {)" + badEvent + "}}",
       "events[0].index: must be a non-negative integer (got -1)"},
      // Config sections go through the one strict field reader.
      {"workload", R"({"workload": {"generator": "ior", "access": "seq-reed"}})",
       "workload.access: must be seq-read|seq-write|rand-read|rand-write (got 'seq-reed')"},
      {"workload", "{" + ior + R"(, "storageConfig": {"cnodez": 4}})",
       "storageConfig.cnodez: unknown key"},
      {"workload", R"({"workload": {"generator": "ior", "nodes": -3}})",
       "workload.nodes: must be a positive integer (got -3)"},
      // The ior generator simulates one noiseless run: keys it would
      // ignore are errors, not a run that prints the same number.
      {"workload", "{" + ior.substr(0, ior.size() - 1) + R"(, "repetitions": 7}})",
       "workload.repetitions: the ior generator runs IOR once, without noise; repeat it with "
       "a sweep's \"ior\" experiment (got 7)"},
      {"workload", "{" + ior.substr(0, ior.size() - 1) + R"(, "noiseStdDevFrac": 0.5}})",
       "workload.noiseStdDevFrac: the ior generator runs IOR once"},
      {"chaos", R"({"transport": {"lanez": 2}})", "transport.lanez: unknown key"},
      // The scenario's own top-level keys are a field list too.
      {"chaos", R"({"horizonSec": "4"})", "horizonSec: must be a number (got '4')"},
      {"chaos", R"({"horizonn": 4})", "horizonn: unknown key"},
      // The retry object, the drill workload and the generator sections
      // go through their field lists too.
      {"chaos", R"({"retry": {"timeoutSek": 5}})", "retry.timeoutSek: unknown key"},
      {"chaos", R"({"workload": {"requestBytez": 5}})", "workload.requestBytez: unknown key"},
      {"workload", R"({"workload": {"generator": "io500", "scael": 2}})",
       "workload.scael: unknown key"},
      {"workload", R"({"workload": {"generator": "openloop", "ratePerClinetHz": 5}})",
       "workload.ratePerClinetHz: unknown key"},
      {"workload", R"({"workload": {"generator": "openloop", "horizonSec": "1"}})",
       "workload.horizonSec: must be a number (got '1')"},
      {"workload",
       R"({"workload": {"generator": "grammar", "fileBytez": 4096,
                        "rules": {"main": [{"op": "read", "bytes": 4096}]}}})",
       "workload.fileBytez: unknown key"},
      // Nesting past the JSON parser's depth limit is malformed JSON,
      // not a stack overflow.
      {"workload", std::string(200000, '['), "is not valid JSON"},
  };
  for (const Case& c : cases) {
    const std::string path = writeTempSpec("nonsense", c.spec);
    std::string err;
    EXPECT_EQ(runCli({c.command, path}, nullptr, &err), 2) << c.spec;
    std::remove(path.c_str());
    EXPECT_NE(err.find(c.problem), std::string::npos) << c.spec << "\n" << err;
    const std::size_t lines = static_cast<std::size_t>(std::count(err.begin(), err.end(), '\n'));
    EXPECT_LE(lines, 2u) << err;  // "error: <spec>:" plus at most one problem line
  }
}

// Each flag of `hcsim scale` sets a key of the open-loop section and is
// checked against that key's range before anything runs, naming the
// flag.
TEST(Cli, ScaleFlagsOutsideTheirRangeExitTwoNamingTheKey) {
  struct Case {
    const char* flag;
    const char* value;
    const char* problem;
  };
  const Case cases[] = {
      {"--request", "0", "--request: must be > 0 (got 0)"},
      {"--classes-per-node", "0", "--classes-per-node: must be a positive integer (got 0)"},
      {"--read-fraction", "2", "--read-fraction: must be in [0, 1] (got 2)"},
      {"--demand-sigma", "-1", "--demand-sigma: must be >= 0 (got -1)"},
      {"--objects", "0", "--objects: must be a positive integer (got 0)"},
      {"--classes", "0", "--classes: must be a positive integer (got 0)"},
      {"--rate", "0", "--rate: must be > 0 (got 0)"},
  };
  for (const Case& c : cases) {
    std::string out, err;
    EXPECT_EQ(runCli({"scale", c.flag, c.value}, &out, &err), 2) << c.flag;
    EXPECT_EQ(err, std::string("error: ") + c.problem + "\n");
    EXPECT_EQ(out, "");
  }
}

TEST(Cli, HelpMentionsChaos) {
  std::string out;
  EXPECT_EQ(runCli({"help"}, &out), 0);
  EXPECT_NE(out.find("chaos"), std::string::npos);
}

TEST(Cli, ConfigFileWithUnknownKeyExitsTwoNamingIt) {
  const std::string path = writeTempSpec("ior_typo", R"({"segmentz": 4})");
  std::string err;
  EXPECT_EQ(runCli({"ior", "--site", "wombat", "--storage", "vast", "--config", path}, nullptr,
                   &err),
            2);
  std::remove(path.c_str());
  EXPECT_NE(err.find(path + ": segmentz: unknown key"), std::string::npos) << err;
}

TEST(Cli, StaleTrialCacheFailsLoudly) {
  // A record in the flat format older builds wrote: its hash is valid,
  // but its metrics lack the JSONL "bytes" column.
  std::ostringstream fnv;
  fnv << std::hex << sweep::fnv1a64("ior");
  const std::string cachePath = writeTempSpec(
      "stale_cache", R"({"fnv":")" + fnv.str() +
                         R"(","key":"ior","metrics":{"bytesMoved":1,"elapsedSec":1,)"
                         R"("maxGBs":1,"meanGBs":1,"minGBs":1,"ok":true}})"
                         "\n");
  const std::string specPath = writeTempSpec("stale_cache_spec", R"({"experiment": "ior",
    "base": {"site": "wombat", "storage": "vast", "ior": {"segments": 4}},
    "axes": [{"path": "ior.nodes", "values": [1]}]})");
  std::string err;
  EXPECT_EQ(runCli({"sweep", "--spec", specPath, "--cache", cachePath}, nullptr, &err), 2);
  std::remove(cachePath.c_str());
  std::remove(specPath.c_str());
  EXPECT_NE(err.find("malformed (delete it to rebuild)"), std::string::npos) << err;
}

// An option a command does not read, or a number that does not parse,
// exits 2 with one line naming the option, before anything runs.
TEST(Cli, UnknownOrMalformedOptionExitsTwoBeforeRunning) {
  const std::string spec = writeTempSpec("strict_flags_spec", R"({"experiment": "ior",
    "base": {"site": "wombat", "storage": "vast", "ior": {"segments": 4}},
    "axes": [{"path": "ior.nodes", "values": [1]}]})");
  const struct {
    std::vector<std::string> argv;
    const char* problem;
  } cases[] = {
      {{"ior", "--site", "lassen", "--storage", "vast", "--acess", "seq-read"},
       "--acess: unknown option"},
      {{"ior", "--site", "lassen", "--storage", "vast", "--access", "seq-write", "--nodez", "9"},
       "--nodez: unknown option"},
      {{"ior", "--site", "lassen", "--storage", "vast", "--access", "seq-write", "--nodes",
        "four"},
       "--nodes: must be a positive integer (got 'four')"},
      // A zero count names the flag here, not the config field in validate().
      {{"ior", "--site", "lassen", "--storage", "vast", "--nodes", "0"},
       "--nodes: must be a positive integer (got 0)"},
      {{"ior", "--site", "lassen", "--storage", "vast", "--ppn", "0"},
       "--ppn: must be a positive integer (got 0)"},
      {{"ior", "--site", "lassen", "--storage", "vast", "--segments", "0"},
       "--segments: must be a positive integer (got 0)"},
      {{"ior", "--site", "lassen", "--storage", "vast", "--reps", "0"},
       "--reps: must be a positive integer (got 0)"},
      {{"dlio", "--site", "lassen", "--storage", "vast", "--nodes", "0"},
       "--nodes: must be a positive integer (got 0)"},
      {{"mdtest", "--site", "lassen", "--storage", "vast", "--procs", "0"},
       "--procs: must be a positive integer (got 0)"},
      {{"plan", "--nodes", "0"}, "--nodes: must be a positive integer (got 0)"},
      {{"trace", "--site", "lassen", "--storage", "vast", "--nodes", "0", "--out",
        "/tmp/hcsim_cli_unused_trace.json"},
       "--nodes: must be a positive integer (got 0)"},
      {{"stats", "--site", "lassen", "--storage", "vast", "--nodes", "0"},
       "--nodes: must be a positive integer (got 0)"},
      {{"oracle", "check", "--dir", HCSIM_PAPER_DIR, "--tolerence", "0"},
       "--tolerence: unknown option"},
      {{"scale", "--sed", "5"}, "--sed: unknown option"},
      {{"scale", "--rate", "fast"}, "--rate: must be a number (got 'fast')"},
      {{"sweep", "--spec", spec, "--jobz", "1"}, "--jobz: unknown option"},
      {{"takeaways", "--jobs", "2"}, "--jobs: unknown option"},
      {{"trace", "--site", "lassen", "--storage", "vast", "--workload", "resnet50", "--segments",
        "8", "--out", "/tmp/hcsim_cli_unused_trace.json"},
       "--segments: unknown option"},
      {{"dump-config", "--site", "lassen", "--storage", "vast", "--json"},
       "--json: unknown option"},
      // A number outside the flag's range names the flag, before it runs
      // on nonsense or reaches the config's validate().
      {{"oracle", "relations", "--cases", "0"}, "--cases: must be a positive integer (got 0)"},
      {{"oracle", "relations", "--seed", "-1"},
       "--seed: must be a non-negative integer (got -1)"},
      {{"oracle", "check", "--dir", HCSIM_PAPER_DIR, "--tolerance", "-1"},
       "--tolerance: must be >= 0 (got -1)"},
      {{"plan", "--min-gbs", "-1"}, "--min-gbs: must be > 0 (got -1)"},
      {{"ior", "--site", "lassen", "--storage", "vast", "--noise", "-1"},
       "--noise: must be >= 0 (got -1)"},
      {{"ior", "--site", "lassen", "--storage", "vast", "--stonewall", "-2"},
       "--stonewall: must be >= 0 (got -2)"},
      {{"mdtest", "--site", "lassen", "--storage", "vast", "--noise", "-1"},
       "--noise: must be >= 0 (got -1)"},
      // Every command and oracle subcommand: an unknown flag, and a
      // non-number for a numeric flag. takeaways and oracle list read
      // only --dir; chaos, workload and probe get a bad bare-flag value
      // instead.
      {{"dlio", "--site", "lassen", "--storage", "vast", "--acess", "seq-read"},
       "--acess: unknown option"},
      {{"dlio", "--site", "lassen", "--storage", "vast", "--ppn", "four"},
       "--ppn: must be a positive integer (got 'four')"},
      {{"mdtest", "--site", "lassen", "--storage", "vast", "--item", "4"}, "--item: unknown option"},
      {{"mdtest", "--site", "lassen", "--storage", "vast", "--items", "many"},
       "--items: must be a positive integer (got 'many')"},
      {{"plan", "--machin", "lassen"}, "--machin: unknown option"},
      {{"plan", "--min-gbs", "lots"}, "--min-gbs: must be a number (got 'lots')"},
      {{"sweep", "--spec", spec, "--jobs", "all"},
       "--jobs: must be a non-negative integer (got 'all')"},
      {{"chaos", spec, "--outt", "x.jsonl"}, "--outt: unknown option"},
      {{"chaos", spec, "--telemetry=yes"}, "--telemetry: must be true or false (got 'yes')"},
      {{"workload", spec, "--csvv", "x.csv"}, "--csvv: unknown option"},
      {{"workload", spec, "--telemetry=yes"}, "--telemetry: must be true or false (got 'yes')"},
      {{"probe", spec, "--dump", "x"}, "--dump: unknown option"},
      {{"probe", spec, "--telemetry=yes"}, "--telemetry: must be true or false (got 'yes')"},
      {{"scale", "--classes", "many"}, "--classes: must be a positive integer (got 'many')"},
      {{"oracle", "list", "--jobs", "2"}, "--jobs: unknown option"},
      {{"oracle", "relations", "--case", "3"}, "--case: unknown option"},
      {{"oracle", "relations", "--cases", "many"},
       "--cases: must be a positive integer (got 'many')"},
      {{"oracle", "record", "--tolerance", "1"}, "--tolerance: unknown option"},
      {{"oracle", "record", "--jobs", "two"}, "--jobs: must be a non-negative integer (got 'two')"},
      {{"oracle", "check", "--dir", HCSIM_PAPER_DIR, "--tolerance", "lots"},
       "--tolerance: must be a number (got 'lots')"},
      {{"trace", "--site", "lassen", "--storage", "vast", "--intern"}, "--intern: unknown option"},
      {{"trace", "--site", "lassen", "--storage", "vast", "--ppn", "x"},
       "--ppn: must be a positive integer (got 'x')"},
      {{"stats", "--site", "lassen", "--storage", "vast", "--jsn"}, "--jsn: unknown option"},
      {{"stats", "--site", "lassen", "--storage", "vast", "--workload", "unet3d", "--nodes", "x"},
       "--nodes: must be a positive integer (got 'x')"},
      {{"dump-config", "--site", "lassen", "--storage", "vast", "--nodes", "2"},
       "--nodes: unknown option"},
      {{"dump-config", "--site", "lassen", "--storage", "vast=yes"},
       "--storage: must be vast|gpfs|lustre|nvme|daos (got 'vast=yes')"},
      // A whole number the flag's range holds, but a volume past 64 bits:
      // IorConfig::validate() names segments before anything runs.
      {{"ior", "--site", "wombat", "--storage", "vast", "--segments", "1e15"},
       "IorConfig.segments: must keep segments x blockSize x procs below 2^64 bytes (got "
       "1000000000000000)"},
      {{"ior", "--site", "wombat", "--storage", "vast", "--segments", "100000000000000",
        "--nodes", "4", "--ppn", "16", "--reps", "1"},
       "IorConfig.segments: must keep segments x blockSize x procs below 2^64 bytes (got "
       "100000000000000)"},
  };
  for (const auto& c : cases) {
    std::ostringstream out, err;
    EXPECT_EQ(cli::run(ArgParser(c.argv), out, err), 2) << c.argv[0] << " " << c.problem;
    EXPECT_EQ(err.str(), std::string("error: ") + c.problem + "\n");
    EXPECT_EQ(out.str(), "") << "nothing may run before the options are checked";
  }
  std::remove(spec.c_str());
}

TEST(Cli, IorLoadsConfigFile) {
  const std::string path = "/tmp/hcsim_cli_ior.json";
  IorConfig cfg = IorConfig::scalability(AccessPattern::SequentialRead, 2, 4);
  cfg.segments = 32;
  cfg.repetitions = 1;
  ASSERT_TRUE(saveConfig(cfg, path));
  std::string out;
  const int rc = runCli(
      {"ior", "--site", "wombat", "--storage", "vast", "--config", path}, &out);
  std::remove(path.c_str());
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("seq-read"), std::string::npos);
}

}  // namespace
}  // namespace hcsim
