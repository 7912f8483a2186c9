// Workload-subsystem throughput: drive every registered generator
// through the generic WorkloadRunner on a mid-size config. Prints the
// simulated outcome (ops, bytes, goodput), then the completed ops
// simulated per wall second of the runner that the perf gate
// (perf_harness.hpp) judges against BENCH_workload.json as a ratio to
// the calibration kernel.
//
//   bench_workload [--hcsim_json OUT] [--hcsim_compare REF]
//                  [--hcsim_max_regress 0.30]

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "perf_harness.hpp"
#include "trace/chrome_trace.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "workload/workload_spec.hpp"

using namespace hcsim;

namespace {

/// The six registered generators on mid-size configs. The replay spec
/// needs a trace on disk, so %TRACE% is substituted with a file this
/// bench records first (a grammar run exported as chrome-trace JSON).
std::vector<std::pair<std::string, std::string>> benchSpecs() {
  return {
      {"ior", R"({"site":"lassen","storage":"vast","workload":{
        "generator":"ior","nodes":2,"procsPerNode":8,"segments":64,
        "blockSize":16777216,"transferSize":1048576,"mode":"per-op",
        "seed":21}})"},
      {"dlio", R"({"site":"lassen","storage":"vast","workload":{
        "generator":"dlio","nodes":2,"procsPerNode":4,"workload":{
          "name":"resnet-small","samples":256,"sampleSize":153600,
          "transferSize":153600,"ioThreads":4,"computeTimePerBatch":0.01}}})"},
      {"replay", R"({"site":"lassen","storage":"vast","workload":{
        "generator":"replay","trace":"%TRACE%","pidsPerNode":4}})"},
      {"io500", R"({"site":"lassen","storage":"vast","workload":{
        "generator":"io500","nodes":2,"procsPerNode":8,"scale":2,
        "easyOpsMedian":32,"hardOpsMedian":128,"seed":10500}})"},
      {"grammar", R"({"site":"lassen","storage":"vast","workload":{
        "generator":"grammar","nodes":2,"procsPerNode":8,"seed":7,
        "fileBytes":268435456,"rules":{
          "main":[{"rule":"epoch","repeat":4},{"op":"sync"}],
          "epoch":[{"op":"open"},"burst",{"compute":0.02},"drain",{"barrier":true}],
          "burst":[{"op":"write","bytes":4194304,"count":16,"pattern":"seq"}],
          "drain":[{"op":"read","bytes":1048576,"count":16,"pattern":"random"}]}}})"},
      {"openloop", R"({"site":"lassen","storage":"vast","workload":{
        "generator":"openloop","clients":32,"clientsPerNode":8,
        "ratePerClientHz":50,"horizonSec":10,"objects":1024,"zipfTheta":0.99,
        "objectBytes":4194304,"requestBytes":131072,"seed":1007}})"},
  };
}

struct Run {
  workload::WorkloadOutcome outcome;
  double seconds = 0.0;  ///< the runner alone, not the environment build
};

Run runOnce(const workload::WorkloadRunSpec& spec) {
  std::vector<std::string> problems;
  workload::SourceBundle bundle = workload::makeSource(spec, problems);
  if (bundle.source == nullptr) perf::usageError("bench_workload", "cannot instantiate a source");
  Environment env = makeEnvironment(spec.site, spec.storage, bundle.nodes,
                                    spec.storageConfig.isNull() ? nullptr : &spec.storageConfig);
  const perf::Stopwatch sw;
  Run r;
  r.outcome = workload::runWorkload(env, spec, *bundle.source);
  r.seconds = sw.seconds();
  return r;
}

/// Record a small grammar run as the chrome trace the replay spec eats.
std::string recordReplayInput() {
  const std::string path = "/tmp/hcsim-bench-workload-trace.json";
  JsonValue doc;
  parseJson(R"({"site":"lassen","storage":"vast","workload":{
    "generator":"grammar","nodes":2,"procsPerNode":4,"seed":3,
    "fileBytes":134217728,"rules":{"main":[
      {"op":"write","bytes":4194304,"count":32,"pattern":"seq"},
      {"compute":0.02},
      {"op":"read","bytes":1048576,"count":32,"pattern":"random"}]}}})",
            doc);
  workload::WorkloadRunSpec spec;
  std::vector<std::string> problems;
  workload::parseWorkloadSpec(doc, spec, problems);
  workload::SourceBundle bundle = workload::makeSource(spec, problems);
  Environment env = makeEnvironment(spec.site, spec.storage, bundle.nodes, nullptr);
  TraceLog log;
  workload::runWorkload(env, spec, *bundle.source, &log);
  if (!writeChromeTrace(log, path)) perf::usageError("bench_workload", "cannot write " + path);
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  const perf::Options opt = perf::parseFlags("bench_workload", argc, argv);

  const std::string tracePath = recordReplayInput();
  ResultTable t("workload generators on vast@lassen (WorkloadRunner)");
  t.setHeader({"generator", "ops", "GiB", "sim s", "goodput GB/s"});
  std::vector<perf::Scenario> scenarios;
  for (auto [generator, text] : benchSpecs()) {
    if (const auto pos = text.find("%TRACE%"); pos != std::string::npos) {
      text.replace(pos, 7, tracePath);
    }
    JsonValue doc;
    workload::WorkloadRunSpec spec;
    std::vector<std::string> problems;
    if (!parseJson(text, doc)) problems.push_back("does not parse");
    workload::parseWorkloadSpec(doc, spec, problems);
    if (!problems.empty()) {
      perf::usageError(opt.bench, "invalid spec for '" + generator + "': " + problems.front());
    }
    const Run first = runOnce(spec);
    char ops[32], gib[32], sim[32], gbs[32];
    std::snprintf(ops, sizeof ops, "%llu",
                  static_cast<unsigned long long>(first.outcome.opsCompleted));
    std::snprintf(gib, sizeof gib, "%.2f",
                  static_cast<double>(first.outcome.bytesMoved) / (1024.0 * 1024.0 * 1024.0));
    std::snprintf(sim, sizeof sim, "%.2f", first.outcome.elapsed);
    std::snprintf(gbs, sizeof gbs, "%.3f", first.outcome.goodputGBs());
    t.addRow({generator, ops, gib, sim, gbs});
    scenarios.push_back({generator, static_cast<double>(first.outcome.opsCompleted),
                         [spec] { return runOnce(spec).seconds; }});
  }
  std::printf("%s", t.toString().c_str());
  return perf::finish(opt, perf::runRounds(scenarios));
}
