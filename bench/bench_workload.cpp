// Workload-subsystem throughput: drive every registered generator
// through the generic WorkloadRunner on a mid-size config and report
// both the simulated outcome (ops, bytes, goodput) and the simulator's
// wall-clock throughput (completed ops simulated per wall second) — the
// number the check.sh perf gate floors against BENCH_workload.json.
//
//   bench_workload                        human-readable table
//   bench_workload --hcsim_json OUT      write machine-readable results
//   bench_workload --hcsim_compare REF   fail (exit 1) when any
//       [--hcsim_max_regress 0.30]       generator's wall ops/sec drops
//                                        below REF * (1 - tolerance)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "trace/chrome_trace.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "workload/workload_spec.hpp"

using namespace hcsim;

namespace {

struct GenResult {
  std::string generator;
  workload::WorkloadOutcome outcome;
  double wallSec = 0.0;
  double wallOpsPerSec() const {
    return wallSec > 0.0 ? static_cast<double>(outcome.opsCompleted) / wallSec : 0.0;
  }
};

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

GenResult runOne(const std::string& generator, const std::string& specText) {
  JsonValue doc;
  if (!parseJson(specText, doc)) {
    std::cerr << "bench_workload: internal spec for '" << generator << "' does not parse\n";
    std::exit(2);
  }
  workload::WorkloadRunSpec spec;
  std::vector<std::string> problems;
  workload::parseWorkloadSpec(doc, spec, problems);
  if (!problems.empty()) {
    std::cerr << "bench_workload: invalid spec for '" << generator << "':\n";
    for (const std::string& p : problems) std::cerr << "  - " << p << "\n";
    std::exit(2);
  }
  // Best-of-3: wall-clock rates on a shared machine are noisy; the
  // fastest repetition is the closest to the machine's true capability
  // (the same run simulates identical events every time).
  GenResult r;
  r.generator = generator;
  for (int rep = 0; rep < 3; ++rep) {
    workload::SourceBundle bundle = workload::makeSource(spec, problems);
    if (bundle.source == nullptr) {
      std::cerr << "bench_workload: cannot instantiate '" << generator << "'\n";
      std::exit(2);
    }
    Environment env = makeEnvironment(spec.site, spec.storage, bundle.nodes,
                                      spec.storageConfig.isNull() ? nullptr : &spec.storageConfig);
    const auto t0 = std::chrono::steady_clock::now();
    workload::WorkloadOutcome out = workload::runWorkload(env, spec, *bundle.source);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (rep == 0 || wall < r.wallSec) {
      r.outcome = std::move(out);
      r.wallSec = wall;
    }
  }
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
  if (!writeChromeTrace(log, path)) {
    std::cerr << "bench_workload: cannot write " << path << "\n";
    std::exit(2);
  }
  return path;
}

std::string readFileOrDie(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::cerr << "bench_workload: cannot read " << path << "\n";
    std::exit(2);
  }
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

int compareAgainst(const std::vector<GenResult>& results, const std::string& refPath,
                   double maxRegress) {
  JsonValue ref;
  if (!parseJson(readFileOrDie(refPath), ref)) {
    std::cerr << "bench_workload: " << refPath << " is not valid JSON\n";
    return 2;
  }
  const JsonValue* gens = ref.find("generators");
  if (gens == nullptr || !gens->isObject()) {
    std::cerr << "bench_workload: " << refPath << " has no \"generators\" object\n";
    return 2;
  }
  int failures = 0;
  for (const auto& [name, entry] : *gens->object()) {
    const JsonValue* rate = entry.find("wall_ops_per_sec");
    if (rate == nullptr || rate->number() == nullptr) continue;
    const auto r = std::find_if(results.begin(), results.end(),
                                [&](const GenResult& x) { return x.generator == name; });
    if (r == results.end()) {
      std::cerr << "PERF FAIL " << name << ": generator missing from current run\n";
      ++failures;
      continue;
    }
    const double floor = *rate->number() * (1.0 - maxRegress);
    if (r->wallOpsPerSec() < floor) {
      std::cerr << "PERF FAIL " << name << ": wall_ops_per_sec " << r->wallOpsPerSec()
                << " < floor " << floor << " (ref " << *rate->number() << ", tolerance "
                << maxRegress * 100.0 << "%)\n";
      ++failures;
    } else {
      std::cout << "perf ok " << name << ": wall_ops_per_sec " << r->wallOpsPerSec()
                << " vs ref " << *rate->number() << "\n";
    }
  }
  return failures == 0 ? 0 : 1;
}

void writeJsonOut(const std::vector<GenResult>& results, const std::string& path) {
  JsonObject gens;
  for (const GenResult& r : results) {
    JsonObject g;
    g["ops"] = static_cast<double>(r.outcome.opsCompleted);
    g["bytes"] = static_cast<double>(r.outcome.bytesMoved);
    g["sim_elapsed_sec"] = r.outcome.elapsed;
    g["goodput_gbs"] = r.outcome.goodputGBs();
    g["wall_ops_per_sec"] = r.wallOpsPerSec();
    gens[r.generator] = JsonValue(std::move(g));
  }
  JsonObject doc;
  doc["schema"] = std::string("hcsim-bench-workload-v1");
  doc["generators"] = JsonValue(std::move(gens));
  std::ofstream f(path, std::ios::trunc);
  f << writeJson(JsonValue(std::move(doc)), 2) << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string jsonOut;
  std::string compareRef;
  double maxRegress = 0.30;
  for (int i = 1; i < argc; ++i) {
    const auto takeValue = [&](const char* flag, std::string& dst) {
      if (std::strcmp(argv[i], flag) != 0) return false;
      if (i + 1 >= argc) {
        std::cerr << "bench_workload: " << flag << " needs a value\n";
        std::exit(2);
      }
      dst = argv[++i];
      return true;
    };
    std::string tol;
    if (takeValue("--hcsim_json", jsonOut)) {
    } else if (takeValue("--hcsim_compare", compareRef)) {
    } else if (takeValue("--hcsim_max_regress", tol)) {
      maxRegress = std::stod(tol);
    } else {
      std::cerr << "bench_workload: unknown argument " << argv[i] << "\n";
      return 2;
    }
  }

  const std::string tracePath = recordReplayInput();
  std::vector<GenResult> results;
  for (auto& [generator, specText] : benchSpecs()) {
    std::string text = specText;
    if (const auto pos = text.find("%TRACE%"); pos != std::string::npos) {
      text.replace(pos, 7, tracePath);
    }
    results.push_back(runOne(generator, text));
  }

  ResultTable t("workload generators on vast@lassen (WorkloadRunner)");
  t.setHeader({"generator", "ops", "GiB", "sim s", "goodput GB/s", "wall ms", "wall kops/s"});
  for (const GenResult& r : results) {
    char ops[32], gib[32], sim[32], gbs[32], wall[32], rate[32];
    std::snprintf(ops, sizeof ops, "%llu",
                  static_cast<unsigned long long>(r.outcome.opsCompleted));
    std::snprintf(gib, sizeof gib, "%.2f",
                  static_cast<double>(r.outcome.bytesMoved) / (1024.0 * 1024.0 * 1024.0));
    std::snprintf(sim, sizeof sim, "%.2f", r.outcome.elapsed);
    std::snprintf(gbs, sizeof gbs, "%.3f", r.outcome.goodputGBs());
    std::snprintf(wall, sizeof wall, "%.1f", r.wallSec * 1e3);
    std::snprintf(rate, sizeof rate, "%.1f", r.wallOpsPerSec() / 1e3);
    t.addRow({r.generator, ops, gib, sim, gbs, wall, rate});
  }
  std::printf("%s", t.toString().c_str());

  if (!jsonOut.empty()) writeJsonOut(results, jsonOut);
  if (!compareRef.empty()) return compareAgainst(results, compareRef, maxRegress);
  return 0;
}
