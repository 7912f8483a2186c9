// Transport-subsystem throughput: drive IOR trials through the DAOS
// backend — the model that routes every byte through hcsim::transport —
// across the endpoint classes the subsystem models (single-stream TCP,
// nconnect-8 TCP, RDMA, and an RDMA incast that stresses the send-queue
// and doorbell paths), and report both the simulated goodput and the
// wall-clock rate of transport postings (ops posted per wall second) —
// the number the check.sh perf gate floors against BENCH_transport.json.
//
//   bench_transport                       human-readable table
//   bench_transport --hcsim_json OUT      write machine-readable results
//   bench_transport --hcsim_compare REF   fail (exit 1) when any
//       [--hcsim_max_regress 0.30]        scenario's wall ops/sec drops
//                                         below REF * (1 - tolerance)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sweep/sweep_runner.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

using namespace hcsim;

namespace {

struct ScenarioResult {
  std::string scenario;
  sweep::TrialMetrics metrics;
  double wallSec = 0.0;
  double wallOpsPerSec() const {
    return wallSec > 0.0 ? metrics.transportOps / wallSec : 0.0;
  }
};

/// The endpoint classes the transport layer distinguishes, all on the
/// DAOS pool (whose 48 GB/s of targets leave the endpoint binding).
std::vector<std::pair<std::string, std::string>> benchSpecs() {
  return {
      {"tcp-single", R"({"site":"lassen","storage":"daos",
        "ior":{"access":"seq-read","nodes":2,"procsPerNode":8,
               "segments":4000,"repetitions":1},
        "transport":{"kind":"tcp"}})"},
      {"tcp-nconnect8", R"({"site":"lassen","storage":"daos",
        "ior":{"access":"seq-read","nodes":2,"procsPerNode":8,
               "segments":4000,"repetitions":1},
        "transport":{"kind":"tcp","lanes":8}})"},
      {"rdma", R"({"site":"lassen","storage":"daos",
        "ior":{"access":"seq-read","nodes":2,"procsPerNode":8,
               "segments":4000,"repetitions":1},
        "transport":{"kind":"rdma"}})"},
      {"rdma-incast", R"({"site":"lassen","storage":"daos",
        "ior":{"access":"seq-write","nodes":4,"procsPerNode":16,
               "segments":400,"repetitions":1},
        "transport":{"kind":"rdma"}})"},
  };
}

ScenarioResult runOne(const std::string& scenario, const std::string& specText) {
  JsonValue cfg;
  if (!parseJson(specText, cfg)) {
    std::cerr << "bench_transport: internal spec for '" << scenario << "' does not parse\n";
    std::exit(2);
  }
  // Each measurement amortizes INNER identical trials (flow-class
  // aggregation makes a single trial finish in well under a millisecond,
  // too short for a stable rate), and best-of-3 keeps the fastest
  // measurement — the closest to the machine's true capability (the same
  // trial simulates identical events every time).
  constexpr int kInner = 10;
  ScenarioResult r;
  r.scenario = scenario;
  for (int rep = 0; rep < 3; ++rep) {
    sweep::TrialMetrics m;
    const auto t0 = std::chrono::steady_clock::now();
    for (int inner = 0; inner < kInner; ++inner) m = sweep::runTrial("ior", cfg);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count() / kInner;
    if (!m.ok) {
      std::cerr << "bench_transport: '" << scenario << "' failed: " << m.error << "\n";
      std::exit(2);
    }
    if (!m.hasTransport || m.transportOps <= 0.0) {
      std::cerr << "bench_transport: '" << scenario << "' posted nothing on the fabric\n";
      std::exit(2);
    }
    if (rep == 0 || wall < r.wallSec) {
      r.metrics = std::move(m);
      r.wallSec = wall;
    }
  }
  return r;
}

std::string readFileOrDie(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::cerr << "bench_transport: cannot read " << path << "\n";
    std::exit(2);
  }
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

int compareAgainst(const std::vector<ScenarioResult>& results, const std::string& refPath,
                   double maxRegress) {
  JsonValue ref;
  if (!parseJson(readFileOrDie(refPath), ref)) {
    std::cerr << "bench_transport: " << refPath << " is not valid JSON\n";
    return 2;
  }
  const JsonValue* scens = ref.find("scenarios");
  if (scens == nullptr || !scens->isObject()) {
    std::cerr << "bench_transport: " << refPath << " has no \"scenarios\" object\n";
    return 2;
  }
  int failures = 0;
  for (const auto& [name, entry] : *scens->object()) {
    const JsonValue* rate = entry.find("wall_ops_per_sec");
    if (rate == nullptr || rate->number() == nullptr) continue;
    const auto r = std::find_if(results.begin(), results.end(),
                                [&](const ScenarioResult& x) { return x.scenario == name; });
    if (r == results.end()) {
      std::cerr << "PERF FAIL " << name << ": scenario missing from current run\n";
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

void writeJsonOut(const std::vector<ScenarioResult>& results, const std::string& path) {
  JsonObject scens;
  for (const ScenarioResult& r : results) {
    JsonObject s;
    s["transport_ops"] = r.metrics.transportOps;
    s["transport_bytes"] = r.metrics.transportBytes;
    s["sim_elapsed_sec"] = r.metrics.elapsedSec;
    s["goodput_gbs"] = r.metrics.meanGBs;
    s["wall_ops_per_sec"] = r.wallOpsPerSec();
    scens[r.scenario] = JsonValue(std::move(s));
  }
  JsonObject doc;
  doc["schema"] = std::string("hcsim-bench-transport-v1");
  doc["scenarios"] = JsonValue(std::move(scens));
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
        std::cerr << "bench_transport: " << flag << " needs a value\n";
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
      std::cerr << "bench_transport: unknown argument " << argv[i] << "\n";
      return 2;
    }
  }

  std::vector<ScenarioResult> results;
  for (auto& [scenario, specText] : benchSpecs()) {
    results.push_back(runOne(scenario, specText));
  }

  ResultTable t("transport endpoint classes on daos@lassen (IOR trials)");
  t.setHeader({"scenario", "posted ops", "GiB", "sim s", "goodput GB/s", "wall ms",
               "wall kops/s"});
  for (const ScenarioResult& r : results) {
    char ops[32], gib[32], sim[32], gbs[32], wall[32], rate[32];
    std::snprintf(ops, sizeof ops, "%.0f", r.metrics.transportOps);
    std::snprintf(gib, sizeof gib, "%.2f",
                  r.metrics.transportBytes / (1024.0 * 1024.0 * 1024.0));
    std::snprintf(sim, sizeof sim, "%.2f", r.metrics.elapsedSec);
    std::snprintf(gbs, sizeof gbs, "%.3f", r.metrics.meanGBs);
    std::snprintf(wall, sizeof wall, "%.1f", r.wallSec * 1e3);
    std::snprintf(rate, sizeof rate, "%.1f", r.wallOpsPerSec() / 1e3);
    t.addRow({r.scenario, ops, gib, sim, gbs, wall, rate});
  }
  std::printf("%s", t.toString().c_str());

  if (!jsonOut.empty()) writeJsonOut(results, jsonOut);
  if (!compareRef.empty()) return compareAgainst(results, compareRef, maxRegress);
  return 0;
}
