// Flow-class aggregation throughput: the same open-loop scenario at
// widening members-per-class, pinning the property the scale subsystem
// exists for — wall cost and event footprint track the CLASS count
// while the CLIENT count grows by orders of magnitude. Reports class
// ops simulated per wall second (the number the check.sh perf gate
// floors against BENCH_scale.json) plus the engine's peak pending
// events as flat-memory evidence.
//
//   bench_scale                        human-readable table
//   bench_scale --hcsim_json OUT      write machine-readable results
//   bench_scale --hcsim_compare REF   fail (exit 1) when any scenario's
//       [--hcsim_max_regress 0.30]    wall class-ops/sec drops below
//                                     REF * (1 - tolerance)

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "workload/openloop_source.hpp"
#include "workload/workload_runner.hpp"

using namespace hcsim;

namespace {

struct Scenario {
  std::string name;
  std::size_t classes = 0;
  std::size_t membersPerClass = 0;
};

struct ScaleResult {
  Scenario scenario;
  workload::WorkloadOutcome outcome;
  std::size_t peakPending = 0;
  double wallSec = 0.0;

  std::uint64_t classOps() const {
    return outcome.clientsPerRank > 0 ? outcome.opsCompleted / outcome.clientsPerRank : 0;
  }
  double wallClassOpsPerSec() const {
    return wallSec > 0.0 ? static_cast<double>(classOps()) / wallSec : 0.0;
  }
};

/// Same class count, members spanning 1 -> ~1M clients: the wall rate
/// must stay flat. The last row widens the class count too (the demo
/// shape of `hcsim scale`).
std::vector<Scenario> scenarios() {
  return {
      {"classes64_x1", 64, 1},
      {"classes64_x1k", 64, 1000},
      {"classes64_x16k", 64, 15625},   // 1,000,000 clients
      {"classes256_x4k", 256, 3907},   // ~1,000,000 clients, demo shape
  };
}

ScaleResult runOne(const Scenario& sc) {
  workload::OpenLoopConfig cfg;
  cfg.clients = sc.classes;
  cfg.clientsPerRank = sc.membersPerClass;
  cfg.clientsPerNode = 8;
  cfg.ratePerClientHz = 5.0;
  cfg.horizonSec = 5.0;
  cfg.seed = 0x5ca1eull;

  // Best-of-3: wall-clock rates on a shared machine are noisy; the
  // fastest repetition is the closest to the machine's true capability
  // (the same run simulates identical events every time).
  ScaleResult r;
  r.scenario = sc;
  for (int rep = 0; rep < 3; ++rep) {
    Environment env = makeEnvironment(Site::Lassen, StorageKind::Vast, cfg.nodes(), nullptr);
    workload::OpenLoopSource source(cfg);
    workload::WorkloadRunner runner(*env.bench, *env.fs);
    const auto t0 = std::chrono::steady_clock::now();
    workload::WorkloadOutcome out = runner.run(source);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (rep == 0 || wall < r.wallSec) {
      r.outcome = std::move(out);
      r.peakPending = env.bench->sim().peakPendingEvents();
      r.wallSec = wall;
    }
  }
  return r;
}

std::string readFileOrDie(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::cerr << "bench_scale: cannot read " << path << "\n";
    std::exit(2);
  }
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

int compareAgainst(const std::vector<ScaleResult>& results, const std::string& refPath,
                   double maxRegress) {
  JsonValue ref;
  if (!parseJson(readFileOrDie(refPath), ref)) {
    std::cerr << "bench_scale: " << refPath << " is not valid JSON\n";
    return 2;
  }
  const JsonValue* scens = ref.find("scenarios");
  if (scens == nullptr || !scens->isObject()) {
    std::cerr << "bench_scale: " << refPath << " has no \"scenarios\" object\n";
    return 2;
  }
  int failures = 0;
  for (const auto& [name, entry] : *scens->object()) {
    const JsonValue* rate = entry.find("wall_class_ops_per_sec");
    if (rate == nullptr || rate->number() == nullptr) continue;
    const auto r = std::find_if(results.begin(), results.end(),
                                [&](const ScaleResult& x) { return x.scenario.name == name; });
    if (r == results.end()) {
      std::cerr << "PERF FAIL " << name << ": scenario missing from current run\n";
      ++failures;
      continue;
    }
    const double floor = *rate->number() * (1.0 - maxRegress);
    if (r->wallClassOpsPerSec() < floor) {
      std::cerr << "PERF FAIL " << name << ": wall_class_ops_per_sec " << r->wallClassOpsPerSec()
                << " < floor " << floor << " (ref " << *rate->number() << ", tolerance "
                << maxRegress * 100.0 << "%)\n";
      ++failures;
    } else {
      std::cout << "perf ok " << name << ": wall_class_ops_per_sec " << r->wallClassOpsPerSec()
                << " vs ref " << *rate->number() << "\n";
    }
  }
  return failures == 0 ? 0 : 1;
}

void writeJsonOut(const std::vector<ScaleResult>& results, const std::string& path) {
  JsonObject scens;
  for (const ScaleResult& r : results) {
    JsonObject s;
    s["classes"] = static_cast<double>(r.outcome.ranks);
    s["clients"] = static_cast<double>(r.outcome.clientsTotal());
    s["class_ops"] = static_cast<double>(r.classOps());
    s["client_ops"] = static_cast<double>(r.outcome.opsCompleted);
    s["goodput_gbs"] = r.outcome.goodputGBs();
    s["peak_pending_events"] = static_cast<double>(r.peakPending);
    s["wall_class_ops_per_sec"] = r.wallClassOpsPerSec();
    scens[r.scenario.name] = JsonValue(std::move(s));
  }
  JsonObject doc;
  doc["schema"] = std::string("hcsim-bench-scale-v1");
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
        std::cerr << "bench_scale: " << flag << " needs a value\n";
        std::exit(2);
      }
      dst = argv[++i];
      return true;
    };
    if (takeValue("--hcsim_json", jsonOut) || takeValue("--hcsim_compare", compareRef)) continue;
    std::string tol;
    if (takeValue("--hcsim_max_regress", tol)) {
      maxRegress = std::stod(tol);
      continue;
    }
    std::cerr << "bench_scale: unknown option " << argv[i] << "\n";
    return 2;
  }

  std::vector<ScaleResult> results;
  for (const Scenario& sc : scenarios()) results.push_back(runOne(sc));

  ResultTable t("flow-class aggregation (open-loop, Lassen/VAST, 5 s horizon)");
  t.setHeader({"scenario", "classes", "clients", "class ops", "GB/s", "peak events", "wall s",
               "class ops/s"});
  for (const ScaleResult& r : results) {
    t.addRow({r.scenario.name, static_cast<double>(r.outcome.ranks),
              static_cast<double>(r.outcome.clientsTotal()), static_cast<double>(r.classOps()),
              r.outcome.goodputGBs(), static_cast<double>(r.peakPending), r.wallSec,
              r.wallClassOpsPerSec()});
  }
  std::cout << t.toString();

  if (!jsonOut.empty()) {
    writeJsonOut(results, jsonOut);
    std::cout << "wrote " << jsonOut << "\n";
  }
  if (!compareRef.empty()) return compareAgainst(results, compareRef, maxRegress);
  return 0;
}
