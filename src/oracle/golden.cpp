#include "oracle/golden.hpp"

#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "config/serialize.hpp"
#include "dlio/dlio_config.hpp"
#include "sweep/result_sink.hpp"
#include "sweep/sweep_runner.hpp"
#include "sweep/trial_cache.hpp"

namespace hcsim::oracle {

namespace {

sweep::Axis numAxis(std::string path, std::initializer_list<double> vs) {
  sweep::Axis ax;
  ax.path = std::move(path);
  for (double v : vs) ax.values.emplace_back(v);
  return ax;
}

sweep::Axis strAxis(std::string path, std::initializer_list<const char*> vs) {
  sweep::Axis ax;
  ax.path = std::move(path);
  for (const char* v : vs) ax.values.emplace_back(v);
  return ax;
}

GoldenFigure iorFigure(std::string name, std::string title, const char* site,
                       std::initializer_list<const char*> storages,
                       std::initializer_list<double> nodes) {
  GoldenFigure fig;
  fig.name = std::move(name);
  fig.title = std::move(title);
  fig.spec.name = "golden-" + fig.name;
  fig.spec.experiment = "ior";
  JsonObject ior;
  ior["segments"] = 400.0;
  ior["procsPerNode"] = 8.0;
  ior["repetitions"] = 1.0;
  JsonObject base;
  base["site"] = site;
  base["ior"] = JsonValue(std::move(ior));
  fig.spec.base = JsonValue(std::move(base));
  fig.spec.axes.push_back(strAxis("storage", storages));
  fig.spec.axes.push_back(strAxis("ior.access", {"seq-write", "seq-read", "rand-read"}));
  fig.spec.axes.push_back(numAxis("ior.nodes", nodes));
  return fig;
}

GoldenFigure dlioFigure(std::string name, std::string title, const DlioWorkload& workload,
                        double samples, double epochs) {
  GoldenFigure fig;
  fig.name = std::move(name);
  fig.title = std::move(title);
  fig.spec.name = "golden-" + fig.name;
  fig.spec.experiment = "dlio";
  JsonValue w = toJson(workload);
  sweep::jsonPathSet(w, "samples", JsonValue(samples));
  sweep::jsonPathSet(w, "epochs", JsonValue(epochs));
  JsonObject dlio;
  dlio["workload"] = std::move(w);
  dlio["nodes"] = 1.0;
  dlio["procsPerNode"] = 2.0;
  dlio["seed"] = 7.0;
  JsonObject base;
  base["site"] = "lassen";
  base["dlio"] = JsonValue(std::move(dlio));
  fig.spec.base = JsonValue(std::move(base));
  fig.spec.axes.push_back(strAxis("storage", {"vast", "gpfs"}));
  fig.spec.axes.push_back(numAxis("dlio.nodes", {1, 2, 4}));
  return fig;
}

/// One golden cell as recorded: ok flag plus mean bandwidth.
struct GoldenCell {
  bool ok = false;
  double meanGBs = 0.0;
};

/// Full-fidelity snapshot loader. Unlike sweep::loadBaseline this keeps
/// failed cells, so a trial that used to fail and now succeeds (or vice
/// versa) is visible as drift rather than silently skipped.
bool loadGoldenCells(const std::string& path, std::map<std::string, GoldenCell>& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JsonValue j;
    if (!parseJson(line, j)) return false;
    const JsonValue* params = j.find("params");
    const JsonValue* metrics = j.find("metrics");
    sweep::TrialMetrics m;
    if (!params || !metrics || !sweep::metricsFromJson(*metrics, m)) return false;
    out[writeJson(*params)] = {m.ok, m.meanGBs};
  }
  return true;
}

}  // namespace

const std::vector<GoldenFigure>& builtinFigures() {
  static const std::vector<GoldenFigure> figures = [] {
    std::vector<GoldenFigure> f;
    f.push_back(iorFigure("fig2a", "IOR scaling on Lassen: GPFS vs VAST over TCP", "lassen",
                          {"gpfs", "vast"}, {1, 2, 4, 8, 16, 32}));
    f.push_back(iorFigure("fig2b", "IOR scaling on Wombat: VAST over RDMA vs node-local NVMe",
                          "wombat", {"vast", "nvme"}, {1, 2, 4, 8}));
    f.push_back(dlioFigure("fig4", "DLIO resnet50 throughput on Lassen: VAST vs GPFS",
                           DlioWorkload::resnet50(), 48, 1));
    f.push_back(dlioFigure("fig6", "DLIO cosmoflow throughput on Lassen: VAST vs GPFS",
                           DlioWorkload::cosmoflow(), 32, 1));
    return f;
  }();
  return figures;
}

const GoldenFigure* findFigure(const std::string& name) {
  for (const GoldenFigure& f : builtinFigures()) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

std::string goldenPath(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".jsonl";
}

bool recordFigure(const GoldenFigure& fig, const std::string& dir, std::size_t jobs,
                  std::string& error, sweep::TrialCache* cache, const sweep::TrialOptions& opts) {
  sweep::SweepOutcome out = sweep::runSweep(fig.spec, jobs, cache, opts);
  // Goldens snapshot simulated results only: drop the telemetry columns
  // so the file is byte-identical whether or not telemetry was on.
  for (sweep::TrialResult& r : out.results) r.metrics.hasTelemetry = false;
  if (out.failures != 0) {
    for (const sweep::TrialResult& r : out.results) {
      if (r.metrics.ok) continue;
      error = fig.name + ": trial " + sweep::paramsKey(r.trial) +
              " failed, refusing to snapshot: " + r.metrics.error;
      return false;
    }
  }
  if (!sweep::writeJsonl(out, goldenPath(dir, fig.name))) {
    error = fig.name + ": cannot write " + goldenPath(dir, fig.name);
    return false;
  }
  return true;
}

FigureCheck checkFigure(const GoldenFigure& fig, const std::string& dir, std::size_t jobs,
                        double tolerancePct, sweep::TrialCache* cache,
                        const sweep::TrialOptions& opts) {
  FigureCheck check;
  check.figure = fig.name;

  std::map<std::string, GoldenCell> golden;
  if (!loadGoldenCells(goldenPath(dir, fig.name), golden)) {
    check.error = "cannot read golden snapshot " + goldenPath(dir, fig.name) +
                  " (run 'hcsim oracle record' first)";
    return check;
  }

  const sweep::SweepOutcome out = sweep::runSweep(fig.spec, jobs, cache, opts);
  std::map<std::string, bool> goldenSeen;
  for (const sweep::TrialResult& r : out.results) {
    CellDelta d;
    d.key = sweep::paramsKey(r.trial);
    d.currentGBs = r.metrics.meanGBs;
    const auto it = golden.find(d.key);
    if (it == golden.end()) {
      d.violated = true;
      d.note = "cell absent from golden snapshot";
    } else {
      goldenSeen[d.key] = true;
      d.goldenGBs = it->second.meanGBs;
      if (!r.metrics.ok && it->second.ok) {
        d.violated = true;
        d.note = "cell now fails: " + r.metrics.error;
      } else if (r.metrics.ok && !it->second.ok) {
        d.violated = true;
        d.note = "cell succeeded but golden recorded a failure";
      } else if (r.metrics.ok) {
        d.deltaPct = d.goldenGBs != 0.0
                         ? 100.0 * (d.currentGBs - d.goldenGBs) / d.goldenGBs
                         : (d.currentGBs != 0.0 ? 100.0 : 0.0);
        d.violated = std::abs(d.deltaPct) > tolerancePct;
      }
    }
    if (d.violated) ++check.violations;
    ++check.cells;
    check.deltas.push_back(std::move(d));
  }
  for (const auto& [key, cell] : golden) {
    if (goldenSeen.count(key)) continue;
    CellDelta d;
    d.key = key;
    d.goldenGBs = cell.meanGBs;
    d.violated = true;
    d.note = "golden cell absent from current sweep";
    ++check.violations;
    ++check.cells;
    check.deltas.push_back(std::move(d));
  }
  return check;
}

std::string deltaTable(const FigureCheck& check, double tolerancePct, bool fullTable) {
  std::ostringstream os;
  if (!check.error.empty()) {
    os << check.figure << ": ERROR: " << check.error << "\n";
    return os.str();
  }
  os << check.figure << ": " << check.cells << " cells, " << check.violations
     << " out of tolerance (" << tolerancePct << "%)\n";
  bool header = false;
  for (const CellDelta& d : check.deltas) {
    if (!fullTable && !d.violated) continue;
    if (!header) {
      os << "| cell | golden GB/s | current GB/s | delta % | verdict |\n";
      os << "|---|---|---|---|---|\n";
      header = true;
    }
    os << "| " << d.key << " | " << d.goldenGBs << " | " << d.currentGBs << " | " << d.deltaPct
       << " | " << (d.violated ? "FAIL" : "ok");
    if (!d.note.empty()) os << " — " << d.note;
    os << " |\n";
  }
  return os.str();
}

}  // namespace hcsim::oracle
