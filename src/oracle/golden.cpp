#include "oracle/golden.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <sstream>

#include "sweep/result_sink.hpp"
#include "sweep/sweep_runner.hpp"
#include "sweep/trial_cache.hpp"

namespace hcsim::oracle {

namespace {

/// Mean GB/s per node of one fig2 cell. False, naming the cell in
/// `missing`, when it is absent or failed.
bool perNode(const Cells& cells, const char* fig, const char* storage, const char* access,
             double nodes, double& out, std::string& missing) {
  JsonObject params;  // as sweep::paramsKey spells the cell
  params["storage"] = storage;
  params["ior.access"] = access;
  params["ior.nodes"] = nodes;
  const std::string key = writeJson(JsonValue(std::move(params)));
  const auto it = cells.find(key);
  if (it == cells.end() || !it->second.ok) {
    missing = std::string(fig) + " has no cell " + key;
    return false;
  }
  out = it->second.meanGBs / nodes;
  return true;
}

/// 100 * (current - golden) / golden; 100 when only golden is 0.
double pctDelta(double golden, double current) {
  if (golden != 0.0) return 100.0 * (current - golden) / golden;
  return current != 0.0 ? 100.0 : 0.0;
}

/// The recorded columns other than meanGBs (the delta table's own) that
/// `current` has left by more than tolerancePct, or lacks, as "drifted:
/// dlio.systemGBs 0.13 -> 0.1365 (5%), ..."; "" when none. A column is a
/// number in the snapshot's metrics object or in one of its blocks, so
/// a block the snapshot predates is not compared.
std::string driftedColumns(const sweep::TrialMetrics& golden, const sweep::TrialMetrics& current,
                           double tolerancePct) {
  const auto now = sweep::numberColumns(current);
  std::ostringstream os;
  const char* sep = "drifted: ";
  for (const auto& [column, g] : sweep::numberColumns(golden)) {
    if (column == "meanGBs") continue;
    const auto c = std::find_if(now.begin(), now.end(),
                                [&column](const auto& n) { return n.first == column; });
    if (c == now.end()) {
      os << sep << column << " " << g << " -> absent";
    } else if (const double pct = pctDelta(g, c->second); std::abs(pct) > tolerancePct) {
      os << sep << column << " " << g << " -> " << c->second << " (" << pct << "%)";
    } else {
      continue;
    }
    sep = ", ";
  }
  return os.str();
}

}  // namespace

bool loadFigures(const std::string& dir, std::vector<GoldenFigure>& out, std::string& error) {
  namespace fs = std::filesystem;
  std::vector<fs::path> paths;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end; it.increment(ec)) {
    if (it->path().extension() == ".json") paths.push_back(it->path());
  }
  if (ec) {
    error = "cannot read directory " + dir + ": " + ec.message();
    return false;
  }
  if (paths.empty()) {
    error = dir + ": no *.json sweep specs";
    return false;
  }
  std::sort(paths.begin(), paths.end());
  out.clear();
  for (const fs::path& p : paths) {
    GoldenFigure fig;
    fig.name = p.stem().string();
    if (std::string e; !sweep::loadSpec(p.string(), fig.spec, &e)) {
      error = p.string() + ": " + e;
      return false;
    }
    out.push_back(std::move(fig));
  }
  return true;
}

std::string goldenPath(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".jsonl";
}

Cells cellsOf(const sweep::SweepOutcome& out) {
  Cells cells;
  for (const sweep::TrialResult& r : out.results) cells[sweep::paramsKey(r.trial)] = r.metrics;
  return cells;
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

  Cells golden;
  // Failed cells are kept, so a trial that used to fail and now succeeds
  // (or vice versa) shows as drift rather than being skipped.
  if (!sweep::loadCells(goldenPath(dir, fig.name), golden)) {
    check.error = "cannot read golden snapshot " + goldenPath(dir, fig.name) +
                  " (run 'hcsim oracle record' first)";
    return check;
  }

  const sweep::SweepOutcome out = sweep::runSweep(fig.spec, jobs, cache, opts);
  check.current = cellsOf(out);
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
        d.deltaPct = pctDelta(d.goldenGBs, d.currentGBs);
        d.note = driftedColumns(it->second, r.metrics, tolerancePct);
        d.violated = std::abs(d.deltaPct) > tolerancePct || !d.note.empty();
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

std::vector<calibration::Check> takeawayChecks(const Cells& fig2a, const Cells& fig2b,
                                               std::string& missing) {
  namespace cal = calibration;
  // Each row is a 1-node per-node figure, except two. Wombat reads
  // saturate VAST's 8 CNodes within a couple of nodes (Fig 2b), so the
  // paper's "per node" read sits on that shoulder, and 2 nodes is the
  // closest point. GPFS's 1.4 GB/s/node random read reflects
  // cache-defeating scale, Fig 2a's upper range, so it is read at 64.
  double tcpWrite = 0, tcpRead = 0, gpfsSeq = 0, gpfsRand = 0;
  double rdmaWrite = 0, rdmaRead = 0, vastRand = 0;
  if (!perNode(fig2a, "fig2a", "vast", "seq-write", 1, tcpWrite, missing) ||
      !perNode(fig2a, "fig2a", "vast", "seq-read", 1, tcpRead, missing) ||
      !perNode(fig2a, "fig2a", "gpfs", "seq-read", 1, gpfsSeq, missing) ||
      !perNode(fig2a, "fig2a", "gpfs", "rand-read", 64, gpfsRand, missing) ||
      !perNode(fig2b, "fig2b", "vast", "seq-write", 1, rdmaWrite, missing) ||
      !perNode(fig2b, "fig2b", "vast", "seq-read", 2, rdmaRead, missing) ||
      !perNode(fig2b, "fig2b", "vast", "rand-read", 2, vastRand, missing)) {
    return {};
  }
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  return {
      {"TCP VAST write GB/s per node", cal::kTcpPerNodeGBs, tcpWrite, 2.0},
      {"RDMA VAST write GB/s per node", cal::kRdmaPerNodeGBs, rdmaWrite, 2.0},
      {"RDMA/TCP write factor", cal::kRdmaVsTcpFactor, ratio(rdmaWrite, tcpWrite), 2.0},
      {"RDMA/TCP read factor", cal::kRdmaVsTcpFactor, ratio(rdmaRead, tcpRead), 2.0},
      {"GPFS seq read GB/s per node", cal::kGpfsSeqReadPerNodeGBs, gpfsSeq, 1.5},
      {"GPFS random read GB/s per node", cal::kGpfsRandReadPerNodeGBs, gpfsRand, 2.0},
      {"GPFS random drop fraction", cal::kGpfsRandomDropFraction,
       gpfsSeq > 0 ? 1.0 - gpfsRand / gpfsSeq : 0.0, 1.25},
      {"VAST seq read GB/s per node", cal::kVastSeqReadPerNodeGBs, rdmaRead, 2.0},
      {"VAST random read GB/s per node", cal::kVastRandReadPerNodeGBs, vastRand, 2.0},
  };
}

}  // namespace hcsim::oracle
