#pragma once
// Golden-figure regression layer.
//
// Each of the paper's artifacts is one plain sweep spec, D/<name>.json,
// with its snapshot D/<name>.jsonl beside it (D defaults to
// examples/specs/paper). `record` runs the spec and snapshots the
// results as JSONL; `check` re-runs it and compares every cell against
// the snapshot column by column, failing on out-of-tolerance drift with
// a per-cell delta table. Cells are keyed by sweep::paramsKey, so the
// comparison survives axis reordering and trial renumbering.
//
// The §VII takeaways are band checks over fig2a and fig2b cells
// (takeawayChecks), read from a run or from the snapshots.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "core/calibration.hpp"
#include "sweep/sweep_runner.hpp"
#include "sweep/sweep_spec.hpp"

namespace hcsim::sweep {
class TrialCache;  // sweep/trial_cache.hpp
}

namespace hcsim::oracle {

/// The paper's artifacts: examples/specs/paper of the source tree this
/// build was configured from (HCSIM_PAPER_DIR, src/CMakeLists.txt), so
/// the default --dir of `hcsim oracle` and `hcsim takeaways` works from
/// any working directory.
inline constexpr const char* kPaperDir = HCSIM_PAPER_DIR;

struct GoldenFigure {
  std::string name;  ///< file stem, e.g. "fig2a"
  sweep::SweepSpec spec;
};

/// Read every dir/*.json as a sweep spec, in name order. False, with one
/// line naming the file, when the directory cannot be read, holds no
/// spec, or a spec does not read.
bool loadFigures(const std::string& dir, std::vector<GoldenFigure>& out, std::string& error);

/// dir + "/" + name + ".jsonl"
std::string goldenPath(const std::string& dir, const std::string& name);

/// A sweep's cells: metrics per paramsKey, failed cells included.
using Cells = std::map<std::string, sweep::TrialMetrics>;
Cells cellsOf(const sweep::SweepOutcome& out);
/// A snapshot's cells. False when the file is unreadable or a line is
/// not a trial record.
bool loadCells(const std::string& path, Cells& out);

struct CellDelta {
  std::string key;  ///< paramsKey of the cell
  double goldenGBs = 0.0;
  double currentGBs = 0.0;
  double deltaPct = 0.0;
  bool violated = false;
  /// Non-empty for structural drift (missing cell, new failure) and for
  /// the other recorded columns out of tolerance ("drifted: ...").
  std::string note;
};

struct FigureCheck {
  std::string figure;
  std::string error;  ///< non-empty when the snapshot could not be read
  std::size_t cells = 0;
  std::size_t violations = 0;
  std::vector<CellDelta> deltas;  ///< every current cell in trial order, then unmatched golden cells
  Cells current;                  ///< the cells this check ran
  bool pass() const { return error.empty() && violations == 0; }
};

/// Run the figure's sweep and write dir/name.jsonl. Refuses to snapshot
/// a sweep with failed trials (goldens must be all-green). `cache`
/// optionally memoizes trials (sweep::TrialCache) — snapshots are
/// byte-identical with or without it. Telemetry columns are stripped
/// before writing, so snapshots are also byte-identical with or without
/// opts.telemetry (asserted in tests).
bool recordFigure(const GoldenFigure& fig, const std::string& dir, std::size_t jobs,
                  std::string& error, sweep::TrialCache* cache = nullptr,
                  const sweep::TrialOptions& opts = {});

/// Re-run the figure's sweep and compare per cell, every number the
/// snapshot records (meanGBs, elapsedSec, ..., the dlio block's split).
/// Drift beyond tolerancePct in any of them (in either direction), a
/// recorded column the cell no longer carries, cells that now fail, and
/// cells present on only one side all count as violations; a column the
/// snapshot predates is not compared. A warm `cache` serves the whole
/// sweep without simulating, with identical deltas. opts.telemetry must
/// not change any delta (snapshots never record its columns).
FigureCheck checkFigure(const GoldenFigure& fig, const std::string& dir, std::size_t jobs,
                        double tolerancePct, sweep::TrialCache* cache = nullptr,
                        const sweep::TrialOptions& opts = {});

/// Deterministic per-cell delta table (no timings, no job counts).
/// `fullTable` prints every cell; otherwise only violated cells.
std::string deltaTable(const FigureCheck& check, double tolerancePct, bool fullTable);

/// The nine §VII calibration rows, each a per-node bandwidth (or a ratio
/// of two) read from fig2a (Lassen VAST/GPFS) and fig2b (Wombat
/// VAST/NVMe) cells. Empty, with `missing` naming the first absent or
/// failed cell, when a row's cell is not there.
std::vector<calibration::Check> takeawayChecks(const Cells& fig2a, const Cells& fig2b,
                                               std::string& missing);

}  // namespace hcsim::oracle
