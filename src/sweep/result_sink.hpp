#pragma once
// Result emission for sweep outcomes: JSONL (one trial per line — the
// stable interchange format that baseline comparison consumes back),
// CSV (one axis per column, for plotting), and baseline-delta
// computation against a prior JSONL results file.

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sweep/sweep_runner.hpp"

namespace hcsim::sweep {

/// Canonical identity of a trial across runs: its axis assignments as a
/// compact JSON object, the JSONL record's "params". Keys are sorted, so
/// the key survives axis reordering between spec revisions.
std::string paramsKey(const Trial& trial);

/// Append the "metrics" object of a JSONL record to `out`: ok plus every
/// base column and each block the trial shows (opLatency, telemetry,
/// probe, self, transport, dlio), or ok:false plus error, with sorted
/// keys at every level. One column table drives this, its reader and
/// the CSV; the trial cache stores this same object.
void appendMetricsJson(std::string& out, const TrialMetrics& m);
/// Every number that object holds for a successful trial, in its key
/// order, named as a dotted path ("bytes", "dlio.computeSec"); none for
/// a failed one.
std::vector<std::pair<std::string, double>> numberColumns(const TrialMetrics& m);
/// Read a metrics object back. False when it is not one: no boolean ok,
/// a failed trial without its error, or a successful one missing (or
/// mistyping) any base column or any column of a block it names.
bool metricsFromJson(const JsonValue& j, TrialMetrics& out);

/// One JSONL record: {"trial":i,"params":{...},"metrics":{...}}.
std::string toJsonlLine(const TrialResult& r);
bool writeJsonl(const SweepOutcome& out, const std::string& path);

/// CSV with one column per axis path plus the metric columns.
std::string toCsv(const SweepOutcome& out);
bool writeCsv(const SweepOutcome& out, const std::string& path);

/// A sweep's cells: metrics per paramsKey, failed cells included.
using Cells = std::map<std::string, TrialMetrics>;

/// Read back a JSONL results file (writeJsonl's): every cell, failed
/// ones included, keyed by its "params" as paramsKey renders them.
/// False when the file is unreadable or a line is not a trial record.
bool loadCells(const std::string& path, Cells& out);

struct BaselineDelta {
  std::size_t index = 0;
  std::string key;
  double baselineGBs = 0.0;
  double currentGBs = 0.0;
  double deltaPct = 0.0;  ///< 100 * (current - baseline) / baseline
  bool matched = false;   ///< false when the baseline lacks this trial
};

/// Delta per successful trial, in trial order, against the ok cells of
/// `baseline`; a failed or absent cell leaves the trial unmatched.
std::vector<BaselineDelta> compareToBaseline(const SweepOutcome& out, const Cells& baseline);

}  // namespace hcsim::sweep
