#pragma once
// Result emission for sweep outcomes: JSONL (one trial per line — the
// stable interchange format that baseline comparison consumes back),
// CSV (one axis per column, for plotting), and baseline-delta
// computation against a prior JSONL results file.

#include <map>
#include <string>
#include <vector>

#include "sweep/sweep_runner.hpp"

namespace hcsim::sweep {

/// Canonical identity of a trial across runs: its axis assignments as a
/// compact JSON object. Keys are sorted (JsonObject is a std::map), so
/// the key survives axis reordering between spec revisions.
std::string paramsKey(const Trial& trial);

/// The "metrics" object of a JSONL record: ok plus every base column
/// and each block the trial shows (opLatency, telemetry, probe, self,
/// transport, dlio), or ok:false plus error. One column table drives this,
/// its reader and the CSV; the trial cache stores this same object.
JsonValue metricsToJson(const TrialMetrics& m);
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

/// Read mean GB/s per paramsKey from a prior JSONL results file
/// (failed trials are skipped). Returns false on unreadable input.
bool loadBaseline(const std::string& path, std::map<std::string, double>& out);

struct BaselineDelta {
  std::size_t index = 0;
  std::string key;
  double baselineGBs = 0.0;
  double currentGBs = 0.0;
  double deltaPct = 0.0;  ///< 100 * (current - baseline) / baseline
  bool matched = false;   ///< false when the baseline lacks this trial
};

/// Delta per successful trial, in trial order.
std::vector<BaselineDelta> compareToBaseline(const SweepOutcome& out,
                                             const std::map<std::string, double>& baseline);

}  // namespace hcsim::sweep
