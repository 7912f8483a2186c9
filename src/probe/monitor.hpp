#pragma once
// SLO watchdog monitors — declarative "is this run healthy?" checks
// evaluated online against the timeline samplers that chaos/workload
// runs already schedule.
//
// A spec's `"monitors"` array declares objectives over four metrics
// (docs/PROBE.md has the full grammar):
//
//   {"metric": "goodputGBs",      "min": 4.0, "windowSec": 15}
//   {"metric": "p99OpLatencySec", "max": 0.5}
//   {"metric": "recoverySec",     "max": 20}
//   {"metric": "stallSec",        "max": 10}
//
// Evaluation piggybacks on existing sample callbacks — the WatchdogSet
// never schedules events, so a run with every monitor satisfied is
// byte-identical (timeline, JSONL, metrics) to the same run with no
// monitors at all. Breaches become first-class events: a MonitorBreach
// flight-recorder record, the run outcome's `probe.monitors` and
// `probe.breaches` gauges, a rendered breach table and a nonzero
// `hcsim` exit.

#include <string>
#include <vector>

#include "util/json.hpp"

namespace hcsim::probe {

class FlightRecorder;

enum class MonitorMetric {
  GoodputGBs,       ///< trailing-window mean goodput must stay >= min
  P99OpLatencySec,  ///< p99 of collected op latencies must stay <= max
  RecoverySec,      ///< goodput must recover within max s of the last restore
  StallSec,         ///< no zero-goodput stretch longer than max s
};

const char* toString(MonitorMetric metric);

struct MonitorSpec {
  std::string name;  ///< label for the breach table (defaults to the metric)
  MonitorMetric metric = MonitorMetric::GoodputGBs;
  double min = 0.0;        ///< GoodputGBs floor
  double max = 0.0;        ///< latency/recovery/stall ceiling
  double windowSec = 0.0;  ///< GoodputGBs trailing window (0 = each slice on its own)
};

/// A monitors[i] entry's keys beside "metric", which parseMonitors reads
/// first: each metric takes its own bounds, so their rules are
/// per-metric checks there.
template <class IO>
void fields(IO& io, MonitorSpec& m) {
  io("name", m.name);
  io("min", m.min);
  io("max", m.max);
  io("windowSec", m.windowSec);
}

struct Breach {
  std::string monitor;
  MonitorMetric metric = MonitorMetric::GoodputGBs;
  double observed = 0.0;
  double limit = 0.0;
  double atSec = 0.0;  ///< simulated time the watchdog fired
  std::uint64_t occurrences = 1;  ///< total violations of this monitor (first is reported)
};

/// Parse a spec's "monitors" member (absent = no monitors). Appends
/// human-readable problems for unknown metrics, missing/invalid bounds
/// or non-positive windows; on any problem `out` is left unchanged.
void parseMonitors(const JsonValue& root, std::vector<MonitorSpec>& out,
                   std::vector<std::string>& problems);

/// Online evaluator for one run. Feed it every timeline slice (and op
/// latency when collected), then finish(); it accumulates at most one
/// reported breach per monitor plus an occurrence count.
class WatchdogSet {
 public:
  explicit WatchdogSet(std::vector<MonitorSpec> specs = {});

  bool active() const { return !states_.empty(); }
  std::size_t monitorCount() const { return states_.size(); }

  /// Breach records also land in `recorder` when set (observe-only).
  void setRecorder(FlightRecorder* recorder) { recorder_ = recorder; }

  /// Chaos context for RecoverySec: the recovery clock starts at the
  /// last restore and a slice counts as recovered when its goodput is
  /// back above the degraded floor (healthy * (1 - tolerance)).
  void setRecoveryContext(double lastRestoreAt, double healthyGBs, double degradedTolerance);

  /// One timeline slice [start, end) that averaged `gbs`.
  void observeSlice(double start, double end, double gbs);

  /// One completed-op latency at simulated time `t`.
  void observeOpLatency(double t, double latencySec);

  /// Close the run at simulated time `endSec`: evaluates latency p99,
  /// an unmet recovery deadline and a still-open stall.
  void finish(double endSec);

  const std::vector<Breach>& breaches() const { return breaches_; }
  bool breached() const { return !breaches_.empty(); }

 private:
  struct SliceWindow {
    double start = 0.0, end = 0.0, gbs = 0.0;
  };
  struct State {
    MonitorSpec spec;
    bool fired = false;
    std::uint64_t occurrences = 0;
    std::vector<SliceWindow> window;  ///< trailing slices (GoodputGBs)
    std::size_t nextLatencyEval = 1;  ///< P99: sample count gating the next online eval
    double stallStart = -1.0;         ///< StallSec: start of the open zero stretch
    bool stallFiredStretch = false;   ///< StallSec: current stretch already reported
  };

  void fire(std::size_t idx, double observed, double limit, double atSec);

  std::vector<State> states_;
  std::vector<Breach> breaches_;
  FlightRecorder* recorder_ = nullptr;
  std::vector<double> latencies_;
  bool haveRecovery_ = false;
  double lastRestoreAt_ = 0.0;
  double degradedFloor_ = 0.0;
  double recoveredAt_ = -1.0;
  double lastSliceEnd_ = 0.0;
};

/// Render `breaches` as the actionable table the CLI prints before
/// exiting nonzero. Empty string when there are none.
std::string renderBreachTable(const std::vector<Breach>& breaches);

}  // namespace hcsim::probe
