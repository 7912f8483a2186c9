#pragma once
// Chaos scenario execution: drive a steady foreground workload, inject the
// scheduled faults into the simulation clock, and report a time-sliced
// bandwidth/availability timeline.
//
// Mechanics: the drill is a closed-loop WorkloadSource driven by the one
// WorkloadRunner. nodes*procsPerNode ranks each keep exactly one
// request-sized op in flight until the horizon (with the runner's
// retry/backoff layer armed, timed-out ops re-submit over whatever
// capacity survives). Fault events apply through
// FileSystemModel::applyFault — or straight onto a named topology link —
// and take effect mid-flight via the flow network's epoch re-rating. A
// restore event may start background rebuild traffic over the model's
// rebuildRoute, contending with the foreground like a real resync. The
// runner's goodput sampler closes a slice every `intervalSec` (plus a
// trailing partial slice at the horizon); the paper-style availability
// metrics (degraded time, time-to-recover) are derived from that
// timeline.

#include <string>
#include <vector>

#include "chaos/chaos_spec.hpp"
#include "probe/monitor.hpp"
#include "telemetry/metrics_registry.hpp"
#include "util/table.hpp"

namespace hcsim::chaos {

/// One timeline slice.
struct IntervalSample {
  Seconds start = 0.0;
  Seconds end = 0.0;
  double gbs = 0.0;          ///< foreground goodput completed in the slice
  std::size_t activeFaults = 0;  ///< components not healthy during the slice
  std::uint64_t retries = 0;     ///< client retries fired in the slice
  bool degraded = false;     ///< gbs < healthy * (1 - degradedTolerance)
};

/// Everything a scenario run produced.
struct ChaosOutcome {
  std::string name;
  Site site = Site::Lassen;
  StorageKind storage = StorageKind::Vast;
  std::vector<IntervalSample> timeline;

  double healthyGBs = 0.0;  ///< steady-state estimate before the first fault
  double meanGBs = 0.0;
  double minGBs = 0.0;
  double maxGBs = 0.0;
  double finalGBs = 0.0;    ///< last slice — "did it come back?"

  Seconds degradedSeconds = 0.0;   ///< total time below the tolerance band
  Seconds timeToRecover = -1.0;    ///< last restore -> first healthy slice; -1 = n/a
  std::uint64_t retries = 0;
  std::uint64_t failedOps = 0;        ///< ops that exhausted their retries
  std::uint64_t lateCompletions = 0;  ///< abandoned attempts that completed anyway

  Bytes foregroundBytes = 0;
  Bytes rebuildBytes = 0;          ///< background resync traffic completed
  Seconds rebuildCompletedAt = -1.0;  ///< when the last rebuild flow drained

  /// Flow-class accounting (workload.clientsPerProc): sessions driven and
  /// the clients they stand for. Equal when the drill ran unaggregated.
  std::uint64_t flowClasses = 0;
  std::uint64_t clientsTotal = 0;

  /// SLO watchdog results (spec "monitors"; empty without them). The
  /// watchdog only observes the timeline samplers — a run with every
  /// monitor satisfied is byte-identical to a monitor-free run.
  std::size_t monitors = 0;
  std::vector<probe::Breach> breaches;
};

/// Where a schedule folded into another run strikes — what recoverySec
/// monitors need from it: degradation starts at the first fault, the
/// recovery clock at the last restore.
struct ChaosLandmarks {
  bool any = false;  ///< false = no events were scheduled
  Seconds firstFaultAt = 0.0;
  Seconds lastRestoreAt = -1.0;  ///< -1 = schedule never restores
  double degradedTolerance = 0.02;
};

/// Fold a spec's "chaos" section (events plus the usual schedule keys)
/// into whatever runs on `env` next: parse it, validate it against the
/// deployment and schedule its faults onto the simulator, so they strike
/// mid-run; an event at atSec 0 strikes here, before the run issues its
/// first op. Sweep IOR/DLIO trials and workload specs both go through
/// here. A null or event-free section schedules nothing, byte-identical
/// to no section. Throws std::invalid_argument
/// ("<who>: 'chaos' section: ...") listing every problem.
ChaosLandmarks injectSection(const JsonValue& section, Environment& env, const std::string& who);

/// Run a scenario on an existing environment (must match the spec's
/// site/storage — the caller owns that invariant). Throws
/// std::invalid_argument listing every validateSchedule problem.
ChaosOutcome runChaosOn(Environment& env, const ChaosSpec& spec);

/// Build the spec's environment (site preset + storageConfig overrides)
/// and run the scenario on it.
ChaosOutcome runChaos(const ChaosSpec& spec);

/// Render the timeline as an aligned table (one row per interval plus the
/// availability summary lines the CLI prints).
ResultTable renderTimeline(const ChaosOutcome& out);

/// Deterministic JSONL: one summary line, then one line per interval.
std::string toJsonl(const ChaosOutcome& out);

/// Export availability metrics as "chaos.*" gauges.
void exportTo(const ChaosOutcome& out, telemetry::MetricsRegistry& reg);

}  // namespace hcsim::chaos
