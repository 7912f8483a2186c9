#pragma once
// WorkloadRunner — the single generic driver behind IorRunner,
// DlioRunner, trace replay, the synthetic generators (io500, grammar,
// openloop) and the chaos drill's closed-loop foreground (a timed run).
// It owns everything that used to be duplicated per runner:
// channel bookkeeping, trace recording, completion accounting, barrier
// and phase handling, open-loop arrival scheduling, goodput timeline
// sampling, and the chaos retry layer (every submit goes through a
// per-rank ClientSession, so arming one RetryPolicy gives any generator
// the same timeout/backoff semantics hcsim::chaos uses).

#include <memory>
#include <string>
#include <vector>

#include "cluster/deployments.hpp"
#include "fs/client_session.hpp"
#include "probe/monitor.hpp"
#include "trace/trace_log.hpp"
#include "workload/workload_source.hpp"

namespace hcsim {
class TraceLog;

namespace telemetry {
class MetricsRegistry;
}

namespace workload {

/// One goodput timeline slice. Full slices are sampleIntervalSec wide;
/// a plan with a horizon ends on a trailing partial slice when the
/// interval does not divide it.
struct WorkloadSample {
  Seconds start = 0.0;
  Seconds end = 0.0;
  double gbs = 0.0;            ///< bytes completed in the slice / slice width
  std::uint64_t retries = 0;   ///< retry-layer re-submissions fired in the slice
};

struct WorkloadOutcome {
  std::string generator;
  Seconds elapsed = 0.0;     ///< last completion - run start
  Seconds simElapsed = 0.0;  ///< sim clock consumed (includes trailing events)
  Bytes bytesMoved = 0;      ///< completed payload bytes
  std::uint64_t opsIssued = 0;
  std::uint64_t opsCompleted = 0;
  std::uint64_t opsFailed = 0;  ///< retry layer exhausted (0 without retry)
  std::uint64_t metaOps = 0;
  std::uint64_t computeOps = 0;
  std::uint64_t barriers = 0;   ///< barrier releases (not per-rank arrivals)
  std::uint64_t retries = 0;
  std::uint64_t lateCompletions = 0;
  /// Aggregation shape (hcsim::scale): op streams driven and members
  /// per stream. ranks * clientsPerRank = clients simulated.
  std::uint64_t ranks = 0;
  std::uint32_t clientsPerRank = 1;
  std::vector<double> opLatencies;  ///< per class op (plan.collectOpLatency)
  std::vector<WorkloadSample> timeline;

  /// SLO watchdog results (probe monitors; empty without them). The
  /// watchdog observes the timeline sampler and op completions only — a
  /// run with every monitor satisfied is byte-identical to a
  /// monitor-free run.
  std::size_t monitors = 0;
  std::vector<probe::Breach> breaches;

  std::uint64_t clientsTotal() const { return ranks * clientsPerRank; }

  double goodputGBs() const {
    return elapsed > 0.0 ? static_cast<double>(bytesMoved) / elapsed / 1e9 : 0.0;
  }
};

/// Export an outcome as "workload.*" telemetry gauges.
void exportTo(const WorkloadOutcome& out, telemetry::MetricsRegistry& reg);

class WorkloadRunner {
 public:
  WorkloadRunner(TestBench& bench, FileSystemModel& fs) : bench_(bench), fs_(fs) {}

  /// Record traced ops into `log` (nullptr disables).
  void setTraceLog(TraceLog* log) { trace_ = log; }

  /// Arm the chaos timeout/retry/backoff layer for every rank's submits.
  /// Without this call, requests pass straight through to the model,
  /// byte-identically to the pre-refactor runners.
  void enableRetry(RetryPolicy policy) {
    retryEnabled_ = true;
    retry_ = policy;
  }

  /// Attach SLO watchdog monitors, evaluated online against the goodput
  /// timeline sampler and op completions (probe/monitor.hpp).
  void setMonitors(std::vector<probe::MonitorSpec> monitors) { monitors_ = std::move(monitors); }

  /// Override the plan's goodput sample interval (> 0 seconds). Also
  /// enables timeline sampling for closed-loop generators without a
  /// horizon: sampling then stops at the first slice boundary after the
  /// workload drains. Without the override only plans with a horizon
  /// sample, exactly as before.
  void setSampleInterval(Seconds interval) { sampleIntervalOverride_ = interval; }

  /// Chaos landmarks for recoverySec monitors when the run carries an
  /// injected fault schedule: the watchdog's healthy-goodput estimate is
  /// the mean of slices that close before `firstFaultAt` (the best slice
  /// when none does), and the recovery clock starts at `lastRestoreAt`.
  void setChaosLandmarks(Seconds firstFaultAt, Seconds lastRestoreAt,
                         double degradedTolerance) {
    haveLandmarks_ = true;
    firstFaultAt_ = firstFaultAt;
    lastRestoreAt_ = lastRestoreAt;
    degradedTolerance_ = degradedTolerance;
  }

  /// Drive the source to completion. Throws std::logic_error when the
  /// simulation drains with live ranks or outstanding I/O (a source
  /// state-machine bug).
  ///
  /// A Closed plan with horizonSec > 0 is a timed run instead: the
  /// simulation stops at start + horizon, and ops still in flight there
  /// are abandoned uncounted (the drained checks do not apply). Their
  /// pending callbacks point into the finished run, so the environment
  /// must not be run again after a timed run.
  WorkloadOutcome run(WorkloadSource& source);

 private:
  struct Impl;

  TestBench& bench_;
  FileSystemModel& fs_;
  TraceLog* trace_ = nullptr;
  bool retryEnabled_ = false;
  RetryPolicy retry_{};
  std::vector<probe::MonitorSpec> monitors_;
  Seconds sampleIntervalOverride_ = 0.0;  ///< 0 = use the plan's interval
  bool haveLandmarks_ = false;
  Seconds firstFaultAt_ = 0.0;
  Seconds lastRestoreAt_ = -1.0;
  double degradedTolerance_ = 0.02;
};

}  // namespace workload
}  // namespace hcsim
