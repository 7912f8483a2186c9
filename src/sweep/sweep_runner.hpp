#pragma once
// Parallel what-if sweep execution.
//
// Every trial builds its own TestBench — and therefore its own
// Simulator, Topology and storage model — so trials share no mutable
// state and can run concurrently. The pool is work-stealing: trials are
// dealt round-robin across workers, and a worker that drains its own
// deque steals from the back of a neighbour's, so a few slow trials
// (big node counts) do not idle the rest of the pool. Results land in a
// slot-per-trial vector, so the outcome is identical — byte for byte in
// the emitted JSONL/CSV — whatever the job count.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sweep/sweep_spec.hpp"
#include "util/stats.hpp"

namespace hcsim::sweep {

class TrialCache;  // sweep/trial_cache.hpp

/// Per-trial switches that do not change what is simulated. `telemetry`
/// turns on span/metric collection inside each trial environment —
/// simulated results are identical either way (asserted in tests), but
/// the extra columns make cache entries non-interchangeable, so the
/// telemetry bit is part of the cache key.
struct TrialOptions {
  bool telemetry = false;
  /// Collect wall-clock self-profiling (probe::SelfProfiler) per trial.
  /// Host timings are not reproducible, so profiled trials always
  /// simulate — they neither hit nor populate the TrialCache.
  bool selfProfile = false;
};

struct TrialMetrics {
  bool ok = false;
  // Which optional blocks the trial shows, each described beside its
  // columns below. A sweep keeps one TrialMetrics per trial, so the
  // flags share one word instead of padding every block.
  bool latencyCapable = false;
  bool hasOpLatency = false;
  bool hasTelemetry = false;
  bool hasMonitors = false;
  bool hasSelf = false;
  bool hasTransport = false;
  bool hasDlio = false;
  std::string error;  ///< populated when !ok (bad config, impossible deployment)
  double meanGBs = 0.0;
  double minGBs = 0.0;
  double maxGBs = 0.0;
  double elapsedSec = 0.0;
  double bytesMoved = 0.0;

  /// Per-op latency contract. Only some experiments can carry a latency
  /// distribution at all (`latencyCapable`: ior and workload trials);
  /// of those, only runs where individual operations exist actually
  /// collect one (IOR PerOp mode, generators with collectOpLatency) —
  /// `hasOpLatency` distinguishes "not collected" (serialized as null,
  /// never as zeros) from a real distribution. dlio/chaos trials are not
  /// latency-capable and emit no opLatency field, as before.
  double opCount = 0.0;
  double opP50 = 0.0;
  double opP95 = 0.0;
  double opP99 = 0.0;

  /// Telemetry columns (doubles so JSONL round-trips losslessly);
  /// populated (hasTelemetry) only when the trial ran with
  /// TrialOptions.telemetry.
  double rerates = 0.0;
  double eventsScheduled = 0.0;
  double eventsCancelled = 0.0;
  double eventsAdjusted = 0.0;
  double eventsDispatched = 0.0;
  std::string dominantStage;  ///< bottleneck attribution winner ("" if no spans)
  double dominantSharePct = 0.0;

  /// SLO watchdog columns, populated (hasMonitors) when the trial's spec
  /// declared "monitors" (chaos and workload experiments).
  double monitors = 0.0;
  double breaches = 0.0;

  /// Self-profiler columns (hasSelf, TrialOptions.selfProfile): wall-clock
  /// seconds the host spent per engine bucket while this trial ran.
  double selfDispatchSec = 0.0;
  double selfCallbackSec = 0.0;
  double selfSolveSec = 0.0;
  double selfTelemetrySec = 0.0;
  double selfSinkSec = 0.0;

  /// NIC/transport columns (hcsim::transport), populated (hasTransport)
  /// only when the trial ran with a fabric attached — a "transport"
  /// section in the config, or DAOS storage (always on the fabric). Like
  /// telemetry and self, absent means the emitted bytes match a build
  /// without the feature; the columns follow the older blocks so older
  /// headers stay prefixes.
  double transportOps = 0.0;
  double transportBytes = 0.0;
  double transportThrottleSec = 0.0;
  double transportConnSetups = 0.0;
  double transportSqWaits = 0.0;
  double transportDoorbells = 0.0;

  /// DLIO columns (Figs 4-6), populated (hasDlio) for dlio trials:
  /// meanGBs is the application throughput and elapsedSec the runtime;
  /// these add the system throughput and the run's I/O-time split.
  double dlioSystemGBs = 0.0;
  double dlioNonOverlappingIoSec = 0.0;
  double dlioOverlappingIoSec = 0.0;
  double dlioComputeSec = 0.0;
};

struct TrialResult {
  Trial trial;
  TrialMetrics metrics;
};

struct SweepOutcome {
  std::string name;
  std::string experiment;
  std::vector<TrialResult> results;  ///< ordered by trial index
  RunningStats bandwidthGBs;         ///< merged over successful trials
  RunningStats elapsedSec;
  std::size_t failures = 0;
  std::size_t cacheHits = 0;    ///< trials served from the TrialCache (0 without one)
  std::size_t cacheMisses = 0;  ///< trials actually simulated when a cache was given
};

/// The --jobs default: hardware concurrency (1 when unknown).
std::size_t defaultJobs();

/// Run one trial config ("site"/"storage"/workload section/optional
/// "storageConfig" overrides) on a fresh environment. Never throws:
/// failures come back as !ok with the reason in .error.
TrialMetrics runTrial(const std::string& experiment, const JsonValue& config,
                      const TrialOptions& opts = {});

/// Work-stealing parallel loop over [0, n): each index is claimed by
/// exactly one worker, so `fn` may write its own result slot without
/// synchronization. jobs == 0 means defaultJobs().
void parallelFor(std::size_t n, std::size_t jobs, const std::function<void(std::size_t)>& fn);

/// Run many independent trial configs on the work-stealing pool — the
/// reusable core under runSweep, exposed for other subsystems (the
/// oracle evaluates metamorphic-relation cases through it). Results are
/// slot-per-config, so the output is identical whatever the job count.
/// Configs are only read, never mutated, so callers may pass shallow
/// copies that share JSON trees. When `cache` is non-null, trials whose
/// canonical key is already cached skip simulation entirely; misses are
/// simulated and inserted. Trials are deterministic, so results — and
/// therefore emitted bytes — are identical with or without a cache.
std::vector<TrialMetrics> runTrialBatch(const std::string& experiment,
                                        const std::vector<JsonValue>& configs, std::size_t jobs,
                                        TrialCache* cache = nullptr,
                                        const TrialOptions& opts = {});

/// Expand the spec and run every trial on `jobs` workers (0 = default),
/// optionally memoizing through `cache`.
SweepOutcome runSweep(const SweepSpec& spec, std::size_t jobs, TrialCache* cache = nullptr,
                      const TrialOptions& opts = {});

}  // namespace hcsim::sweep
