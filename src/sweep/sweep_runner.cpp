#include "sweep/sweep_runner.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "chaos/chaos_runner.hpp"
#include "config/fields.hpp"
#include "core/experiment.hpp"
#include "net/topology.hpp"
#include "probe/self_profiler.hpp"
#include "scale/flow_class.hpp"
#include "sweep/trial_cache.hpp"
#include "workload/workload_spec.hpp"

namespace hcsim::sweep {

namespace {

/// Copy the fabric's endpoint counters into the metric columns. A trial
/// without a fabric leaves hasTransport unset, so its emitted bytes stay
/// identical to a build without hcsim::transport.
void fillTransport(TrialMetrics& m, const Environment& env) {
  if (env.transport == nullptr) return;
  m.hasTransport = true;
  m.transportOps = static_cast<double>(env.transport->opsPosted());
  m.transportBytes = static_cast<double>(env.transport->bytesPosted());
  m.transportThrottleSec = env.transport->throttleDelay();
  m.transportConnSetups = static_cast<double>(env.transport->connectionSetups());
  m.transportSqWaits = static_cast<double>(env.transport->sqWaits());
  m.transportDoorbells = static_cast<double>(env.transport->doorbells());
}

/// Copy engine/network/attribution telemetry out of a finished trial
/// environment into the metric columns.
void fillTelemetry(TrialMetrics& m, const Environment& env) {
  m.hasTelemetry = true;
  const Simulator& sim = env.bench->sim();
  m.eventsScheduled = static_cast<double>(sim.eventsScheduled());
  m.eventsCancelled = static_cast<double>(sim.eventsCancelled());
  m.eventsAdjusted = static_cast<double>(sim.eventsAdjusted());
  m.eventsDispatched = static_cast<double>(sim.eventsDispatched());
  m.rerates = static_cast<double>(env.bench->topo().network().rerates());
  const telemetry::AttributionReport rep = env.bench->telemetry().attribution();
  m.dominantStage = rep.dominantStage;
  m.dominantSharePct = rep.dominantSharePct;
}

/// Copy the bench's wall-clock self-profile into the metric columns.
void fillSelf(TrialMetrics& m, const Environment& env) {
  const probe::SelfProfiler& p = env.bench->profiler();
  m.hasSelf = true;
  m.selfDispatchSec = p.seconds(probe::SelfProfiler::Bucket::Dispatch);
  m.selfCallbackSec = p.seconds(probe::SelfProfiler::Bucket::Callback);
  m.selfSolveSec = p.seconds(probe::SelfProfiler::Bucket::Solve);
  m.selfTelemetrySec = p.seconds(probe::SelfProfiler::Bucket::Telemetry);
  m.selfSinkSec = p.seconds(probe::SelfProfiler::Bucket::Sink);
}

TrialMetrics runIorTrial(const JsonValue& config, Site site, StorageKind kind,
                         const TrialOptions& opts) {
  IorConfig cfg;
  if (const JsonValue* j = config.find("ior")) {
    if (std::string e = readFields(*j, cfg, "ior"); !e.empty()) throw std::invalid_argument(e);
  }
  cfg.validate();
  Environment env = makeEnvironment(site, kind, cfg.nodes, config.find("storageConfig"),
                                    config.find("transport"));
  if (opts.telemetry) env.bench->telemetry().setEnabled(true);
  if (opts.selfProfile) env.bench->profiler().setEnabled(true);
  // An optional "chaos" section strikes mid-workload.
  if (const JsonValue* c = config.find("chaos")) chaos::injectSection(*c, env, "sweep");
  IorRunner runner(*env.bench, *env.fs);
  const IorResult r = runner.run(cfg);
  // The opLatency contract: per-op latencies exist exactly when
  // individual operations were simulated (PerOp mode). Coalesced runs
  // have no per-op notion, so their summary must stay empty — the sink
  // serializes that as null, never as a zero-filled distribution.
  assert((cfg.mode == IorConfig::Mode::PerOp) == (r.opLatency.count > 0));
  TrialMetrics m;
  m.ok = true;
  m.meanGBs = units::toGBs(r.bandwidth.mean);
  m.minGBs = units::toGBs(r.bandwidth.min);
  m.maxGBs = units::toGBs(r.bandwidth.max);
  m.elapsedSec = r.meanElapsed;
  m.bytesMoved = static_cast<double>(r.totalBytes);
  m.latencyCapable = true;
  if (r.opLatency.count > 0) {
    m.hasOpLatency = true;
    m.opCount = static_cast<double>(r.opLatency.count);
    m.opP50 = r.opLatency.p50;
    m.opP95 = r.opLatency.p95;
    m.opP99 = r.opLatency.p99;
  }
  if (opts.telemetry) fillTelemetry(m, env);
  if (opts.selfProfile) fillSelf(m, env);
  fillTransport(m, env);
  return m;
}

/// A "workload" trial: the trial config *is* a WorkloadRunSpec document
/// (site/storage/workload/chaos/retry at the top level), so the
/// generator and every generator knob are sweepable axes. The cache key
/// covers the whole config — including the workload section — so two
/// trials differing only in generator keys never collide.
TrialMetrics runWorkloadTrial(const JsonValue& config, const TrialOptions& opts) {
  workload::WorkloadRunSpec spec;
  std::vector<std::string> problems;
  workload::parseWorkloadSpec(config, spec, problems);
  workload::SourceBundle bundle;
  if (problems.empty()) bundle = workload::makeSource(spec, problems);
  if (!problems.empty()) {
    std::string msg = "sweep: workload trial:";
    for (const std::string& p : problems) msg += " " + p + ";";
    throw std::invalid_argument(msg);
  }
  Environment env = makeEnvironment(spec, bundle.nodes);
  if (opts.telemetry) env.bench->telemetry().setEnabled(true);
  if (opts.selfProfile) env.bench->profiler().setEnabled(true);
  const chaos::ChaosLandmarks lm = workload::injectWorkloadChaos(spec, env);
  const workload::WorkloadOutcome r =
      workload::runWorkload(env, spec, *bundle.source, nullptr, &lm);
  TrialMetrics m;
  m.ok = true;
  m.meanGBs = m.minGBs = m.maxGBs = r.goodputGBs();
  m.elapsedSec = r.elapsed;
  m.bytesMoved = static_cast<double>(r.bytesMoved);
  m.latencyCapable = true;
  if (!r.opLatencies.empty()) {
    // Flow classes (hcsim::scale): every latency entry stands for
    // clientsPerRank clients, so demultiplex the weighted multiset —
    // this keeps trial metrics invariant under class partitioning. At
    // clientsPerRank == 1 the result matches summarize() byte-for-byte.
    std::vector<scale::WeightedSample> weighted;
    weighted.reserve(r.opLatencies.size());
    for (double v : r.opLatencies) weighted.push_back({v, r.clientsPerRank});
    const Summary s = scale::demultiplex(std::move(weighted));
    m.hasOpLatency = true;
    m.opCount = static_cast<double>(s.count);
    m.opP50 = s.p50;
    m.opP95 = s.p95;
    m.opP99 = s.p99;
  }
  if (r.monitors > 0) {
    m.hasMonitors = true;
    m.monitors = static_cast<double>(r.monitors);
    m.breaches = static_cast<double>(r.breaches.size());
  }
  if (opts.telemetry) fillTelemetry(m, env);
  if (opts.selfProfile) fillSelf(m, env);
  fillTransport(m, env);
  return m;
}

TrialMetrics runDlioTrial(const JsonValue& config, Site site, StorageKind kind,
                          const TrialOptions& opts) {
  DlioConfig cfg;
  if (const JsonValue* j = config.find("dlio")) {
    if (std::string e = readFields(*j, cfg, "dlio"); !e.empty()) throw std::invalid_argument(e);
  }
  Environment env = makeEnvironment(site, kind, cfg.nodes, config.find("storageConfig"),
                                    config.find("transport"));
  if (opts.telemetry) env.bench->telemetry().setEnabled(true);
  if (opts.selfProfile) env.bench->profiler().setEnabled(true);
  // An optional "chaos" section strikes mid-workload.
  if (const JsonValue* c = config.find("chaos")) chaos::injectSection(*c, env, "sweep");
  DlioRunner runner(*env.bench, *env.fs);
  const DlioResult r = runner.run(cfg);
  TrialMetrics m;
  m.ok = true;
  m.meanGBs = m.minGBs = m.maxGBs = units::toGBs(r.throughput.application);
  m.elapsedSec = r.runtime;
  m.bytesMoved = static_cast<double>(r.bytesRead + r.bytesCheckpointed);
  m.hasDlio = true;
  m.dlioSystemGBs = units::toGBs(r.throughput.system);
  m.dlioNonOverlappingIoSec = r.breakdown.nonOverlappingIo;
  m.dlioOverlappingIoSec = r.breakdown.overlappingIo;
  m.dlioComputeSec = r.breakdown.totalCompute;
  if (opts.telemetry) fillTelemetry(m, env);
  if (opts.selfProfile) fillSelf(m, env);
  fillTransport(m, env);
  return m;
}

/// A whole-scenario trial: the trial config *is* a ChaosSpec (site/
/// storage/workload/events at the top level), so sweep axes can vary the
/// schedule itself — severity, event times, retry policy.
TrialMetrics runChaosTrial(const JsonValue& config, const TrialOptions& opts) {
  chaos::ChaosSpec spec;
  std::string err;
  if (!chaos::parseChaosSpec(config, spec, err)) {
    throw std::invalid_argument("sweep: chaos trial: " + err);
  }
  Environment env = makeEnvironment(spec, spec.workload.nodes);
  if (opts.telemetry) env.bench->telemetry().setEnabled(true);
  if (opts.selfProfile) env.bench->profiler().setEnabled(true);
  const chaos::ChaosOutcome r = chaos::runChaosOn(env, spec);
  TrialMetrics m;
  m.ok = true;
  m.meanGBs = r.meanGBs;
  m.minGBs = r.minGBs;
  m.maxGBs = r.maxGBs;
  m.elapsedSec = spec.horizon;
  m.bytesMoved = static_cast<double>(r.foregroundBytes);
  if (r.monitors > 0) {
    m.hasMonitors = true;
    m.monitors = static_cast<double>(r.monitors);
    m.breaches = static_cast<double>(r.breaches.size());
  }
  if (opts.telemetry) fillTelemetry(m, env);
  if (opts.selfProfile) fillSelf(m, env);
  fillTransport(m, env);
  return m;
}

}  // namespace

std::size_t defaultJobs() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

TrialMetrics runTrial(const std::string& experiment, const JsonValue& config,
                      const TrialOptions& opts) {
  TrialMetrics m;
  try {
    Site site = Site::Lassen;
    if (!parseSite(config.stringOr("site", "lassen"), site)) {
      throw std::invalid_argument("sweep: 'site' must be " + siteNames());
    }
    StorageKind kind = StorageKind::Vast;
    if (!parseStorage(config.stringOr("storage", "vast"), kind)) {
      throw std::invalid_argument("sweep: 'storage' must be " + storageNames());
    }
    if (experiment == "ior") return runIorTrial(config, site, kind, opts);
    if (experiment == "dlio") return runDlioTrial(config, site, kind, opts);
    if (experiment == "chaos") return runChaosTrial(config, opts);
    if (experiment == "workload") return runWorkloadTrial(config, opts);
    throw std::invalid_argument(
        "sweep: experiment must be 'ior', 'dlio', 'chaos' or 'workload'");
  } catch (const std::exception& ex) {
    m.ok = false;
    m.error = ex.what();
  }
  return m;
}

void parallelFor(std::size_t n, std::size_t jobs, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t workers =
      std::max<std::size_t>(1, std::min(jobs == 0 ? defaultJobs() : jobs, n));

  struct WorkDeque {
    std::mutex mu;
    std::deque<std::size_t> q;
  };
  std::vector<WorkDeque> deques(workers);
  for (std::size_t i = 0; i < n; ++i) deques[i % workers].q.push_back(i);

  const auto popOwn = [&deques](std::size_t w, std::size_t& idx) {
    std::lock_guard<std::mutex> lk(deques[w].mu);
    if (deques[w].q.empty()) return false;
    idx = deques[w].q.front();
    deques[w].q.pop_front();
    return true;
  };
  const auto steal = [&deques, workers](std::size_t w, std::size_t& idx) {
    for (std::size_t off = 1; off < workers; ++off) {
      WorkDeque& d = deques[(w + off) % workers];
      std::lock_guard<std::mutex> lk(d.mu);
      if (d.q.empty()) continue;
      idx = d.q.back();
      d.q.pop_back();
      return true;
    }
    return false;
  };

  // Each index is claimed by exactly one worker, so the only
  // synchronization needed is the deque locks and the final join.
  const auto work = [&](std::size_t w) {
    std::size_t idx = 0;
    while (popOwn(w, idx) || steal(w, idx)) fn(idx);
  };

  if (workers == 1) {
    work(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(work, w);
    for (std::thread& t : pool) t.join();
  }
}

namespace {

/// runTrial through the cache: hit returns the memoized metrics (which a
/// deterministic re-run would reproduce bit-for-bit), miss simulates and
/// memoizes.
TrialMetrics runTrialCached(const std::string& experiment, const JsonValue& config,
                            TrialCache* cache, const TrialOptions& opts) {
  // Self-profiled trials measure host wall-clock, which no cache entry
  // can reproduce — they always simulate and never populate the cache.
  if (cache == nullptr || opts.selfProfile) return runTrial(experiment, config, opts);
  // Telemetry trials carry extra columns, so they memoize under a
  // distinct key — a plain entry must never satisfy a telemetry lookup.
  const std::string key =
      trialKey(opts.telemetry ? experiment + "+telemetry" : experiment, config);
  if (auto hit = cache->lookup(key)) return *hit;
  TrialMetrics m = runTrial(experiment, config, opts);
  cache->insert(key, m);
  return m;
}

}  // namespace

std::vector<TrialMetrics> runTrialBatch(const std::string& experiment,
                                        const std::vector<JsonValue>& configs, std::size_t jobs,
                                        TrialCache* cache, const TrialOptions& opts) {
  std::vector<TrialMetrics> out(configs.size());
  parallelFor(configs.size(), jobs, [&](std::size_t i) {
    out[i] = runTrialCached(experiment, configs[i], cache, opts);
  });
  return out;
}

SweepOutcome runSweep(const SweepSpec& spec, std::size_t jobs, TrialCache* cache,
                      const TrialOptions& opts) {
  std::vector<Trial> trials = expandTrials(spec);
  SweepOutcome out;
  out.name = spec.name;
  out.experiment = spec.experiment;
  out.results.resize(trials.size());
  const std::uint64_t hits0 = cache ? cache->hits() : 0;
  const std::uint64_t misses0 = cache ? cache->misses() : 0;
  parallelFor(trials.size(), jobs, [&](std::size_t idx) {
    TrialResult& slot = out.results[idx];
    slot.trial = std::move(trials[idx]);
    slot.metrics = runTrialCached(spec.experiment, slot.trial.config, cache, opts);
  });
  if (cache != nullptr) {
    out.cacheHits = static_cast<std::size_t>(cache->hits() - hits0);
    out.cacheMisses = static_cast<std::size_t>(cache->misses() - misses0);
  }

  for (const TrialResult& r : out.results) {
    if (!r.metrics.ok) {
      ++out.failures;
      continue;
    }
    out.bandwidthGBs.add(r.metrics.meanGBs);
    out.elapsedSec.add(r.metrics.elapsedSec);
  }
  return out;
}

}  // namespace hcsim::sweep
