#include "workload/workload_runner.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "probe/flight_recorder.hpp"
#include "scale/flow_class.hpp"
#include "telemetry/metrics_registry.hpp"

namespace hcsim::workload {

void exportTo(const WorkloadOutcome& out, telemetry::MetricsRegistry& reg) {
  reg.gauge("workload.ops.issued", static_cast<double>(out.opsIssued));
  reg.gauge("workload.ops.completed", static_cast<double>(out.opsCompleted));
  reg.gauge("workload.ops.failed", static_cast<double>(out.opsFailed));
  reg.gauge("workload.ops.meta", static_cast<double>(out.metaOps));
  reg.gauge("workload.ops.compute", static_cast<double>(out.computeOps));
  reg.gauge("workload.barriers", static_cast<double>(out.barriers));
  reg.gauge("workload.bytes", static_cast<double>(out.bytesMoved));
  reg.gauge("workload.elapsedSec", out.elapsed);
  reg.gauge("workload.goodputGBs", out.goodputGBs());
  reg.gauge("workload.retries", static_cast<double>(out.retries));
  reg.gauge("workload.lateCompletions", static_cast<double>(out.lateCompletions));
  scale::exportTo(scale::ClassStats{out.ranks, out.clientsTotal()}, reg);
  if (out.monitors > 0) {
    reg.gauge("probe.monitors", static_cast<double>(out.monitors));
    reg.gauge("probe.breaches", static_cast<double>(out.breaches.size()));
  }
}

// The per-run state machine. Completion callbacks never outlive the
// run() stack frame: sim.run() drains everything before Impl dies. A
// timed run is the exception — its in-flight ops stay pending, never to
// be dispatched (see WorkloadRunner::run).
struct WorkloadRunner::Impl {
  WorkloadSource* source = nullptr;
  Simulator* sim = nullptr;
  FileSystemModel* fs = nullptr;
  TraceLog* trace = nullptr;
  WorkloadPlan plan;
  WorkloadOutcome out;

  struct RankState {
    std::unique_ptr<ClientSession> session;
    bool ended = false;
    bool atBarrier = false;
    WorkloadOp barrierOp;
    std::size_t outstanding = 0;
    SimTime nextArrival = 0.0;  ///< open mode: last scheduled arrival time
  };
  std::vector<RankState> ranks;
  std::size_t live = 0;
  std::size_t outstandingTotal = 0;
  bool releasingBarrier = false;
  SimTime start = 0.0;
  SimTime lastEnd = 0.0;
  Bytes sampledBytes = 0;
  std::uint64_t sampledRetries = 0;

  // SLO watchdog (owned by run(); outlives every sim callback).
  probe::WatchdogSet* watchdog = nullptr;
  bool haveLandmarks = false;
  SimTime firstFaultAt = std::numeric_limits<double>::infinity();
  SimTime lastRestoreAt = -1.0;
  double degradedTolerance = 0.02;
  struct {
    double sum = 0.0;
    std::size_t n = 0;
    double best = 0.0;
  } healthy;  ///< pre-fault slices, for the recovery floor

  // ---- closed mode: completion-driven chains/pipelines ----

  /// Pull ops from the rank until it blocks (Wait), parks (Barrier) or
  /// finishes (End). Callers follow up with maybeReleaseBarrier().
  void drain(std::size_t rank) {
    RankState& st = ranks[rank];
    while (!st.ended && !st.atBarrier) {
      WorkloadOp op;
      const NextStatus s = source->next(rank, op);
      if (s == NextStatus::Wait) return;
      if (s == NextStatus::End) {
        st.ended = true;
        --live;
        return;
      }
      if (op.kind == OpKind::Barrier) {
        st.atBarrier = true;
        st.barrierOp = std::move(op);
        return;
      }
      issue(rank, std::move(op));
    }
  }

  bool barrierReady() const {
    if (live == 0 || outstandingTotal != 0) return false;
    for (const RankState& st : ranks) {
      if (!st.ended && !st.atBarrier) return false;
    }
    return true;
  }

  /// Release the barrier once every live rank is parked and the pipes
  /// are empty; loops so back-to-back barriers cannot deadlock.
  void maybeReleaseBarrier() {
    if (releasingBarrier) return;
    releasingBarrier = true;
    while (barrierReady()) {
      ++out.barriers;
      probe::FlightRecorder* rec = sim->recorder();
      if (rec != nullptr) {
        rec->record(sim->now(), probe::RecordKind::Barrier,
                    static_cast<std::uint32_t>(out.barriers), static_cast<double>(live));
      }
      const WorkloadOp* gate = nullptr;
      for (RankState& st : ranks) {
        if (!st.ended) {
          gate = &st.barrierOp;
          break;
        }
      }
      if (gate != nullptr && gate->switchPhase) {
        // All foreground I/O is drained, so the model may legally end the
        // phase and re-declare the next one (io500 write -> read).
        if (rec != nullptr) {
          rec->record(sim->now(), probe::RecordKind::PhaseSwitch,
                      static_cast<std::uint32_t>(out.barriers), static_cast<double>(live));
        }
        fs->endPhase();
        fs->beginPhase(gate->phase);
      }
      for (RankState& st : ranks) st.atBarrier = false;
      for (std::size_t r = 0; r < ranks.size(); ++r) {
        if (!ranks[r].ended) drain(r);
      }
    }
    releasingBarrier = false;
  }

  // ---- open mode: arrival-driven (Poisson clients) ----

  void scheduleArrival(std::size_t rank) {
    RankState& st = ranks[rank];
    WorkloadOp op;
    if (source->next(rank, op) != NextStatus::Op) {
      st.ended = true;
      --live;
      return;
    }
    st.nextArrival += op.arrivalDelay;
    auto held = std::make_shared<WorkloadOp>(std::move(op));
    sim->scheduleAt(st.nextArrival, [this, rank, held] {
      issue(rank, std::move(*held));
      scheduleArrival(rank);
    });
  }

  // ---- shared issue/complete paths ----

  void issue(std::size_t rank, WorkloadOp op) {
    RankState& st = ranks[rank];
    switch (op.kind) {
      case OpKind::Io: {
        // Flow classes: each rank's ops carry the plan's member count
        // (composing with any members the source set itself), so the
        // stack below sees one request standing for that many clients.
        if (plan.clientsPerRank > 1) {
          op.io.members = std::max<std::uint32_t>(1, op.io.members) * plan.clientsPerRank;
        }
        out.opsIssued += std::max<std::uint32_t>(1, op.io.members);
        ++st.outstanding;
        ++outstandingTotal;
        auto held = std::make_shared<WorkloadOp>(std::move(op));
        st.session->submitRequest(held->io, [this, rank, held](const IoResult& r) {
          onIoComplete(rank, *held, r);
        });
        return;
      }
      case OpKind::Meta: {
        ++out.metaOps;
        ++st.outstanding;
        ++outstandingTotal;
        auto held = std::make_shared<WorkloadOp>(std::move(op));
        fs->submitMeta(held->meta, [this, rank, held](const IoResult& r) {
          lastEnd = std::max(lastEnd, r.endTime);
          finishOp(rank, *held, r);
        });
        return;
      }
      case OpKind::Compute: {
        ++out.computeOps;
        if (trace != nullptr && op.traced) {
          trace->recordCompute(op.tracePid, op.traceTid, sim->now(), op.compute, op.label);
        }
        ++st.outstanding;
        ++outstandingTotal;
        auto held = std::make_shared<WorkloadOp>(std::move(op));
        sim->schedule(held->compute, [this, rank, held] {
          IoResult r;
          r.endTime = sim->now();
          r.startTime = r.endTime - held->compute;
          lastEnd = std::max(lastEnd, r.endTime);
          finishOp(rank, *held, r);
        });
        return;
      }
      case OpKind::Barrier:
        // Barriers never reach issue(): drain() parks the rank instead,
        // and open mode does not support them.
        throw std::logic_error("WorkloadRunner: barrier op in open-loop stream");
    }
  }

  void onIoComplete(std::size_t rank, const WorkloadOp& op, const IoResult& r) {
    lastEnd = std::max(lastEnd, r.endTime);
    // r.bytes is already the aggregate payload (the class completion
    // reports bytes * members); the op counters scale explicitly.
    const std::uint64_t members = std::max<std::uint32_t>(1, op.io.members);
    if (r.failed) {
      out.opsFailed += members;
    } else {
      out.bytesMoved += r.bytes;
      out.opsCompleted += members;
    }
    if (plan.collectOpLatency && !r.failed) out.opLatencies.push_back(r.elapsed());
    if (watchdog != nullptr && !r.failed) watchdog->observeOpLatency(r.endTime - start, r.elapsed());
    if (trace != nullptr && op.traced) {
      const bool rd = isRead(op.io.pattern);
      trace->record(TraceEvent{op.label, rd ? TraceEventKind::Read : TraceEventKind::Write,
                               op.tracePid, op.traceTid, r.startTime, r.elapsed(), r.bytes});
    }
    finishOp(rank, op, r);
  }

  void finishOp(std::size_t rank, const WorkloadOp& op, const IoResult& r) {
    --ranks[rank].outstanding;
    --outstandingTotal;
    source->onComplete(rank, op, r);
    if (plan.mode == DriveMode::Closed) {
      drain(rank);
      maybeReleaseBarrier();
    }
  }

  // ---- goodput timeline sampling ----

  /// Feed one closed slice to the watchdog. Chaos landmarks (when the
  /// run carries a fault schedule) drive the recovery floor: the healthy
  /// estimate is the mean of slices that close before the first fault —
  /// the best slice so far when none does — and the recovery clock
  /// starts at the last restore.
  void feedWatchdog(const WorkloadSample& s) {
    if (watchdog == nullptr) return;
    if (haveLandmarks) {
      if (start + s.end <= firstFaultAt + 1e-9) {
        healthy.sum += s.gbs;
        ++healthy.n;
      }
      healthy.best = std::max(healthy.best, s.gbs);
      if (lastRestoreAt >= 0.0) {
        const double estimate =
            healthy.n > 0 ? healthy.sum / static_cast<double>(healthy.n) : healthy.best;
        watchdog->setRecoveryContext(lastRestoreAt - start, estimate, degradedTolerance);
      }
    }
    watchdog->observeSlice(s.start, s.end, s.gbs);
  }

  std::uint64_t retriesSoFar() const {
    std::uint64_t n = 0;
    for (const RankState& st : ranks) n += st.session->retries();
    return n;
  }

  /// Plans with a horizon sample up to it, closing on a partial slice
  /// when the interval does not divide the horizon. Closed plans without
  /// one have no natural end, so sampling stops at the first slice
  /// boundary after the workload drains.
  void scheduleSample(std::size_t slice) {
    const SimTime from = static_cast<SimTime>(slice) * plan.sampleIntervalSec;
    SimTime end = start + static_cast<SimTime>(slice + 1) * plan.sampleIntervalSec;
    Seconds width = plan.sampleIntervalSec;
    if (plan.horizonSec > 0.0 && end > start + plan.horizonSec + 1e-9) {
      if (from >= plan.horizonSec - 1e-9) return;
      end = start + plan.horizonSec;
      width = plan.horizonSec - from;
    }
    sim->scheduleAt(end, [this, slice, from, end, width] {
      WorkloadSample s;
      s.start = from;
      s.end = end - start;
      s.gbs = static_cast<double>(out.bytesMoved - sampledBytes) / width / 1e9;
      const std::uint64_t retries = retriesSoFar();
      s.retries = retries - sampledRetries;
      sampledBytes = out.bytesMoved;
      sampledRetries = retries;
      out.timeline.push_back(s);
      if (probe::FlightRecorder* rec = sim->recorder()) {
        rec->record(end, probe::RecordKind::GoodputSample,
                    static_cast<std::uint32_t>(slice), s.gbs);
      }
      feedWatchdog(s);
      if (plan.horizonSec <= 0.0 && live == 0 && outstandingTotal == 0) return;
      scheduleSample(slice + 1);
    });
  }
};

WorkloadOutcome WorkloadRunner::run(WorkloadSource& source) {
  Impl impl;
  impl.source = &source;
  impl.sim = &bench_.sim();
  impl.fs = &fs_;
  impl.trace = trace_;
  WorkloadContext ctx;
  ctx.fs = &fs_;
  ctx.sim = impl.sim;
  impl.plan = source.load(ctx);
  if (sampleIntervalOverride_ > 0.0) impl.plan.sampleIntervalSec = sampleIntervalOverride_;
  impl.out.generator = source.name();
  impl.out.ranks = impl.plan.ranks;
  impl.out.clientsPerRank = std::max<std::uint32_t>(1, impl.plan.clientsPerRank);

  probe::WatchdogSet watchdog(monitors_);
  impl.out.monitors = watchdog.monitorCount();
  if (watchdog.active()) {
    impl.watchdog = &watchdog;
    watchdog.setRecorder(impl.sim->recorder());
    impl.haveLandmarks = haveLandmarks_;
    impl.firstFaultAt = firstFaultAt_;
    impl.lastRestoreAt = lastRestoreAt_;
    impl.degradedTolerance = degradedTolerance_;
  }

  fs_.beginPhase(impl.plan.phase);
  impl.start = impl.sim->now();
  impl.lastEnd = impl.start;
  impl.ranks.resize(impl.plan.ranks);
  for (Impl::RankState& st : impl.ranks) {
    // Requests carry their own client and file; the session only adds
    // the retry layer.
    st.session = std::make_unique<ClientSession>(fs_, ClientId{}, 0);
    if (retryEnabled_) st.session->enableRetry(*impl.sim, retry_);
    st.nextArrival = impl.start;
  }
  impl.live = impl.plan.ranks;

  if (impl.plan.mode == DriveMode::Closed) {
    for (std::size_t r = 0; r < impl.ranks.size(); ++r) impl.drain(r);
    impl.maybeReleaseBarrier();
  } else {
    for (std::size_t r = 0; r < impl.ranks.size(); ++r) impl.scheduleArrival(r);
  }
  // Plans with a horizon sample over it as before; closed plans without
  // one only sample when the interval was set explicitly (the spec knob
  // or setSampleInterval) so existing closed runs stay byte-identical.
  const bool closedSampling =
      impl.plan.mode == DriveMode::Closed && sampleIntervalOverride_ > 0.0;
  if (impl.plan.sampleIntervalSec > 0.0 && (impl.plan.horizonSec > 0.0 || closedSampling)) {
    impl.scheduleSample(0);
  }

  const bool timed = impl.plan.mode == DriveMode::Closed && impl.plan.horizonSec > 0.0;
  if (timed) {
    impl.sim->runUntil(impl.start + impl.plan.horizonSec);
  } else {
    impl.sim->run();
  }
  fs_.endPhase();

  if (!timed && impl.outstandingTotal != 0) {
    throw std::logic_error("WorkloadRunner: simulation drained with outstanding I/O");
  }
  if (!timed && impl.live != 0) {
    throw std::logic_error("WorkloadRunner: simulation drained with live ranks");
  }

  WorkloadOutcome out = std::move(impl.out);
  out.elapsed = impl.lastEnd - impl.start;
  out.simElapsed = impl.sim->now() - impl.start;
  out.retries = impl.retriesSoFar();
  for (const Impl::RankState& st : impl.ranks) {
    out.lateCompletions += st.session->lateCompletions();
  }
  if (watchdog.active()) {
    watchdog.finish(out.simElapsed);
    out.breaches = watchdog.breaches();
  }
  return out;
}

}  // namespace hcsim::workload
