#include "chaos/chaos_runner.hpp"

#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

#include "net/topology.hpp"
#include "probe/flight_recorder.hpp"
#include "scale/flow_class.hpp"
#include "util/units.hpp"
#include "workload/workload_runner.hpp"

namespace hcsim::chaos {

namespace {

std::string componentKey(const FaultSpec& f) {
  if (f.component == "link") return "link:" + f.link;
  return f.component + ":" + std::to_string(f.index);
}

/// Components not healthy just before time `t` (events at exactly `t` are
/// part of the next slice, so they are strictly excluded).
std::size_t activeFaultsBefore(const ChaosSpec& spec, Seconds t) {
  std::map<std::string, bool> unhealthy;
  for (const ChaosEvent& ev : spec.events) {
    if (ev.at >= t) break;  // validated non-decreasing
    unhealthy[componentKey(ev.fault)] = ev.fault.action != FaultAction::Restore;
  }
  std::size_t n = 0;
  for (const auto& [key, bad] : unhealthy) {
    (void)key;
    if (bad) ++n;
  }
  return n;
}

/// Landmarks of a validated (time-ordered) schedule.
ChaosLandmarks landmarksOf(const ChaosSpec& spec) {
  ChaosLandmarks lm;
  lm.any = !spec.events.empty();
  lm.firstFaultAt = lm.any ? spec.events.front().at : std::numeric_limits<Seconds>::infinity();
  lm.degradedTolerance = spec.degradedTolerance;
  for (const ChaosEvent& ev : spec.events) {
    if (ev.fault.action == FaultAction::Restore) lm.lastRestoreAt = ev.at;
  }
  return lm;
}

/// Background rebuild traffic accounting for scheduleFaults.
struct RebuildStats {
  Bytes bytes = 0;             ///< resync bytes that finished draining
  Seconds completedAt = -1.0;  ///< when the last rebuild flow drained
};

/// Apply event `i` of a schedule now. A restore event with rebuildGiB
/// starts its background flow and records into `stats` when given.
void strike(Environment& env, const ChaosEvent& ev, std::size_t i, RebuildStats* stats) {
  Topology& topo = env.bench->topo();
  FlowNetwork& net = topo.network();
  if (probe::FlightRecorder* rec = env.bench->sim().recorder()) {
    if (ev.fault.action == FaultAction::Restore) {
      rec->record(env.bench->sim().now(), probe::RecordKind::FaultRestore,
                  static_cast<std::uint32_t>(i), ev.rebuildGiB);
    } else {
      rec->record(env.bench->sim().now(), probe::RecordKind::FaultInject,
                  static_cast<std::uint32_t>(i),
                  ev.fault.action == FaultAction::FailSlow ? ev.fault.severity : 0.0);
    }
  }
  if (ev.fault.component == "link") {
    const double h = ev.fault.action == FaultAction::Fail        ? 0.0
                     : ev.fault.action == FaultAction::FailSlow ? ev.fault.severity
                                                                : 1.0;
    net.setLinkHealth(topo.link(ev.fault.link), h);
  } else {
    env.fs->applyFault(ev.fault);
  }
  if (ev.fault.action == FaultAction::Restore && ev.rebuildGiB > 0.0) {
    // Background resync: the restored component re-reads its share of
    // data over the model's rebuild route, contending with clients.
    const Route route = env.fs->rebuildRoute(ev.fault);
    if (!route.empty()) {
      FlowSpec rf;
      rf.bytes = static_cast<Bytes>(ev.rebuildGiB * static_cast<double>(units::GiB));
      rf.route = route;
      rf.spanName = "rebuild";
      net.startFlow(rf, [stats](const FlowCompletion& c) {
        if (stats == nullptr) return;
        stats->bytes += c.bytes;
        stats->completedAt = c.endTime;
      });
    }
  }
}

/// Put a validated fault list onto the environment. An event whose time
/// has already come (atSec 0 on a fresh environment) strikes at once,
/// before the run issues its first op, so it reads the same as the
/// component being down before the run; every later event is a
/// simulator event at its atSec.
void scheduleFaults(Environment& env, const std::vector<ChaosEvent>& events,
                    RebuildStats* stats = nullptr) {
  Simulator& sim = env.bench->sim();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ChaosEvent& ev = events[i];
    if (ev.at <= sim.now()) {
      strike(env, ev, i, stats);
    } else {
      sim.scheduleAt(ev.at, [&env, stats, ev, i] { strike(env, ev, i, stats); });
    }
  }
}

/// The drill's foreground as a closed-loop source: every rank keeps one
/// request-sized op in flight until the horizon. Rank r is client
/// {r / ppn, r % ppn} on its own file r; sequential patterns advance a
/// per-rank cursor, random ones hit offset 0. With clientsPerProc > 1
/// each rank is a flow class of that many identical clients.
class DrillSource final : public workload::WorkloadSource {
 public:
  explicit DrillSource(const ChaosSpec& spec) : spec_(spec) {}

  const std::string& name() const override { return name_; }

  workload::WorkloadPlan load(const workload::WorkloadContext& ctx) override {
    const ChaosWorkload& w = spec_.workload;
    sim_ = ctx.sim;
    end_ = sim_->now() + spec_.horizon;
    workload::WorkloadPlan plan;
    plan.ranks = w.nodes * w.procsPerNode;
    plan.phase.pattern = w.access;
    plan.phase.requestSize = w.requestBytes;
    plan.phase.nodes = static_cast<std::uint32_t>(w.nodes);
    plan.phase.procsPerNode = static_cast<std::uint32_t>(w.procsPerNode);
    plan.phase.readerDiffersFromWriter = true;
    plan.clientsPerRank = static_cast<std::uint32_t>(w.clientsPerProc);
    plan.sampleIntervalSec = spec_.interval;
    plan.horizonSec = spec_.horizon;  // a timed closed-loop run
    busy_.assign(plan.ranks, false);
    cursor_.assign(plan.ranks, 0);
    return plan;
  }

  workload::NextStatus next(std::size_t rank, workload::WorkloadOp& out) override {
    if (busy_[rank]) return workload::NextStatus::Wait;
    if (sim_->now() >= end_) return workload::NextStatus::End;
    const ChaosWorkload& w = spec_.workload;
    IoRequest& req = out.io;
    req.client = ClientId{static_cast<std::uint32_t>(rank / w.procsPerNode),
                          static_cast<std::uint32_t>(rank % w.procsPerNode)};
    req.fileId = rank;
    req.bytes = w.requestBytes;
    req.pattern = w.access;
    if (w.access == AccessPattern::SequentialWrite || w.access == AccessPattern::SequentialRead) {
      req.offset = cursor_[rank];
      cursor_[rank] += w.requestBytes;
    }
    busy_[rank] = true;
    return workload::NextStatus::Op;
  }

  void onComplete(std::size_t rank, const workload::WorkloadOp&, const IoResult&) override {
    busy_[rank] = false;
  }

 private:
  const ChaosSpec& spec_;
  const std::string name_ = "chaos";
  Simulator* sim_ = nullptr;
  SimTime end_ = 0.0;
  std::vector<bool> busy_;
  std::vector<Bytes> cursor_;
};

}  // namespace

ChaosLandmarks injectSection(const JsonValue& section, Environment& env, const std::string& who) {
  if (section.isNull()) return {};
  ChaosSpec cs;
  std::string err;
  if (!parseChaosSpec(section, cs, err)) {
    throw std::invalid_argument(who + ": 'chaos' section: " + err);
  }
  if (cs.events.empty()) return {};
  // The host run owns the clock, so there is no horizon to check against.
  cs.horizon = std::numeric_limits<double>::infinity();
  cs.interval = 1.0;
  const std::vector<std::string> problems = validateSchedule(cs, *env.fs, env.bench->topo());
  if (!problems.empty()) {
    std::string msg = who + ": 'chaos' section:";
    for (const std::string& p : problems) msg += " " + p + ";";
    throw std::invalid_argument(msg);
  }
  scheduleFaults(env, cs.events);
  return landmarksOf(cs);
}

ChaosOutcome runChaosOn(Environment& env, const ChaosSpec& spec) {
  const std::vector<std::string> problems = validateSchedule(spec, *env.fs, env.bench->topo());
  if (!problems.empty()) {
    std::string msg = "chaos: invalid scenario:";
    for (const std::string& p : problems) msg += "\n  - " + p;
    throw std::invalid_argument(msg);
  }

  RebuildStats rebuild;
  scheduleFaults(env, spec.events, &rebuild);
  const ChaosLandmarks lm = landmarksOf(spec);
  workload::WorkloadRunner runner(*env.bench, *env.fs);
  if (spec.retryEnabled) runner.enableRetry(spec.retry);
  runner.setMonitors(spec.monitors);
  runner.setChaosLandmarks(lm.firstFaultAt, lm.lastRestoreAt, lm.degradedTolerance);
  DrillSource source(spec);
  const workload::WorkloadOutcome r = runner.run(source);

  ChaosOutcome out;
  out.name = spec.name;
  out.site = spec.site;
  out.storage = spec.storage;
  out.flowClasses = r.ranks;
  out.clientsTotal = r.clientsTotal();
  out.foregroundBytes = r.bytesMoved;
  out.retries = r.retries;
  out.failedOps = r.opsFailed / r.clientsPerRank;  // per class op, as the retry layer bills
  out.lateCompletions = r.lateCompletions;
  out.rebuildBytes = rebuild.bytes;
  out.rebuildCompletedAt = rebuild.completedAt;
  out.monitors = r.monitors;
  out.breaches = r.breaches;
  for (const workload::WorkloadSample& s : r.timeline) {
    IntervalSample slice;
    slice.start = s.start;
    slice.end = s.end;
    slice.gbs = s.gbs;
    slice.activeFaults = activeFaultsBefore(spec, s.end);
    slice.retries = s.retries;
    out.timeline.push_back(slice);
  }

  // ---- Availability metrics over the timeline. ----
  if (!out.timeline.empty()) {
    double healthySum = 0.0;
    std::size_t healthyN = 0;
    double sum = 0.0;
    out.minGBs = std::numeric_limits<double>::infinity();
    for (const IntervalSample& s : out.timeline) {
      sum += s.gbs;
      out.minGBs = std::min(out.minGBs, s.gbs);
      out.maxGBs = std::max(out.maxGBs, s.gbs);
      if (s.end <= lm.firstFaultAt + 1e-9) {
        healthySum += s.gbs;
        ++healthyN;
      }
    }
    out.meanGBs = sum / static_cast<double>(out.timeline.size());
    // Steady state before the first fault; when the schedule strikes
    // before the first slice closes, the best observed slice stands in.
    out.healthyGBs = healthyN > 0 ? healthySum / static_cast<double>(healthyN) : out.maxGBs;
    out.finalGBs = out.timeline.back().gbs;

    const double floor_ = out.healthyGBs * (1.0 - spec.degradedTolerance);
    for (IntervalSample& s : out.timeline) {
      s.degraded = s.gbs < floor_;
      if (s.degraded) out.degradedSeconds += s.end - s.start;
    }

    if (lm.lastRestoreAt >= 0.0) {
      for (const IntervalSample& s : out.timeline) {
        if (s.start >= lm.lastRestoreAt - 1e-9 && !s.degraded) {
          out.timeToRecover = s.end - lm.lastRestoreAt;
          break;
        }
      }
    }
  }
  return out;
}

ChaosOutcome runChaos(const ChaosSpec& spec) {
  Environment env = makeEnvironment(spec, spec.workload.nodes);
  return runChaosOn(env, spec);
}

ResultTable renderTimeline(const ChaosOutcome& out) {
  ResultTable t("chaos: " + out.name + " (" + toString(out.storage) + " @ " +
                toString(out.site) + ")");
  t.setHeader({"t0(s)", "t1(s)", "GB/s", "faults", "retries", "state"});
  for (const IntervalSample& s : out.timeline) {
    t.addRow({s.start, s.end, s.gbs, static_cast<double>(s.activeFaults),
              static_cast<double>(s.retries),
              std::string(s.degraded ? "DEGRADED" : "ok")});
  }
  return t;
}

std::string toJsonl(const ChaosOutcome& out) {
  std::ostringstream os;
  {
    JsonObject summary;
    summary["healthyGBs"] = out.healthyGBs;
    summary["meanGBs"] = out.meanGBs;
    summary["minGBs"] = out.minGBs;
    summary["maxGBs"] = out.maxGBs;
    summary["finalGBs"] = out.finalGBs;
    summary["degradedSec"] = out.degradedSeconds;
    summary["timeToRecoverSec"] = out.timeToRecover;
    summary["retries"] = static_cast<double>(out.retries);
    summary["failedOps"] = static_cast<double>(out.failedOps);
    summary["lateCompletions"] = static_cast<double>(out.lateCompletions);
    summary["foregroundBytes"] = static_cast<double>(out.foregroundBytes);
    summary["rebuildBytes"] = static_cast<double>(out.rebuildBytes);
    summary["rebuildCompletedAtSec"] = out.rebuildCompletedAt;
    JsonObject root;
    root["scenario"] = out.name;
    root["site"] = std::string(toString(out.site));
    root["storage"] = std::string(toString(out.storage));
    root["summary"] = JsonValue(std::move(summary));
    os << writeJson(JsonValue(std::move(root))) << "\n";
  }
  for (std::size_t i = 0; i < out.timeline.size(); ++i) {
    const IntervalSample& s = out.timeline[i];
    JsonObject row;
    row["interval"] = static_cast<double>(i);
    row["startSec"] = s.start;
    row["endSec"] = s.end;
    row["GBs"] = s.gbs;
    row["activeFaults"] = static_cast<double>(s.activeFaults);
    row["retries"] = static_cast<double>(s.retries);
    row["degraded"] = s.degraded;
    os << writeJson(JsonValue(std::move(row))) << "\n";
  }
  return os.str();
}

void exportTo(const ChaosOutcome& out, telemetry::MetricsRegistry& reg) {
  if (out.clientsTotal > out.flowClasses) {
    scale::exportTo(scale::ClassStats{out.flowClasses, out.clientsTotal}, reg);
  }
  if (out.monitors > 0) {
    reg.gauge("probe.monitors", static_cast<double>(out.monitors));
    reg.gauge("probe.breaches", static_cast<double>(out.breaches.size()));
  }
  reg.gauge("chaos.healthy_gbs", out.healthyGBs);
  reg.gauge("chaos.mean_gbs", out.meanGBs);
  reg.gauge("chaos.min_gbs", out.minGBs);
  reg.gauge("chaos.final_gbs", out.finalGBs);
  reg.gauge("chaos.degraded_sec", out.degradedSeconds);
  reg.gauge("chaos.time_to_recover_sec", out.timeToRecover);
  reg.gauge("chaos.retries", static_cast<double>(out.retries));
  reg.gauge("chaos.failed_ops", static_cast<double>(out.failedOps));
  reg.gauge("chaos.late_completions", static_cast<double>(out.lateCompletions));
  reg.gauge("chaos.rebuild_bytes", static_cast<double>(out.rebuildBytes));
}

}  // namespace hcsim::chaos
