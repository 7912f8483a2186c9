#include "workload/workload_spec.hpp"

#include <algorithm>
#include <initializer_list>
#include <map>
#include <set>
#include <stdexcept>

#include "config/fields.hpp"
#include "trace/trace_import.hpp"
#include "util/stats.hpp"
#include "workload/dlio_source.hpp"
#include "workload/grammar_source.hpp"
#include "workload/io500_source.hpp"
#include "workload/ior_source.hpp"
#include "workload/openloop_source.hpp"
#include "workload/replay_source.hpp"

namespace hcsim::workload {

namespace {

constexpr const char* kWhere = "workload";

/// ReplaySource keeps a reference to the trace it replays; this wrapper
/// owns the imported log so the bundle is self-contained.
class OwningReplaySource : public WorkloadSource {
 public:
  OwningReplaySource(TraceLog log, const ReplayConfig& cfg)
      : log_(std::move(log)), inner_(log_, cfg) {}

  const std::string& name() const override { return inner_.name(); }
  WorkloadPlan load(const WorkloadContext& ctx) override { return inner_.load(ctx); }
  NextStatus next(std::size_t rank, WorkloadOp& out) override { return inner_.next(rank, out); }
  void onComplete(std::size_t rank, const WorkloadOp& op, const IoResult& result) override {
    inner_.onComplete(rank, op, result);
  }
  std::size_t skippedOps() const { return inner_.skippedOps(); }

 private:
  TraceLog log_;
  ReplaySource inner_;
};

std::string prefix(const std::string& key) { return std::string(kWhere) + "." + key + ": "; }

/// Read a generator section onto `cfg` through its field list: every
/// key but `others` (the ones the maker reads itself) is a field of
/// Config.
template <class Config>
bool readSection(const JsonValue& w, Config& cfg, std::vector<std::string>& problems,
                 std::initializer_list<const char*> others = {"generator"}) {
  std::string e = readFields(w, cfg, kWhere, others);
  if (e.empty()) return true;
  problems.push_back(std::move(e));
  return false;
}

/// readSection, then the config's cross-field rules.
template <class Config>
bool readValidated(const JsonValue& w, Config& cfg, std::vector<std::string>& problems) {
  if (!readSection(w, cfg, problems)) return false;
  try {
    cfg.validate();
  } catch (const std::exception& ex) {
    problems.push_back(std::string(kWhere) + ": " + ex.what());
    return false;
  }
  return true;
}

SourceBundle makeIor(const JsonValue& w, std::vector<std::string>& problems) {
  IorConfig cfg;
  if (!readValidated(w, cfg, problems)) return {};
  return {std::make_unique<IorSource>(cfg), cfg.nodes};
}

SourceBundle makeDlio(const JsonValue& w, std::vector<std::string>& problems) {
  DlioConfig cfg;
  if (!readValidated(w, cfg, problems)) return {};
  return {std::make_unique<DlioSource>(cfg), cfg.nodes};
}

SourceBundle makeReplay(const JsonValue& w, std::vector<std::string>& problems) {
  const JsonValue* trace = w.find("trace");
  if (trace == nullptr || !trace->isString()) {
    problems.push_back(prefix("trace") + "required path of a chrome-trace JSON file");
    return {};
  }
  ReplayConfig cfg;
  if (!readSection(w, cfg, problems, {"generator", "trace"})) return {};
  TraceLog log;
  if (!readChromeTrace(*trace->str(), log, nullptr)) {
    problems.push_back(prefix("trace") + "cannot import '" + *trace->str() +
                       "' (unreadable, or no salvageable events)");
    return {};
  }
  std::set<std::uint32_t> pids;
  for (const TraceEvent& e : log.events()) pids.insert(e.pid);
  const std::size_t nodes =
      std::max<std::size_t>(1, (pids.size() + cfg.pidsPerNode - 1) / cfg.pidsPerNode);
  return {std::make_unique<OwningReplaySource>(std::move(log), cfg), nodes};
}

SourceBundle makeIo500(const JsonValue& w, std::vector<std::string>& problems) {
  Io500Config cfg;
  if (!readSection(w, cfg, problems)) return {};
  return {std::make_unique<Io500Source>(cfg), cfg.nodes};
}

SourceBundle makeGrammar(const JsonValue& w, std::vector<std::string>& problems) {
  GrammarSpec spec;
  if (!parseGrammarSpec(w, kWhere, spec, problems)) return {};
  const std::size_t nodes = spec.nodes;
  return {std::make_unique<GrammarSource>(std::move(spec)), nodes};
}

SourceBundle makeOpenLoop(const JsonValue& w, std::vector<std::string>& problems) {
  OpenLoopConfig cfg;
  if (!readSection(w, cfg, problems)) return {};
  if (cfg.requestBytes > cfg.objectBytes) {
    problems.push_back(prefix("requestBytes") + "must be <= objectBytes");
    return {};
  }
  return {std::make_unique<OpenLoopSource>(cfg), cfg.nodes()};
}

using Factory = SourceBundle (*)(const JsonValue&, std::vector<std::string>&);

const std::map<std::string, Factory>& registry() {
  static const std::map<std::string, Factory> reg = {
      {"ior", makeIor},         {"dlio", makeDlio},     {"replay", makeReplay},
      {"io500", makeIo500},     {"grammar", makeGrammar}, {"openloop", makeOpenLoop},
  };
  return reg;
}

}  // namespace

std::vector<std::string> knownGenerators() {
  std::vector<std::string> names;
  for (const auto& [name, f] : registry()) names.push_back(name);
  return names;
}

namespace {

std::string generatorList() {
  std::string s;
  for (const std::string& n : knownGenerators()) {
    if (!s.empty()) s += ", ";
    s += n;
  }
  return s;
}

std::string unknownGenerator(const std::string& name) {
  return "workload.generator: unknown generator '" + name + "' (known: " + generatorList() + ")";
}

}  // namespace

void parseWorkloadSpec(const JsonValue& doc, WorkloadRunSpec& out,
                       std::vector<std::string>& problems) {
  out = WorkloadRunSpec{};
  if (!doc.isObject()) {
    problems.push_back("the spec must be a JSON object");
    return;
  }
  parseSpecHeader(doc, out, problems);

  const JsonValue* w = doc.find("workload");
  if (w == nullptr || !w->isObject()) {
    problems.push_back("workload: required object with a 'generator' key");
  } else {
    out.workload = *w;
    out.generator = w->stringOr("generator", "");
    if (out.generator.empty()) {
      problems.push_back("workload.generator: required (one of: " + generatorList() + ")");
    } else if (registry().find(out.generator) == registry().end()) {
      problems.push_back(unknownGenerator(out.generator));
    }
  }

  if (const JsonValue* c = doc.find("chaos")) out.chaos = *c;

  if (const JsonValue* si = doc.find("sampleIntervalSec")) {
    if (!si->isNumber() || *si->number() <= 0.0) {
      problems.push_back("sampleIntervalSec: must be > 0 seconds");
    } else {
      out.sampleIntervalSec = *si->number();
    }
  }

  {
    bool needsTimeline = false;
    bool needsRecovery = false;
    for (const probe::MonitorSpec& m : out.monitors) {
      if (m.metric != probe::MonitorMetric::P99OpLatencySec) needsTimeline = true;
      if (m.metric == probe::MonitorMetric::RecoverySec) needsRecovery = true;
    }
    if (needsRecovery && out.chaos.isNull()) {
      problems.push_back(
          "monitors: recoverySec requires a 'chaos' section with a restore event");
    }
    // Closed-loop generators have no goodput timeline of their own, so
    // slice-based monitors need the explicit interval knob.
    if (needsTimeline && out.generator != "openloop" && out.sampleIntervalSec <= 0.0) {
      problems.push_back(
          "monitors: goodputGBs/stallSec/recoverySec watch the goodput timeline; set a "
          "top-level 'sampleIntervalSec' (> 0) to sample closed-loop generators");
    }
  }
}

SourceBundle makeSource(const WorkloadRunSpec& spec, std::vector<std::string>& problems) {
  const auto it = registry().find(spec.generator);
  if (it == registry().end()) {
    problems.push_back(unknownGenerator(spec.generator));
    return {};
  }
  return it->second(spec.workload, problems);
}

chaos::ChaosLandmarks injectWorkloadChaos(const WorkloadRunSpec& spec, Environment& env) {
  return chaos::injectSection(spec.chaos, env, kWhere);
}

WorkloadOutcome runWorkload(Environment& env, const WorkloadRunSpec& spec,
                            WorkloadSource& source, TraceLog* trace,
                            const chaos::ChaosLandmarks* landmarks) {
  WorkloadRunner runner(*env.bench, *env.fs);
  runner.setTraceLog(trace);
  if (spec.retryEnabled) runner.enableRetry(spec.retry);
  if (spec.sampleIntervalSec > 0.0) runner.setSampleInterval(spec.sampleIntervalSec);
  if (!spec.monitors.empty()) {
    runner.setMonitors(spec.monitors);
    if (landmarks != nullptr && landmarks->any) {
      runner.setChaosLandmarks(landmarks->firstFaultAt, landmarks->lastRestoreAt,
                               landmarks->degradedTolerance);
    }
  }
  return runner.run(source);
}

std::string toJsonl(const WorkloadOutcome& out) {
  std::string all;
  JsonObject s;
  s["type"] = "summary";
  s["generator"] = out.generator;
  s["elapsedSec"] = out.elapsed;
  s["simElapsedSec"] = out.simElapsed;
  s["bytes"] = static_cast<double>(out.bytesMoved);
  s["goodputGBs"] = out.goodputGBs();
  s["opsIssued"] = static_cast<double>(out.opsIssued);
  s["opsCompleted"] = static_cast<double>(out.opsCompleted);
  s["opsFailed"] = static_cast<double>(out.opsFailed);
  s["metaOps"] = static_cast<double>(out.metaOps);
  s["computeOps"] = static_cast<double>(out.computeOps);
  s["barriers"] = static_cast<double>(out.barriers);
  s["retries"] = static_cast<double>(out.retries);
  s["lateCompletions"] = static_cast<double>(out.lateCompletions);
  if (out.clientsPerRank > 1) {
    // Aggregation shape, only when flow classes are in play — legacy
    // runs keep their summary line byte-identical.
    s["classes"] = static_cast<double>(out.ranks);
    s["clientsPerRank"] = static_cast<double>(out.clientsPerRank);
    s["clientsTotal"] = static_cast<double>(out.clientsTotal());
  }
  if (out.opLatencies.empty()) {
    s["opLatency"] = JsonValue();  // null, not zeros: nothing was collected
  } else {
    const Summary lat = summarize(out.opLatencies);
    JsonObject l;
    l["count"] = static_cast<double>(lat.count);
    l["p50"] = lat.p50;
    l["p95"] = lat.p95;
    l["p99"] = lat.p99;
    s["opLatency"] = JsonValue(std::move(l));
  }
  all += writeJson(JsonValue(std::move(s))) + "\n";
  for (const WorkloadSample& w : out.timeline) {
    JsonObject o;
    o["type"] = "sample";
    o["t0"] = w.start;
    o["t1"] = w.end;
    o["gbs"] = w.gbs;
    all += writeJson(JsonValue(std::move(o))) + "\n";
  }
  return all;
}

std::string toCsv(const WorkloadOutcome& out) {
  std::string csv = "t0,t1,gbs\n";
  for (const WorkloadSample& w : out.timeline) {
    csv += writeJson(JsonValue(w.start)) + "," + writeJson(JsonValue(w.end)) + "," +
           writeJson(JsonValue(w.gbs)) + "\n";
  }
  return csv;
}

}  // namespace hcsim::workload
