#include "sweep/result_sink.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace hcsim::sweep {

namespace {

JsonValue paramsObject(const Trial& trial) {
  JsonObject o;
  for (const auto& [path, v] : trial.params) o[path] = deepCopy(v);
  return JsonValue(std::move(o));
}

std::string csvField(const JsonValue& v) {
  if (const std::string* s = v.str()) {
    if (s->find_first_of(",\"\n") == std::string::npos) return *s;
    std::string quoted = "\"";
    for (char c : *s) {
      if (c == '"') quoted += '"';
      quoted += c;
    }
    quoted += '"';
    return quoted;
  }
  return writeJson(v);
}

using M = TrialMetrics;

/// One metric column: its key in the JSONL metrics object (inside its
/// block's sub-object, if any), its CSV header, and the TrialMetrics
/// member behind it — a number, or for dominantStage a string.
struct Column {
  const char* key;
  const char* csv;
  double M::*number;
  std::string M::*text = nullptr;
};

/// An optional group of columns. `shown` puts the block's sub-object in
/// the JSONL and its columns in the CSV; `filled` says the values exist.
/// A shown but unfilled block is JSON null and blank CSV cells.
struct Block {
  const char* key;
  bool M::*shown;
  bool M::*filled;
  std::vector<Column> columns;
};

/// Every successful trial carries these, at the top level of its
/// metrics object.
const Column kBase[] = {
    {"meanGBs", "meanGBs", &M::meanGBs},
    {"minGBs", "minGBs", &M::minGBs},
    {"maxGBs", "maxGBs", &M::maxGBs},
    {"elapsedSec", "elapsedSec", &M::elapsedSec},
    {"bytes", "bytes", &M::bytesMoved},
};

/// In CSV column order. A block a run does not use leaves the line and
/// the header byte-identical to a build without that feature, and each
/// block follows every older one, so older headers stay byte-prefixes.
const Block kBlocks[] = {
    // Latency-capable trials (ior, workload) always carry the key: null
    // states "this run had no per-op operations" (e.g. IOR Coalesced
    // mode), which a zero-filled summary would silently misreport.
    {"opLatency", &M::latencyCapable, &M::hasOpLatency,
     {{"count", "opCount", &M::opCount},
      {"p50", "opP50", &M::opP50},
      {"p95", "opP95", &M::opP95},
      {"p99", "opP99", &M::opP99}}},
    {"telemetry", &M::hasTelemetry, &M::hasTelemetry,
     {{"rerates", "rerates", &M::rerates},
      {"eventsScheduled", "eventsScheduled", &M::eventsScheduled},
      {"eventsCancelled", "eventsCancelled", &M::eventsCancelled},
      {"eventsAdjusted", "eventsAdjusted", &M::eventsAdjusted},
      {"eventsDispatched", "eventsDispatched", &M::eventsDispatched},
      {"dominantStage", "dominantStage", nullptr, &M::dominantStage},
      {"dominantSharePct", "dominantSharePct", &M::dominantSharePct}}},
    {"probe", &M::hasMonitors, &M::hasMonitors,
     {{"monitors", "monitors", &M::monitors}, {"breaches", "breaches", &M::breaches}}},
    {"self", &M::hasSelf, &M::hasSelf,
     {{"dispatchSec", "selfDispatchSec", &M::selfDispatchSec},
      {"callbackSec", "selfCallbackSec", &M::selfCallbackSec},
      {"solveSec", "selfSolveSec", &M::selfSolveSec},
      {"telemetrySec", "selfTelemetrySec", &M::selfTelemetrySec},
      {"sinkSec", "selfSinkSec", &M::selfSinkSec}}},
    // NIC/transport endpoint counters: present only when the trial ran
    // with a fabric attached.
    {"transport", &M::hasTransport, &M::hasTransport,
     {{"ops", "transportOps", &M::transportOps},
      {"bytes", "transportBytes", &M::transportBytes},
      {"throttleSec", "transportThrottleSec", &M::transportThrottleSec},
      {"connSetups", "transportConnSetups", &M::transportConnSetups},
      {"sqWaits", "transportSqWaits", &M::transportSqWaits},
      {"doorbells", "transportDoorbells", &M::transportDoorbells}}},
    // DLIO's Fig 4-6 columns beside meanGBs (application throughput)
    // and elapsedSec (runtime): dlio trials only.
    {"dlio", &M::hasDlio, &M::hasDlio,
     {{"systemGBs", "dlioSystemGBs", &M::dlioSystemGBs},
      {"nonOverlappingIoSec", "dlioNonOverlappingIoSec", &M::dlioNonOverlappingIoSec},
      {"overlappingIoSec", "dlioOverlappingIoSec", &M::dlioOverlappingIoSec},
      {"computeSec", "dlioComputeSec", &M::dlioComputeSec}}},
};

JsonValue cell(const Column& c, const M& m) {
  return c.text != nullptr ? JsonValue(m.*c.text) : JsonValue(m.*c.number);
}

/// Read column `c` from `obj` into `m`; false when absent or mistyped.
bool readCell(const Column& c, const JsonValue& obj, M& m) {
  const JsonValue* v = obj.find(c.key);
  if (v == nullptr) return false;
  if (c.text != nullptr) {
    if (!v->isString()) return false;
    m.*c.text = *v->str();
  } else {
    if (!v->isNumber()) return false;
    m.*c.number = *v->number();
  }
  return true;
}

}  // namespace

std::string paramsKey(const Trial& trial) { return writeJson(paramsObject(trial)); }

JsonValue metricsToJson(const TrialMetrics& m) {
  JsonObject o;
  o["ok"] = m.ok;
  if (!m.ok) {
    o["error"] = m.error;
    return JsonValue(std::move(o));
  }
  for (const Column& c : kBase) o[c.key] = cell(c, m);
  for (const Block& b : kBlocks) {
    if (!(m.*b.shown)) continue;
    if (!(m.*b.filled)) {
      o[b.key] = JsonValue();  // null, not zeros
      continue;
    }
    JsonObject sub;
    for (const Column& c : b.columns) sub[c.key] = cell(c, m);
    o[b.key] = JsonValue(std::move(sub));
  }
  return JsonValue(std::move(o));
}

bool metricsFromJson(const JsonValue& j, TrialMetrics& out) {
  const JsonValue* ok = j.find("ok");
  if (ok == nullptr || !ok->isBool()) return false;
  TrialMetrics m;
  m.ok = *ok->boolean();
  if (!m.ok) {
    const JsonValue* e = j.find("error");
    if (e == nullptr || !e->isString()) return false;
    m.error = *e->str();
    out = std::move(m);
    return true;
  }
  for (const Column& c : kBase) {
    if (!readCell(c, j, m)) return false;
  }
  for (const Block& b : kBlocks) {
    const JsonValue* v = j.find(b.key);
    if (v == nullptr) continue;
    m.*b.shown = true;
    if (v->isNull() && b.shown != b.filled) continue;  // shown without values
    m.*b.filled = true;
    for (const Column& c : b.columns) {
      if (!readCell(c, *v, m)) return false;
    }
  }
  out = std::move(m);
  return true;
}

std::string toJsonlLine(const TrialResult& r) {
  JsonObject o;
  o["trial"] = static_cast<double>(r.trial.index);
  o["params"] = paramsObject(r.trial);
  o["metrics"] = metricsToJson(r.metrics);
  return writeJson(JsonValue(std::move(o)));
}

bool writeJsonl(const SweepOutcome& out, const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  for (const TrialResult& r : out.results) f << toJsonlLine(r) << "\n";
  return static_cast<bool>(f);
}

std::string toCsv(const SweepOutcome& out) {
  // A block's columns appear only when some trial shows it.
  std::vector<const Block*> blocks;
  for (const Block& b : kBlocks) {
    if (std::any_of(out.results.begin(), out.results.end(),
                    [&b](const TrialResult& r) { return r.metrics.*b.shown; })) {
      blocks.push_back(&b);
    }
  }
  std::ostringstream os;
  os << "trial";
  if (!out.results.empty()) {
    for (const auto& [path, v] : out.results.front().trial.params) {
      (void)v;
      os << "," << path;
    }
  }
  os << ",ok";
  for (const Column& c : kBase) os << "," << c.csv;
  os << ",error";
  for (const Block* b : blocks) {
    for (const Column& c : b->columns) os << "," << c.csv;
  }
  os << "\n";
  for (const TrialResult& r : out.results) {
    const TrialMetrics& m = r.metrics;
    os << r.trial.index;
    for (const auto& [path, v] : r.trial.params) {
      (void)path;
      os << "," << csvField(v);
    }
    os << (m.ok ? ",1" : ",0");
    for (const Column& c : kBase) os << "," << (m.ok ? csvField(cell(c, m)) : "");
    os << "," << (m.ok ? "" : csvField(JsonValue(m.error)));
    // Empty — not zero — where a trial has no values for a shown block
    // (the CSV face of the opLatency null contract).
    for (const Block* b : blocks) {
      for (const Column& c : b->columns) os << "," << (m.*b->filled ? csvField(cell(c, m)) : "");
    }
    os << "\n";
  }
  return os.str();
}

bool writeCsv(const SweepOutcome& out, const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  f << toCsv(out);
  return static_cast<bool>(f);
}

bool loadBaseline(const std::string& path, std::map<std::string, double>& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JsonValue j;
    if (!parseJson(line, j)) return false;
    const JsonValue* params = j.find("params");
    const JsonValue* metrics = j.find("metrics");
    TrialMetrics m;
    if (!params || !metrics || !metricsFromJson(*metrics, m)) return false;
    if (m.ok) out[writeJson(*params)] = m.meanGBs;
  }
  return true;
}

std::vector<BaselineDelta> compareToBaseline(const SweepOutcome& out,
                                             const std::map<std::string, double>& baseline) {
  std::vector<BaselineDelta> deltas;
  for (const TrialResult& r : out.results) {
    if (!r.metrics.ok) continue;
    BaselineDelta d;
    d.index = r.trial.index;
    d.key = paramsKey(r.trial);
    d.currentGBs = r.metrics.meanGBs;
    const auto it = baseline.find(d.key);
    if (it != baseline.end()) {
      d.matched = true;
      d.baselineGBs = it->second;
      d.deltaPct =
          d.baselineGBs != 0.0 ? 100.0 * (d.currentGBs - d.baselineGBs) / d.baselineGBs : 0.0;
    }
    deltas.push_back(std::move(d));
  }
  return deltas;
}

}  // namespace hcsim::sweep
