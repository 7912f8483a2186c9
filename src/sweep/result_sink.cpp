#include "sweep/result_sink.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>

#include "util/table.hpp"

namespace hcsim::sweep {

namespace {

/// An axis value as a CSV cell: a string's text, or the JSON of any
/// other value (an object- or array-valued axis value is written as
/// JSON, quoted like any text).
void appendCsvValue(std::string& out, const JsonValue& v) {
  if (const std::string* s = v.str()) return appendCsvCell(out, *s);
  if (v.isNumber() || v.isBool()) return appendJson(out, v);
  appendCsvCell(out, writeJson(v));
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

/// The metrics object's members in its key order: sorted at every
/// level, the order JsonObject (a std::map) gave them when records were
/// built as JSON trees, kept so the JSONL bytes stay put. A top-level
/// member is "ok", a base column or a block; a block's member list is
/// its columns, also sorted. Table keys are plain identifiers, so they
/// are written without escaping.
struct Member {
  const char* key;
  const Column* column = nullptr;  // a base column
  const Block* block = nullptr;    // a block, with its columns in key order
  std::vector<const Column*> columns;
};

const std::vector<Member>& members() {
  static const std::vector<Member> sorted = [] {
    const auto byKey = [](const auto& a, const auto& b) { return std::strcmp(a.key, b.key) < 0; };
    std::vector<Member> v{{"ok", nullptr, nullptr, {}}};
    for (const Column& c : kBase) v.push_back({c.key, &c, nullptr, {}});
    for (const Block& b : kBlocks) {
      Member e{b.key, nullptr, &b, {}};
      for (const Column& c : b.columns) e.columns.push_back(&c);
      std::sort(e.columns.begin(), e.columns.end(),
                [&byKey](const Column* x, const Column* y) { return byKey(*x, *y); });
      v.push_back(std::move(e));
    }
    std::sort(v.begin(), v.end(), byKey);
    return v;
  }();
  return sorted;
}

void appendKey(std::string& out, char sep, const char* key) {
  out += sep;
  out += '"';
  out += key;
  out += "\":";
}

void appendCell(std::string& out, const Column& c, const M& m) {
  if (c.text == nullptr) return appendJsonNumber(out, m.*c.number);
  out += '"';
  appendJsonEscaped(out, m.*c.text);
  out += '"';
}

void appendCsvColumn(std::string& out, const Column& c, const M& m) {
  if (c.text == nullptr) return appendJsonNumber(out, m.*c.number);
  appendCsvCell(out, m.*c.text);
}

/// {"path":value,...} over the trial's axes, keyed by path in sorted
/// order, the last value of a repeated path winning (as JsonObject
/// stored them). A trial has a few axes, so each key is found by a pass
/// over them instead of sorting a copy.
void appendParams(std::string& out, const Trial& trial) {
  const std::string* prev = nullptr;
  char sep = '{';
  for (;;) {
    const std::pair<std::string, JsonValue>* next = nullptr;
    for (const auto& p : trial.params) {
      if (prev != nullptr && p.first <= *prev) continue;
      if (next == nullptr || p.first <= next->first) next = &p;
    }
    if (next == nullptr) break;
    out += sep;
    sep = ',';
    out += '"';
    appendJsonEscaped(out, next->first);
    out += "\":";
    appendJson(out, next->second);
    prev = &next->first;
  }
  if (sep == '{') out += '{';
  out += '}';
}

void appendJsonlLine(std::string& out, const TrialResult& r) {
  out += "{\"metrics\":";
  appendMetricsJson(out, r.metrics);
  out += ",\"params\":";
  appendParams(out, r.trial);
  out += ",\"trial\":";
  appendJsonNumber(out, static_cast<double>(r.trial.index));
  out += '}';
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

std::string paramsKey(const Trial& trial) {
  std::string key;
  appendParams(key, trial);
  return key;
}

void appendMetricsJson(std::string& out, const TrialMetrics& m) {
  if (!m.ok) {
    out += "{\"error\":\"";
    appendJsonEscaped(out, m.error);
    out += "\",\"ok\":false}";
    return;
  }
  char sep = '{';
  for (const Member& e : members()) {
    if (e.block != nullptr && !(m.*e.block->shown)) continue;
    appendKey(out, sep, e.key);
    sep = ',';
    if (e.column != nullptr) {
      appendCell(out, *e.column, m);
    } else if (e.block == nullptr) {
      out += "true";  // ok
    } else if (!(m.*e.block->filled)) {
      out += "null";  // shown without values: null, not zeros
    } else {
      char inner = '{';
      for (const Column* c : e.columns) {
        appendKey(out, inner, c->key);
        inner = ',';
        appendCell(out, *c, m);
      }
      out += '}';
    }
  }
  out += '}';
}

std::vector<std::pair<std::string, double>> numberColumns(const TrialMetrics& m) {
  std::vector<std::pair<std::string, double>> out;
  if (!m.ok) return out;
  for (const Member& e : members()) {
    if (e.column != nullptr && e.column->number != nullptr) {
      out.emplace_back(e.key, m.*e.column->number);
    }
    if (e.block == nullptr || !(m.*e.block->shown) || !(m.*e.block->filled)) continue;
    for (const Column* c : e.columns) {
      if (c->number != nullptr) out.emplace_back(std::string(e.key) + "." + c->key, m.*c->number);
    }
  }
  return out;
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
  std::string line;
  line.reserve(512);
  appendJsonlLine(line, r);
  return line;
}

bool writeJsonl(const SweepOutcome& out, const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  std::string line;
  for (const TrialResult& r : out.results) {
    line.clear();
    appendJsonlLine(line, r);
    line += '\n';
    f << line;
  }
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
  std::string csv = "trial";
  if (!out.results.empty()) {
    for (const auto& [path, v] : out.results.front().trial.params) {
      (void)v;
      csv += ',';
      csv += path;
    }
  }
  csv += ",ok";
  for (const Column& c : kBase) (csv += ',') += c.csv;
  csv += ",error";
  for (const Block* b : blocks) {
    for (const Column& c : b->columns) (csv += ',') += c.csv;
  }
  csv += '\n';
  for (const TrialResult& r : out.results) {
    const TrialMetrics& m = r.metrics;
    char index[24];
    csv.append(index, std::to_chars(index, index + sizeof index, r.trial.index).ptr);
    for (const auto& [path, v] : r.trial.params) {
      (void)path;
      csv += ',';
      appendCsvValue(csv, v);
    }
    csv += m.ok ? ",1" : ",0";
    for (const Column& c : kBase) {
      csv += ',';
      if (m.ok) appendCsvColumn(csv, c, m);
    }
    csv += ',';
    if (!m.ok) appendCsvCell(csv, m.error);
    // Empty — not zero — where a trial has no values for a shown block
    // (the CSV face of the opLatency null contract).
    for (const Block* b : blocks) {
      for (const Column& c : b->columns) {
        csv += ',';
        if (m.*b->filled) appendCsvColumn(csv, c, m);
      }
    }
    csv += '\n';
  }
  return csv;
}

bool writeCsv(const SweepOutcome& out, const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  f << toCsv(out);
  return static_cast<bool>(f);
}

bool loadCells(const std::string& path, Cells& out) {
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
    out[writeJson(*params)] = std::move(m);
  }
  return true;
}

std::vector<BaselineDelta> compareToBaseline(const SweepOutcome& out, const Cells& baseline) {
  std::vector<BaselineDelta> deltas;
  for (const TrialResult& r : out.results) {
    if (!r.metrics.ok) continue;
    BaselineDelta d;
    d.index = r.trial.index;
    d.key = paramsKey(r.trial);
    d.currentGBs = r.metrics.meanGBs;
    const auto it = baseline.find(d.key);
    if (it != baseline.end() && it->second.ok) {
      d.matched = true;
      d.baselineGBs = it->second.meanGBs;
      d.deltaPct =
          d.baselineGBs != 0.0 ? 100.0 * (d.currentGBs - d.baselineGBs) / d.baselineGBs : 0.0;
    }
    deltas.push_back(std::move(d));
  }
  return deltas;
}

}  // namespace hcsim::sweep
