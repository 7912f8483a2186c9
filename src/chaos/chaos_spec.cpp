#include "chaos/chaos_spec.hpp"

#include <algorithm>
#include <map>

#include "config/fields.hpp"
#include "net/topology.hpp"

namespace hcsim::chaos {

namespace {

bool parseEvent(const JsonValue& j, std::size_t idx, ChaosEvent& out, std::string& error) {
  const std::string where = "events[" + std::to_string(idx) + "]";
  const auto at = [&where](const std::string& what) { return where + ": " + what; };
  if (!j.isObject()) {
    error = at("must be an object");
    return false;
  }
  // The required keys; the field list then reads every key.
  if (j.find("atSec") == nullptr) {
    error = at("'atSec' must be a non-negative number");
    return false;
  }
  if (j.find("action") == nullptr) {
    error = at("'action' must be fail|fail-slow|restore (got '')");
    return false;
  }
  if (std::string e = readFields(j, out, where); !e.empty()) {
    error = std::move(e);
    return false;
  }
  if (!out.fault.link.empty()) out.fault.component = "link";
  if (out.fault.component.empty()) {
    error = at(
        "needs a 'component' kind (cnode|dnode|dbox|nsd|oss|mds|drive|target) or a 'link' name");
    return false;
  }
  if (out.fault.component == "link" && out.fault.link.empty()) {
    error = at("component 'link' needs the 'link' key naming a topology link");
    return false;
  }
  if (out.rebuildGiB > 0.0 && out.fault.action != FaultAction::Restore) {
    error = at("'rebuildGiB' only makes sense on a restore event");
    return false;
  }
  return true;
}

}  // namespace

bool parseChaosSpec(const JsonValue& json, ChaosSpec& out, std::string& error) {
  if (!json.isObject()) {
    error = "scenario must be a JSON object";
    return false;
  }
  out = ChaosSpec{};
  std::vector<std::string> problems;
  parseSpecHeader(json, out, problems);

  if (const JsonValue* w = json.find("workload")) {
    if (std::string e = readFields(*w, out.workload, "workload"); !e.empty()) {
      problems.push_back(std::move(e));
    }
  }

  // The header keys, the drill workload and the events are read above
  // and below; any other top-level key is a typo.
  if (std::string e = readFields(json, out, "",
                                 {"name", "site", "storage", "storageConfig", "transport", "retry",
                                  "monitors", "workload", "events"});
      !e.empty()) {
    problems.push_back(std::move(e));
  }

  if (const JsonValue* ev = json.find("events")) {
    const JsonArray* arr = ev->array();
    if (arr == nullptr) {
      problems.push_back("'events' must be an array");
    } else {
      for (std::size_t i = 0; i < arr->size(); ++i) {
        ChaosEvent e;
        std::string err;
        if (!parseEvent((*arr)[i], i, e, err)) {
          problems.push_back(err);
          break;
        }
        out.events.push_back(std::move(e));
      }
    }
  }

  for (const probe::MonitorSpec& m : out.monitors) {
    if (m.metric == probe::MonitorMetric::P99OpLatencySec) {
      problems.push_back(
          "monitors: p99OpLatencySec is not supported by chaos scenarios (the drill does "
          "not collect per-op latency; use a workload spec)");
    }
  }
  if (!problems.empty()) {
    error = problems.front();
    return false;
  }
  return true;
}

bool loadChaosSpec(const std::string& path, ChaosSpec& out, std::string& error) {
  JsonValue j;
  const JsonFileStatus read = readJsonFile(path, j);
  if (read != JsonFileStatus::Ok) {
    error = path + (read == JsonFileStatus::Unreadable ? ": cannot open file" : ": not valid JSON");
    return false;
  }
  if (!parseChaosSpec(j, out, error)) {
    error = path + ": " + error;
    return false;
  }
  return true;
}

namespace {

/// Component kinds any model might expose — probed via faultComponentCount
/// to tell the user what *this* deployment actually supports.
const char* const kKnownKinds[] = {"cnode", "dnode", "dbox",  "nsd",
                                   "oss",   "mds",   "drive", "target"};

std::string supportedKinds(const FileSystemModel& fs) {
  std::string s;
  for (const char* k : kKnownKinds) {
    if (fs.faultComponentCount(k) == 0) continue;
    if (!s.empty()) s += "|";
    s += k;
  }
  if (!s.empty()) s += "|";
  s += "link";
  return s;
}

}  // namespace

std::vector<std::string> validateSchedule(const ChaosSpec& spec, const FileSystemModel& fs,
                                          const Topology& topo) {
  std::vector<std::string> problems;
  const auto add = [&problems](std::string msg) { problems.push_back(std::move(msg)); };

  if (spec.horizon <= 0.0) add("'horizonSec' must be > 0");
  if (spec.interval <= 0.0) add("'intervalSec' must be > 0");
  if (spec.interval > spec.horizon && spec.horizon > 0.0) {
    add("'intervalSec' exceeds 'horizonSec': the timeline would have no samples");
  }

  bool anyRestore = false;
  for (const ChaosEvent& ev : spec.events) {
    if (ev.fault.action == FaultAction::Restore) anyRestore = true;
  }
  for (const probe::MonitorSpec& m : spec.monitors) {
    if (m.metric == probe::MonitorMetric::RecoverySec && !anyRestore) {
      add("monitors: recoverySec requires a restore event in the schedule");
    }
  }

  // Per-component health state machine: a component key maps to what the
  // schedule has done to it so far, so overlapping fail/fail on the same
  // target (or restoring something healthy) is rejected up front.
  enum class State { Healthy, Failed, Slow };
  std::map<std::string, State> state;
  Seconds prev = -1.0;

  for (std::size_t i = 0; i < spec.events.size(); ++i) {
    const ChaosEvent& ev = spec.events[i];
    const FaultSpec& f = ev.fault;
    const auto at = [i](const std::string& what) {
      return "events[" + std::to_string(i) + "]: " + what;
    };

    if (ev.at < prev) {
      add(at("'atSec' goes backwards (" + std::to_string(ev.at) + " after " +
             std::to_string(prev) + "); list events in time order"));
    }
    prev = std::max(prev, ev.at);
    if (spec.horizon > 0.0 && ev.at >= spec.horizon) {
      add(at("'atSec' " + std::to_string(ev.at) + " is at/after the horizon (" +
             std::to_string(spec.horizon) + "s); it would never fire"));
    }

    std::string key;
    if (f.component == "link") {
      if (!topo.hasLink(f.link)) {
        add(at("unknown link '" + f.link + "' (not in the deployment's topology)"));
        continue;
      }
      key = "link:" + f.link;
    } else {
      const std::size_t count = fs.faultComponentCount(f.component);
      if (count == 0) {
        add(at("unknown component '" + f.component + "' for this deployment; supported: " +
               supportedKinds(fs)));
        continue;
      }
      if (f.index >= count) {
        add(at("'" + f.component + "' index " + std::to_string(f.index) +
               " out of range (deployment has " + std::to_string(count) + ")"));
        continue;
      }
      key = f.component + ":" + std::to_string(f.index);
    }

    State& st = state.try_emplace(key, State::Healthy).first->second;
    switch (f.action) {
      case FaultAction::Fail:
        if (st == State::Failed) {
          add(at("'" + key + "' is already failed; overlapping fail without a restore"));
        }
        st = State::Failed;
        break;
      case FaultAction::FailSlow:
        if (f.severity <= 0.0 || f.severity >= 1.0) {
          add(at("fail-slow 'severity' must be in (0, 1) exclusive (got " +
                 std::to_string(f.severity) + "); use action 'fail' for a full stop"));
        }
        if (st == State::Failed) {
          add(at("'" + key + "' is failed; restore it before applying fail-slow"));
        }
        st = State::Slow;
        break;
      case FaultAction::Restore:
        if (st == State::Healthy) {
          add(at("'" + key + "' is already healthy; restore without a preceding fault"));
        }
        st = State::Healthy;
        break;
    }
  }
  return problems;
}

}  // namespace hcsim::chaos
