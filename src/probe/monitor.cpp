#include "probe/monitor.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "config/fields.hpp"
#include "probe/flight_recorder.hpp"
#include "util/stats.hpp"

namespace hcsim::probe {

namespace {
constexpr double kEps = 1e-9;
constexpr double kStallGBs = 1e-12;  // a slice at or below this counts as stalled
}  // namespace

const char* toString(MonitorMetric metric) {
  switch (metric) {
    case MonitorMetric::GoodputGBs: return "goodputGBs";
    case MonitorMetric::P99OpLatencySec: return "p99OpLatencySec";
    case MonitorMetric::RecoverySec: return "recoverySec";
    case MonitorMetric::StallSec: return "stallSec";
  }
  return "unknown";
}

void parseMonitors(const JsonValue& root, std::vector<MonitorSpec>& out,
                   std::vector<std::string>& problems) {
  const JsonValue* monitors = root.find("monitors");
  if (!monitors) return;
  const std::size_t before = problems.size();
  std::vector<MonitorSpec> parsed;
  const JsonArray* arr = monitors->array();
  if (!arr) {
    problems.push_back("'monitors' must be an array of monitor objects");
    return;
  }
  for (std::size_t i = 0; i < arr->size(); ++i) {
    const JsonValue& m = (*arr)[i];
    const std::string where = "monitors[" + std::to_string(i) + "]";
    if (!m.isObject()) {
      problems.push_back(where + " must be an object");
      continue;
    }
    MonitorSpec spec;
    const std::string metric = m.stringOr("metric", "");
    if (metric == "goodputGBs") spec.metric = MonitorMetric::GoodputGBs;
    else if (metric == "p99OpLatencySec") spec.metric = MonitorMetric::P99OpLatencySec;
    else if (metric == "recoverySec") spec.metric = MonitorMetric::RecoverySec;
    else if (metric == "stallSec") spec.metric = MonitorMetric::StallSec;
    else {
      problems.push_back(where + ": unknown 'metric' \"" + metric +
                         "\" (expected goodputGBs, p99OpLatencySec, recoverySec or stallSec)");
      continue;
    }
    if (std::string e = readFields(m, spec, where, {"metric"}); !e.empty()) {
      problems.push_back(std::move(e));
      continue;
    }
    if (spec.metric == MonitorMetric::GoodputGBs) {
      if (!(spec.min > 0.0)) {
        problems.push_back(where + ": goodputGBs requires 'min' > 0 (GB/s floor)");
      }
      if (m.find("windowSec") && !(spec.windowSec > 0.0)) {
        problems.push_back(where + ": 'windowSec' must be > 0 when present");
      }
      if (m.find("max")) problems.push_back(where + ": goodputGBs takes 'min', not 'max'");
    } else {
      if (!(spec.max > 0.0)) {
        problems.push_back(where + ": " + metric + " requires 'max' > 0 (seconds ceiling)");
      }
      if (m.find("min") || m.find("windowSec")) {
        problems.push_back(where + ": " + metric + " takes 'max' only");
      }
    }
    if (spec.name.empty()) spec.name = metric;
    parsed.push_back(std::move(spec));
  }
  if (problems.size() == before) {
    for (auto& s : parsed) out.push_back(std::move(s));
  }
}

WatchdogSet::WatchdogSet(std::vector<MonitorSpec> specs) {
  states_.reserve(specs.size());
  for (auto& s : specs) {
    State st;
    st.spec = std::move(s);
    states_.push_back(std::move(st));
  }
}

void WatchdogSet::setRecoveryContext(double lastRestoreAt, double healthyGBs,
                                     double degradedTolerance) {
  haveRecovery_ = true;
  lastRestoreAt_ = lastRestoreAt;
  degradedFloor_ = healthyGBs * (1.0 - degradedTolerance);
}

void WatchdogSet::fire(std::size_t idx, double observed, double limit, double atSec) {
  State& st = states_[idx];
  ++st.occurrences;
  if (!st.fired) {
    st.fired = true;
    breaches_.push_back(Breach{st.spec.name, st.spec.metric, observed, limit, atSec, 1});
    if (recorder_) {
      recorder_->record(atSec, RecordKind::MonitorBreach, static_cast<std::uint32_t>(idx),
                        observed);
    }
  }
  for (Breach& b : breaches_) {
    if (b.monitor == st.spec.name && b.metric == st.spec.metric) b.occurrences = st.occurrences;
  }
}

void WatchdogSet::observeSlice(double start, double end, double gbs) {
  if (states_.empty()) return;
  lastSliceEnd_ = std::max(lastSliceEnd_, end);
  // Recovery clock shared by every RecoverySec monitor: the close of the
  // first slice at or above the degraded floor whose start is past the
  // last restore — exactly the ChaosOutcome timeToRecover definition.
  if (haveRecovery_ && recoveredAt_ < 0.0 && start >= lastRestoreAt_ - kEps &&
      gbs >= degradedFloor_ - kEps) {
    recoveredAt_ = end;
  }
  for (std::size_t i = 0; i < states_.size(); ++i) {
    State& st = states_[i];
    switch (st.spec.metric) {
      case MonitorMetric::GoodputGBs: {
        st.window.push_back(SliceWindow{start, end, gbs});
        const double w = st.spec.windowSec;
        if (w <= 0.0) {
          if (gbs < st.spec.min - kEps) fire(i, gbs, st.spec.min, end);
          st.window.clear();
          break;
        }
        const double from = end - w;
        while (!st.window.empty() && st.window.front().end <= from + kEps) {
          st.window.erase(st.window.begin());
        }
        // Only judge once a full window of timeline exists.
        if (st.window.front().start > from + kEps) break;
        double sum = 0.0, dur = 0.0;
        for (const SliceWindow& s : st.window) {
          const double lo = std::max(s.start, from);
          const double d = s.end - lo;
          sum += s.gbs * d;
          dur += d;
        }
        const double mean = dur > 0.0 ? sum / dur : 0.0;
        if (mean < st.spec.min - kEps) fire(i, mean, st.spec.min, end);
        break;
      }
      case MonitorMetric::P99OpLatencySec: {
        // Online p99 is re-evaluated only when the sample count has
        // doubled since the last evaluation (amortized O(n log n) over a
        // run; a per-slice sort would be quadratic). finish() always
        // runs the exact final check.
        if (latencies_.size() < st.nextLatencyEval) break;
        st.nextLatencyEval = latencies_.size() * 2;
        std::vector<double> sorted(latencies_);
        std::sort(sorted.begin(), sorted.end());
        const double p99 = percentileSorted(sorted, 99.0);
        if (p99 > st.spec.max + kEps) fire(i, p99, st.spec.max, end);
        break;
      }
      case MonitorMetric::RecoverySec: {
        if (st.fired || !haveRecovery_) break;
        if (recoveredAt_ >= 0.0) {
          const double took = recoveredAt_ - lastRestoreAt_;
          if (took > st.spec.max + kEps) fire(i, took, st.spec.max, recoveredAt_);
        } else if (end - lastRestoreAt_ > st.spec.max + kEps && end > lastRestoreAt_) {
          fire(i, end - lastRestoreAt_, st.spec.max, end);
        }
        break;
      }
      case MonitorMetric::StallSec: {
        if (gbs <= kStallGBs) {
          if (st.stallStart < 0.0) {
            st.stallStart = start;
            st.stallFiredStretch = false;
          }
          const double stalled = end - st.stallStart;
          if (stalled > st.spec.max + kEps && !st.stallFiredStretch) {
            st.stallFiredStretch = true;
            fire(i, stalled, st.spec.max, end);
          }
        } else {
          st.stallStart = -1.0;
        }
        break;
      }
    }
  }
}

void WatchdogSet::observeOpLatency(double t, double latencySec) {
  (void)t;
  if (states_.empty()) return;
  bool wanted = false;
  for (const State& st : states_) {
    if (st.spec.metric == MonitorMetric::P99OpLatencySec) wanted = true;
  }
  if (wanted) latencies_.push_back(latencySec);
}

void WatchdogSet::finish(double endSec) {
  if (states_.empty()) return;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    State& st = states_[i];
    switch (st.spec.metric) {
      case MonitorMetric::P99OpLatencySec: {
        if (st.fired || latencies_.empty()) break;
        std::vector<double> sorted(latencies_);
        std::sort(sorted.begin(), sorted.end());
        const double p99 = percentileSorted(sorted, 99.0);
        if (p99 > st.spec.max + kEps) fire(i, p99, st.spec.max, endSec);
        break;
      }
      case MonitorMetric::RecoverySec: {
        if (st.fired || !haveRecovery_) break;
        if (recoveredAt_ >= 0.0) {
          const double took = recoveredAt_ - lastRestoreAt_;
          if (took > st.spec.max + kEps) fire(i, took, st.spec.max, recoveredAt_);
        } else if (endSec - lastRestoreAt_ > st.spec.max + kEps) {
          fire(i, endSec - lastRestoreAt_, st.spec.max, endSec);
        }
        break;
      }
      case MonitorMetric::StallSec: {
        if (st.stallStart >= 0.0 && !st.stallFiredStretch) {
          const double stalled = endSec - st.stallStart;
          if (stalled > st.spec.max + kEps) {
            st.stallFiredStretch = true;
            fire(i, stalled, st.spec.max, endSec);
          }
        }
        break;
      }
      case MonitorMetric::GoodputGBs:
        break;
    }
  }
}

std::string renderBreachTable(const std::vector<Breach>& breaches) {
  if (breaches.empty()) return "";
  std::ostringstream os;
  os << "SLO breaches:\n";
  for (const Breach& b : breaches) {
    os << "  " << std::left << std::setw(22) << b.monitor << " " << toString(b.metric)
       << ": observed " << b.observed << " vs limit " << b.limit << " at t=" << b.atSec << "s";
    if (b.occurrences > 1) os << " (x" << b.occurrences << ")";
    os << "\n";
  }
  return os.str();
}

}  // namespace hcsim::probe
