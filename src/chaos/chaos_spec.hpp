#pragma once
// hcsim::chaos — declarative fault scenarios over a simulated deployment.
//
// A ChaosSpec is a JSON document: pick a site + storage system + a steady
// foreground workload, then list timed fault events ("at t=30 fail cnode 0",
// "at t=45 slow link nvme0.write to 30%", "at t=60 restore cnode 0 and
// rebuild 64 GiB"). The runner (chaos_runner.hpp) injects the events into
// the simulation clock, drives the workload with client-side retry/backoff,
// and reports a time-sliced bandwidth/availability timeline.
//
// Spec shape (all keys optional unless noted; an unknown key or a value of
// the wrong type fails the parse, naming the key):
//   {
//     "name": "cnode-failover",
//     "site": "lassen",                 // lassen|ruby|quartz|wombat
//     "storage": "vast",                // vast|gpfs|lustre|nvme|daos
//     "storageConfig": { ... },         // preset overrides, as in sweep
//     "transport": { ... },             // optional hcsim::transport endpoint
//                                       //   overrides ({} = declared profile)
//     "workload": {
//       "nodes": 12, "procsPerNode": 8,
//       "access": "seq-write",          // seq-read|seq-write|rand-read|rand-write
//       "requestBytes": 16777216
//     },
//     "horizonSec": 90.0,
//     "intervalSec": 5.0,               // timeline sample width
//     "degradedTolerance": 0.02,        // interval is "degraded" below
//                                       //   healthy*(1 - tolerance)
//     "retry": {                        // "retry": false disables the layer
//       "timeoutSec": 30.0, "maxRetries": 4,
//       "backoffBaseSec": 0.25, "backoffMultiplier": 2.0
//     },
//     "monitors": [                     // SLO watchdogs (probe/monitor.hpp)
//       {"metric": "goodputGBs", "min": 4.0, "windowSec": 15},
//       {"metric": "recoverySec", "max": 20}
//     ],
//     "events": [                       // required to be an array if present
//       {"atSec": 30.0, "action": "fail",      "component": "cnode", "index": 0},
//       {"atSec": 45.0, "action": "fail-slow", "component": "nsd",   "index": 1,
//        "severity": 0.3},
//       {"atSec": 50.0, "action": "fail-slow", "link": "oss0.device",
//        "severity": 0.5},
//       {"atSec": 60.0, "action": "restore",   "component": "cnode", "index": 0,
//        "rebuildGiB": 64.0}
//     ]
//   }

#include <string>
#include <vector>

#include "config/range.hpp"
#include "core/experiment.hpp"
#include "fs/fault.hpp"
#include "util/json.hpp"

namespace hcsim::chaos {

/// One timed fault-schedule entry.
struct ChaosEvent {
  Seconds at = 0.0;        ///< simulation time the event fires
  FaultSpec fault;         ///< what happens (see fs/fault.hpp)
  double rebuildGiB = 0.0; ///< restore only: background resync traffic
};

/// The steady foreground workload the faults disturb.
struct ChaosWorkload {
  std::size_t nodes = 4;
  std::size_t procsPerNode = 8;
  AccessPattern access = AccessPattern::SequentialWrite;
  Bytes requestBytes = 16ull * 1024 * 1024;
  /// Flow-class width (hcsim::scale): each of the nodes*procsPerNode
  /// sessions stands for this many identical clients. 1 = the legacy
  /// one-client-per-session drill, byte-identical to before the knob.
  std::size_t clientsPerProc = 1;
};

template <class IO>
void fields(IO& io, ChaosWorkload& w) {
  io("nodes", w.nodes, kCount);
  io("procsPerNode", w.procsPerNode, kCount);
  io("access", w.access);
  io("requestBytes", w.requestBytes, kPositive);
  io("clientsPerProc", w.clientsPerProc, kCount);
}

/// A full parsed scenario: the shared spec header (name, site, storage,
/// storageConfig, transport, retry, monitors — core/experiment.hpp) plus
/// the drill. Retry is on unless the spec says "retry": false, and
/// p99OpLatencySec monitors are rejected at parse time (the drill does
/// not collect per-op latency).
struct ChaosSpec : SpecHeader {
  ChaosSpec() {
    name = "chaos";
    retryEnabled = true;
  }
  ChaosWorkload workload;
  Seconds horizon = 90.0;
  Seconds interval = 5.0;
  double degradedTolerance = 0.02;
  std::vector<ChaosEvent> events;
};

/// The scenario's own top-level numbers. Their ranges are checked
/// against the deployment by validateSchedule().
template <class IO>
void fields(IO& io, ChaosSpec& s) {
  io("horizonSec", s.horizon);
  io("intervalSec", s.interval);
  io("degradedTolerance", s.degradedTolerance);
}

/// Parse a scenario from JSON. On failure returns false and sets `error`
/// to an actionable message ("events[2]: 'severity' must be a number...").
bool parseChaosSpec(const JsonValue& json, ChaosSpec& out, std::string& error);

/// Read + parse a scenario file. Errors are prefixed with the path.
bool loadChaosSpec(const std::string& path, ChaosSpec& out, std::string& error);

/// Check the schedule against a concrete deployment: component kinds the
/// model actually exposes, index bounds, named links that exist, times in
/// order and inside the horizon, and a legal fail/restore state machine
/// per component (no failing what is already failed, no restoring what is
/// healthy). Returns every problem found, empty = valid.
std::vector<std::string> validateSchedule(const ChaosSpec& spec, const FileSystemModel& fs,
                                          const Topology& topo);

}  // namespace hcsim::chaos
