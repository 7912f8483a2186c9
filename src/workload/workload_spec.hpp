#pragma once
// Workload run specs — the JSON document the `hcsim workload` CLI and
// the sweep's "workload" experiment both consume:
//
//   {
//     "name": "...", "site": "lassen", "storage": "vast",
//     "storageConfig": {...},            // optional preset overrides
//     "workload": {"generator": "grammar", ...generator keys...},
//     "retry": true | {...},             // optional chaos retry layer
//     "chaos": {"events": [...]},        // optional fault schedule
//     "sampleIntervalSec": 5.0,          // optional goodput-timeline width
//                                        //   (> 0; enables sampling for
//                                        //   closed-loop generators too)
//     "monitors": [...]                  // optional SLO watchdogs
//   }
//
// The "generator" key selects a WorkloadSource factory from the
// registry: the built-in runners (ior, dlio, replay) and the synthetic
// generators (io500, grammar, openloop) all hang off the same string, so
// a sweep axis can vary the generator like any other field. Validation
// never throws out of parsing — every problem becomes one actionable
// line, and the CLI prints them all at once.

#include <memory>
#include <string>
#include <vector>

#include "chaos/chaos_runner.hpp"
#include "core/experiment.hpp"
#include "util/json.hpp"
#include "workload/workload_runner.hpp"
#include "workload/workload_source.hpp"

namespace hcsim::workload {

/// The shared spec header (name, site, storage, storageConfig, transport,
/// retry, monitors — core/experiment.hpp) plus the generator. A null
/// "transport" means no fabric, byte-identical to before the transport
/// layer existed; retry is off unless the spec asks for it.
struct WorkloadRunSpec : SpecHeader {
  WorkloadRunSpec() { name = "workload"; }
  std::string generator;
  JsonValue workload;  ///< the raw "workload" section (generator keys)
  JsonValue chaos;  ///< raw "chaos" section, null = none
  /// Explicit goodput sample interval (top-level "sampleIntervalSec").
  /// 0 = generator default; the knob must be > 0 when present, and also
  /// arms timeline sampling for closed-loop generators.
  double sampleIntervalSec = 0.0;
};

/// Names the registry knows, sorted, for error messages and docs.
std::vector<std::string> knownGenerators();

/// Parse the spec document. Appends one actionable line per problem to
/// `problems` (empty = valid). Generator-section validation happens in
/// makeSource — this checks the envelope.
void parseWorkloadSpec(const JsonValue& doc, WorkloadRunSpec& out,
                       std::vector<std::string>& problems);

/// Instantiate the spec's generator, validating its "workload" section.
/// On failure appends problem lines and returns {nullptr, 0}. `nodes` is
/// the compute-node count the environment must be built with.
struct SourceBundle {
  std::unique_ptr<WorkloadSource> source;
  std::size_t nodes = 0;
};
SourceBundle makeSource(const WorkloadRunSpec& spec, std::vector<std::string>& problems);

/// Schedule the spec's optional "chaos" section onto the environment
/// (chaos::injectSection). Throws std::invalid_argument with an
/// actionable message on a bad section; no-op when absent. Returns the
/// schedule's landmarks for runWorkload's watchdog.
chaos::ChaosLandmarks injectWorkloadChaos(const WorkloadRunSpec& spec, Environment& env);

/// Drive the source on the environment with the spec's retry settings,
/// sample-interval override, and monitors. Pass injectWorkloadChaos's
/// landmarks so recoverySec monitors know the restore time.
WorkloadOutcome runWorkload(Environment& env, const WorkloadRunSpec& spec,
                            WorkloadSource& source, TraceLog* trace = nullptr,
                            const chaos::ChaosLandmarks* landmarks = nullptr);

/// JSONL: one "summary" record (opLatency is null — never zeros — when
/// no per-op distribution was collected), then one "sample" record per
/// goodput-timeline slice. Deterministic byte-for-byte across runs.
std::string toJsonl(const WorkloadOutcome& out);

/// CSV of the goodput timeline (header + one row per slice).
std::string toCsv(const WorkloadOutcome& out);

}  // namespace hcsim::workload
