// Flow-class aggregation throughput: the same open-loop scenario at
// widening members-per-class, pinning the property the scale subsystem
// exists for — wall cost and event footprint track the CLASS count
// while the CLIENT count grows by orders of magnitude. Prints the
// simulated outcome with the engine's peak pending events as
// flat-memory evidence, then the class ops simulated per wall second
// that the perf gate (perf_harness.hpp) judges against BENCH_scale.json
// as a ratio to the calibration kernel.
//
//   bench_scale [--hcsim_json OUT] [--hcsim_compare REF]
//               [--hcsim_max_regress 0.30]

#include <iostream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "perf_harness.hpp"
#include "util/table.hpp"
#include "workload/openloop_source.hpp"
#include "workload/workload_runner.hpp"

using namespace hcsim;

namespace {

struct Shape {
  const char* name;
  std::size_t classes;
  std::size_t membersPerClass;
};

/// Same class count, members spanning 1 -> ~1M clients: the wall rate
/// must stay flat. The last row widens the class count too (the demo
/// shape of `hcsim scale`).
constexpr Shape kShapes[] = {
    {"classes64_x1", 64, 1},
    {"classes64_x1k", 64, 1000},
    {"classes64_x16k", 64, 15625},  // 1,000,000 clients
    {"classes256_x4k", 256, 3907},  // ~1,000,000 clients, demo shape
};

struct Run {
  workload::WorkloadOutcome outcome;
  std::size_t peakPending = 0;
  double seconds = 0.0;  ///< the runner alone, not the environment build
};

Run runOnce(const workload::OpenLoopConfig& cfg) {
  Environment env = makeEnvironment(Site::Lassen, StorageKind::Vast, cfg.nodes(), nullptr);
  workload::OpenLoopSource source(cfg);
  workload::WorkloadRunner runner(*env.bench, *env.fs);
  const perf::Stopwatch sw;
  Run r;
  r.outcome = runner.run(source);
  r.seconds = sw.seconds();
  r.peakPending = env.bench->sim().peakPendingEvents();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const perf::Options opt = perf::parseFlags("bench_scale", argc, argv);

  ResultTable t("flow-class aggregation (open-loop, Lassen/VAST, 5 s horizon)");
  t.setHeader({"scenario", "classes", "clients", "class ops", "GB/s", "peak events"});
  std::vector<perf::Scenario> scenarios;
  for (const Shape& shape : kShapes) {
    workload::OpenLoopConfig cfg;
    cfg.clients = shape.classes;
    cfg.clientsPerRank = shape.membersPerClass;
    cfg.clientsPerNode = 8;
    cfg.ratePerClientHz = 5.0;
    cfg.horizonSec = 5.0;
    cfg.seed = 0x5ca1eull;
    const Run first = runOnce(cfg);
    const auto classOps =
        static_cast<double>(first.outcome.opsCompleted / first.outcome.clientsPerRank);
    t.addRow({shape.name, static_cast<double>(first.outcome.ranks),
              static_cast<double>(first.outcome.clientsTotal()), classOps,
              first.outcome.goodputGBs(), static_cast<double>(first.peakPending)});
    scenarios.push_back({shape.name, classOps, [cfg] { return runOnce(cfg).seconds; }});
  }
  std::cout << t.toString();
  return perf::finish(opt, perf::runRounds(scenarios));
}
