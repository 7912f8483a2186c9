// Transport-subsystem throughput: drive IOR trials through the DAOS
// backend — the model that routes every byte through hcsim::transport —
// across the endpoint classes the subsystem models (single-stream TCP,
// nconnect-8 TCP, RDMA, and an RDMA incast that stresses the send-queue
// and doorbell paths). Prints the simulated goodput, then the transport
// postings per wall second (ops posted per wall second of a whole trial)
// that the perf gate (perf_harness.hpp) judges against
// BENCH_transport.json as a ratio to the calibration kernel.
//
//   bench_transport [--hcsim_json OUT] [--hcsim_compare REF]
//                   [--hcsim_max_regress 0.30]

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "perf_harness.hpp"
#include "sweep/sweep_runner.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

using namespace hcsim;

namespace {

/// The endpoint classes the transport layer distinguishes, all on the
/// DAOS pool (whose 48 GB/s of targets leave the endpoint binding).
std::vector<std::pair<std::string, std::string>> benchSpecs() {
  return {
      {"tcp-single", R"({"site":"lassen","storage":"daos",
        "ior":{"access":"seq-read","nodes":2,"procsPerNode":8,
               "segments":4000,"repetitions":1},
        "transport":{"kind":"tcp"}})"},
      {"tcp-nconnect8", R"({"site":"lassen","storage":"daos",
        "ior":{"access":"seq-read","nodes":2,"procsPerNode":8,
               "segments":4000,"repetitions":1},
        "transport":{"kind":"tcp","lanes":8}})"},
      {"rdma", R"({"site":"lassen","storage":"daos",
        "ior":{"access":"seq-read","nodes":2,"procsPerNode":8,
               "segments":4000,"repetitions":1},
        "transport":{"kind":"rdma"}})"},
      {"rdma-incast", R"({"site":"lassen","storage":"daos",
        "ior":{"access":"seq-write","nodes":4,"procsPerNode":16,
               "segments":400,"repetitions":1},
        "transport":{"kind":"rdma"}})"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const perf::Options opt = perf::parseFlags("bench_transport", argc, argv);

  ResultTable t("transport endpoint classes on daos@lassen (IOR trials)");
  t.setHeader({"scenario", "posted ops", "GiB", "sim s", "goodput GB/s"});
  std::vector<perf::Scenario> scenarios;
  for (const auto& [name, specText] : benchSpecs()) {
    JsonValue cfg;
    if (!parseJson(specText, cfg)) perf::usageError(opt.bench, "spec '" + name + "' does not parse");
    const sweep::TrialMetrics m = sweep::runTrial("ior", cfg);
    if (!m.ok) perf::usageError(opt.bench, "'" + name + "' failed: " + m.error);
    if (!m.hasTransport || m.transportOps <= 0.0) {
      perf::usageError(opt.bench, "'" + name + "' posted nothing on the fabric");
    }
    char ops[32], gib[32], sim[32], gbs[32];
    std::snprintf(ops, sizeof ops, "%.0f", m.transportOps);
    std::snprintf(gib, sizeof gib, "%.2f", m.transportBytes / (1024.0 * 1024.0 * 1024.0));
    std::snprintf(sim, sizeof sim, "%.2f", m.elapsedSec);
    std::snprintf(gbs, sizeof gbs, "%.3f", m.meanGBs);
    t.addRow({name, ops, gib, sim, gbs});
    // One trial lasts 0.2-2.7 ms, so a round repeats it.
    scenarios.push_back({name, m.transportOps, [cfg] {
                           const perf::Stopwatch sw;
                           sweep::runTrial("ior", cfg);
                           return sw.seconds();
                         }});
  }
  std::printf("%s", t.toString().c_str());
  return perf::finish(opt, perf::runRounds(scenarios));
}
