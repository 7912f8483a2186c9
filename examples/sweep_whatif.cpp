// What-if sweep over storage *configuration* knobs, not just workload
// geometry: would upgrading Lassen's single TCP gateway (latency) or
// raising the per-client NFS session cap change IOR read bandwidth?
// The axes address VastConfig fields through the same JSON paths that
// `hcsim dump-config` emits, read onto the site preset (unstated keys
// keep the preset's values; a misspelled key fails the trial).

#include <cstdio>

#include "sweep/result_sink.hpp"
#include "sweep/sweep_runner.hpp"
#include "util/units.hpp"

using namespace hcsim;

int main() {
  sweep::SweepSpec spec;
  spec.name = "lassen-vast-whatif";
  spec.experiment = "ior";

  JsonObject ior;
  ior["access"] = "seq-read";
  ior["nodes"] = 4;
  ior["procsPerNode"] = 8;
  ior["segments"] = 256;
  ior["repetitions"] = 1;
  JsonObject base;
  base["site"] = "lassen";
  base["storage"] = "vast";
  base["ior"] = JsonValue(std::move(ior));
  spec.base = JsonValue(std::move(base));

  // Axis 1: gateway forwarding latency — as deployed (250us) vs a
  // hypothetical low-latency gateway. Axis 2: per-client TCP session
  // cap — as deployed vs nconnect-style doubling/quadrupling.
  spec.axes.push_back({"storageConfig.gateway.latency",
                       {JsonValue(units::usec(250)), JsonValue(units::usec(30))}});
  spec.axes.push_back({"storageConfig.tcpSessionCap",
                       {JsonValue(units::gbs(1.15)), JsonValue(units::gbs(2.3)),
                        JsonValue(units::gbs(4.6))}});

  const std::size_t jobs = sweep::defaultJobs();
  std::printf("what-if '%s': %zu trials on %zu jobs\n", spec.name.c_str(), spec.trialCount(),
              jobs);
  const sweep::SweepOutcome out = sweep::runSweep(spec, jobs);

  for (const auto& r : out.results) {
    std::printf("%s\n", sweep::toJsonlLine(r).c_str());
  }
  if (out.bandwidthGBs.count() > 0) {
    std::printf("mean across the grid: %.2f GB/s (min %.2f, max %.2f)\n",
                out.bandwidthGBs.mean(), out.bandwidthGBs.min(), out.bandwidthGBs.max());
  }
  return out.failures == 0 ? 0 : 1;
}
