#pragma once
// Fixed engine-throughput scenarios shared by bench_engine's and
// bench_probe's machine-readable modes and the check.sh perf smoke. Each
// scenario is a deterministic workload with a nominal work count that
// depends only on the scenario parameters — never on engine internals —
// so events/sec ratios between two engine builds equal their wall-time
// ratios.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/flow_network.hpp"
#include "probe/flight_recorder.hpp"
#include "sim/simulator.hpp"
#include "sweep/sweep_runner.hpp"
#include "sweep/sweep_spec.hpp"
#include "sweep/trial_cache.hpp"
#include "util/json.hpp"
#include "util/random.hpp"

namespace hcsim::benchscn {

struct ScenarioResult {
  std::string name;
  double workUnits = 0.0;  ///< nominal operations (scenario-defined)
  double seconds = 0.0;    ///< wall time of the best repetition
  double perSec() const { return seconds > 0.0 ? workUnits / seconds : 0.0; }
};

namespace detail {

template <class Fn>
double bestOf(std::size_t reps, Fn&& fn) {
  double best = -1.0;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double sec = std::chrono::duration<double>(t1 - t0).count();
    if (best < 0.0 || sec < best) best = sec;
  }
  return best;
}

}  // namespace detail

/// Schedule-heavy: N events at pseudo-random times, dispatched in one
/// run(). Work unit = one schedule+dispatch pair. `rec` attaches a
/// flight recorder so bench_probe can price the always-on hooks.
inline ScenarioResult runScheduleHeavy(std::size_t n = 400000, std::size_t reps = 3,
                                       probe::FlightRecorder* rec = nullptr) {
  ScenarioResult res;
  res.name = "schedule_heavy";
  res.workUnits = static_cast<double>(n);
  res.seconds = detail::bestOf(reps, [n, rec] {
    Simulator sim;
    sim.setRecorder(rec);
    Rng rng(42);
    for (std::size_t i = 0; i < n; ++i) sim.schedule(rng.uniform(), [] {});
    sim.run();
  });
  return res;
}

/// Cancel-heavy: keep a window of W pending events; N times, cancel a
/// pseudo-randomly chosen pending event and schedule a replacement, then
/// drain. Exercises in-place removal (or tombstone accumulation in a
/// lazy-deletion scheduler). Work unit = one cancel+schedule pair.
inline ScenarioResult runCancelHeavy(std::size_t window = 4096, std::size_t churn = 200000,
                                     std::size_t reps = 3,
                                     probe::FlightRecorder* rec = nullptr) {
  ScenarioResult res;
  res.name = "cancel_heavy";
  res.workUnits = static_cast<double>(churn);
  res.seconds = detail::bestOf(reps, [window, churn, rec] {
    Simulator sim;
    sim.setRecorder(rec);
    Rng rng(7);
    std::vector<EventId> ids(window);
    for (std::size_t i = 0; i < window; ++i) {
      ids[i] = sim.schedule(1.0 + rng.uniform(), [] {});
    }
    for (std::size_t i = 0; i < churn; ++i) {
      const std::size_t k = rng.uniformInt(static_cast<std::uint64_t>(window));
      sim.cancel(ids[k]);
      ids[k] = sim.schedule(1.0 + rng.uniform(), [] {});
    }
    sim.run();
  });
  return res;
}

/// Runs of the rebalance-heavy script per timed repetition. One run of
/// the 600-flow script takes ~0.25 ms, too short to time against the
/// host clock; 250 make a repetition of ~60 ms on a 4-vCPU VM.
inline constexpr std::size_t kRebalanceRuns = 250;

/// Rebalance-heavy: F equal flows over one shared link, arrivals
/// staggered so every arrival and every completion rebalances a large
/// active set; one repetition replays that script kRebalanceRuns times.
/// Nominal work per run = sum over arrivals and completions of the
/// active-set size ≈ F*(F+2) (what a per-flow solver re-rates), a pure
/// function of F, so events/sec does not depend on the run count.
inline ScenarioResult runRebalanceHeavy(std::size_t flows = 600, std::size_t reps = 3,
                                        probe::FlightRecorder* rec = nullptr) {
  ScenarioResult res;
  res.name = "rebalance_heavy";
  // Arrival i re-rates i+1 active flows; completion leaving k flows
  // re-rates k. Both sums are F*(F+1)/2 over the run.
  res.workUnits = static_cast<double>(kRebalanceRuns) * static_cast<double>(flows) *
                  (static_cast<double>(flows) + 1.0);
  res.seconds = detail::bestOf(reps, [flows, rec] {
    for (std::size_t run = 0; run < kRebalanceRuns; ++run) {
      Simulator sim;
      sim.setRecorder(rec);
      FlowNetwork net(sim);
      const LinkId shared = net.addLink("shared", 1e9);
      std::size_t done = 0;
      for (std::size_t i = 0; i < flows; ++i) {
        FlowSpec spec;
        spec.bytes = 50'000'000;
        spec.route = {shared};
        // Stagger arrivals so each start lands while earlier flows are
        // still active and forces a rebalance.
        spec.startupLatency = 1e-6 * static_cast<double>(i);
        net.startFlow(spec, [&done](const FlowCompletion&) { ++done; });
      }
      sim.run();
      if (done != flows) throw std::runtime_error("rebalance_heavy: lost flows");
    }
  });
  return res;
}

/// Write rounds per client in one fan-out-burst repetition, sized so that
/// a repetition lasts at least ~50 ms on a 4-vCPU VM.
inline constexpr std::size_t kFanoutRounds = 9000;

/// Fan-out bursts in the DAOS write shape: each of 8 clients writes one
/// 8 MiB request at a time and replicates it from the client to three of
/// 16 targets. A round starts three flows on three routes that share the
/// client's link, with one startup latency, so their activations land at
/// one instant; the client's next round starts when its last replica
/// lands. Work unit = one flow.
inline ScenarioResult runFanoutBurst(std::size_t rounds = kFanoutRounds, std::size_t reps = 3,
                                     probe::FlightRecorder* rec = nullptr) {
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kTargets = 16;
  constexpr std::size_t kReplicas = 3;
  ScenarioResult res;
  res.name = "fanout_burst";
  res.workUnits = static_cast<double>(kClients * rounds * kReplicas);
  res.seconds = detail::bestOf(reps, [rounds, rec] {
    Simulator sim;
    sim.setRecorder(rec);
    FlowNetwork net(sim);
    std::vector<LinkId> clients;
    std::vector<LinkId> targets;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.push_back(net.addLink("client" + std::to_string(c), 12.5e9));
    }
    for (std::size_t t = 0; t < kTargets; ++t) {
      targets.push_back(net.addLink("target" + std::to_string(t), 3e9));
    }
    std::vector<std::size_t> issued(kClients, 0);
    std::vector<std::size_t> inFlight(kClients, 0);
    std::size_t done = 0;
    std::function<void(std::size_t)> issue = [&](std::size_t c) {
      if (issued[c] == rounds) return;
      const std::size_t first = c * 5 + issued[c]++ * 3;  // three distinct targets
      inFlight[c] = kReplicas;
      for (std::size_t k = 0; k < kReplicas; ++k) {
        FlowSpec spec;
        spec.bytes = 8u << 20;
        spec.route = {clients[c], targets[(first + k) % kTargets]};
        spec.startupLatency = 2e-6;
        net.startFlow(spec, [&, c](const FlowCompletion&) {
          ++done;
          if (--inFlight[c] == 0) issue(c);
        });
      }
    };
    for (std::size_t c = 0; c < kClients; ++c) issue(c);
    sim.run();
    if (done != kClients * rounds * kReplicas) {
      throw std::runtime_error("fanout_burst: lost flows");
    }
  });
  return res;
}

/// The fixed sweep behind the trials/sec scenarios: 12 IOR cells on Lassen.
inline sweep::SweepSpec benchSweepSpec() {
  sweep::SweepSpec spec;
  spec.name = "bench-engine";
  spec.experiment = "ior";
  JsonObject ior;
  ior["segments"] = 200.0;
  ior["procsPerNode"] = 4.0;
  ior["repetitions"] = 1.0;
  JsonObject base;
  base["site"] = "lassen";
  base["ior"] = JsonValue(std::move(ior));
  spec.base = JsonValue(std::move(base));
  spec.axes.push_back({"storage", {JsonValue("gpfs"), JsonValue("vast")}});
  spec.axes.push_back(
      {"ior.access", {JsonValue("seq-write"), JsonValue("seq-read"), JsonValue("rand-read")}});
  spec.axes.push_back({"ior.nodes", {JsonValue(1.0), JsonValue(4.0)}});
  return spec;
}

/// Passes of benchSweepSpec() per timed repetition, sized so that one
/// repetition lasts at least ~50 ms on a 4-vCPU VM (a single 12-trial
/// pass takes ~0.2 ms simulated and ~50 µs served from the cache, too
/// short to time against the host clock).
inline constexpr std::size_t kSweepPasses = 300;
inline constexpr std::size_t kCachedSweepPasses = 2000;

/// Sweep trials/sec: `passes` back-to-back single-job runs of
/// benchSweepSpec() per repetition. Work unit = one trial run, so
/// trials/sec does not depend on the pass count. With `cache`, every
/// trial is served from it (fill it first).
inline ScenarioResult runSweepTrials(sweep::TrialCache* cache, std::size_t passes,
                                     std::size_t reps = 3) {
  const sweep::SweepSpec spec = benchSweepSpec();
  ScenarioResult res;
  res.name = cache != nullptr ? "sweep_trials_cached" : "sweep_trials";
  res.workUnits = static_cast<double>(passes * spec.trialCount());
  res.seconds = detail::bestOf(reps, [&spec, cache, passes] {
    for (std::size_t p = 0; p < passes; ++p) sweep::runSweep(spec, /*jobs=*/1, cache);
  });
  return res;
}

}  // namespace hcsim::benchscn
