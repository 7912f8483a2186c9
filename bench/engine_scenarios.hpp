#pragma once
// Fixed engine-throughput scenarios shared by bench_engine's and
// bench_probe's perf gates (perf_harness.hpp). Each is a deterministic
// workload whose work count depends only on its parameters — never on
// engine internals — so rate ratios between two engine builds equal
// their wall-time ratios. `rec` attaches a flight recorder so bench_probe
// can price the always-on hooks.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/flow_network.hpp"
#include "perf_harness.hpp"
#include "probe/flight_recorder.hpp"
#include "sim/simulator.hpp"
#include "sweep/sweep_runner.hpp"
#include "sweep/sweep_spec.hpp"
#include "sweep/trial_cache.hpp"
#include "util/json.hpp"
#include "util/random.hpp"

namespace hcsim::benchscn {

/// Schedule-heavy: `events` events at pseudo-random times, dispatched
/// in one run(). Work unit = one schedule+dispatch pair.
inline perf::Scenario scheduleHeavy(probe::FlightRecorder* rec = nullptr,
                                    std::size_t events = 400000) {
  return {"schedule_heavy", static_cast<double>(events), [rec, events] {
            const perf::Stopwatch sw;
            Simulator sim;
            sim.setRecorder(rec);
            Rng rng(42);
            for (std::size_t i = 0; i < events; ++i) sim.schedule(rng.uniform(), [] {});
            sim.run();
            return sw.seconds();
          }};
}

/// Cancel-heavy: keep a window of 4,096 pending events; `churn` times,
/// cancel a pseudo-randomly chosen pending event and schedule a
/// replacement, then drain. Exercises in-place removal (or tombstone
/// accumulation in a lazy-deletion scheduler). Work unit = one
/// cancel+schedule pair.
inline perf::Scenario cancelHeavy(probe::FlightRecorder* rec = nullptr,
                                  std::size_t churn = 200000) {
  constexpr std::size_t kWindow = 4096;
  return {"cancel_heavy", static_cast<double>(churn), [rec, churn] {
            const perf::Stopwatch sw;
            Simulator sim;
            sim.setRecorder(rec);
            Rng rng(7);
            std::vector<EventId> ids(kWindow);
            for (std::size_t i = 0; i < kWindow; ++i) {
              ids[i] = sim.schedule(1.0 + rng.uniform(), [] {});
            }
            for (std::size_t i = 0; i < churn; ++i) {
              const std::size_t k = rng.uniformInt(static_cast<std::uint64_t>(kWindow));
              sim.cancel(ids[k]);
              ids[k] = sim.schedule(1.0 + rng.uniform(), [] {});
            }
            sim.run();
            return sw.seconds();
          }};
}

/// Rebalance-heavy: 600 equal flows over one shared link, arrivals
/// staggered so every arrival and every completion rebalances a large
/// active set. Work per run = sum over arrivals and completions of the
/// active-set size = F*(F+1) (what a per-flow solver re-rates), a pure
/// function of F.
inline perf::Scenario rebalanceHeavy(probe::FlightRecorder* rec = nullptr) {
  constexpr std::size_t kFlows = 600;
  return {"rebalance_heavy", kFlows * (kFlows + 1), [rec] {
            const perf::Stopwatch sw;
            Simulator sim;
            sim.setRecorder(rec);
            FlowNetwork net(sim);
            const LinkId shared = net.addLink("shared", 1e9);
            std::size_t done = 0;
            for (std::size_t i = 0; i < kFlows; ++i) {
              FlowSpec spec;
              spec.bytes = 50'000'000;
              spec.route = {shared};
              // Stagger arrivals so each start lands while earlier flows
              // are still active and forces a rebalance.
              spec.startupLatency = 1e-6 * static_cast<double>(i);
              net.startFlow(spec, [&done](const FlowCompletion&) { ++done; });
            }
            sim.run();
            if (done != kFlows) throw std::runtime_error("rebalance_heavy: lost flows");
            return sw.seconds();
          }};
}

/// Fan-out bursts in the DAOS write shape: each of 8 clients writes one
/// 8 MiB request at a time, `writes` times, and replicates it from the
/// client to three of 16 targets. A round starts three flows on three
/// routes that share the client's link, with one startup latency, so
/// their activations land at one instant; the client's next round starts
/// when its last replica lands. Work unit = one flow.
inline perf::Scenario fanoutBurst(probe::FlightRecorder* rec = nullptr,
                                  std::size_t writes = 1000) {
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kTargets = 16;
  constexpr std::size_t kReplicas = 3;
  return {"fanout_burst", static_cast<double>(kClients * writes * kReplicas), [rec, writes] {
            const perf::Stopwatch sw;
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
              if (issued[c] == writes) return;
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
            if (done != kClients * writes * kReplicas) {
              throw std::runtime_error("fanout_burst: lost flows");
            }
            return sw.seconds();
          }};
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

/// Sweep trials: one single-job run of benchSweepSpec(). Work unit = one
/// trial. With `cache`, every trial is served from it (fill it first).
inline perf::Scenario sweepTrials(sweep::TrialCache* cache) {
  const sweep::SweepSpec spec = benchSweepSpec();
  return {cache != nullptr ? "sweep_trials_cached" : "sweep_trials",
          static_cast<double>(spec.trialCount()), [spec, cache] {
            const perf::Stopwatch sw;
            sweep::runSweep(spec, /*jobs=*/1, cache);
            return sw.seconds();
          }};
}

}  // namespace hcsim::benchscn
