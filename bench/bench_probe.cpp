// Probe overhead benchmarks: prices the always-on flight-recorder hooks,
// building the recorder's ring, and the SLO watchdog evaluation path.
//
// Two modes:
//   (default)              google-benchmark BM_* suite
//   --hcsim_json OUT and/or --hcsim_compare REF.json
//                          the perf gate (perf_harness.hpp): runs each
//                          engine scenario from engine_scenarios.hpp
//                          with the recorder detached and attached,
//                          a default-capacity recorder build
//                          (recorder_build) next to one bench_engine
//                          sweep trial, and a watchdog-evaluation
//                          scenario, each judged as a ratio to the
//                          calibration kernel, and FAILS (exit 1) when
//                          the worst recorder overhead or build share
//                          exceeds --hcsim_max_overhead (default 0.03).
//                          docs/PROBE.md pins the budget.
//
// BENCH_probe.json at the repo root is the committed reference the
// check.sh perf gate compares against.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "engine_scenarios.hpp"
#include "probe/flight_recorder.hpp"
#include "probe/monitor.hpp"
#include "sim/simulator.hpp"
#include "util/json.hpp"
#include "util/random.hpp"

namespace {

using namespace hcsim;

void BM_RecorderRecord(benchmark::State& state) {
  probe::FlightRecorder rec;
  double t = 0.0;
  for (auto _ : state) {
    rec.record(t, probe::RecordKind::EngineHeartbeat, 7, 1.0);
    t += 1e-6;
    benchmark::DoNotOptimize(rec.totalRecorded());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RecorderRecord);

void BM_SimulatorRunWithRecorder(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool attach = state.range(1) != 0;
  for (auto _ : state) {
    probe::FlightRecorder rec;
    Simulator sim;
    if (attach) sim.setRecorder(&rec);
    Rng rng(42);
    for (std::size_t i = 0; i < n; ++i) sim.schedule(rng.uniform(), [] {});
    sim.run();
    benchmark::DoNotOptimize(sim.eventsDispatched());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimulatorRunWithRecorder)->Args({100000, 0})->Args({100000, 1});

void BM_WatchdogObserveSlice(benchmark::State& state) {
  std::vector<probe::MonitorSpec> specs(2);
  specs[0].name = "floor";
  specs[0].metric = probe::MonitorMetric::GoodputGBs;
  specs[0].min = 0.5;
  specs[0].windowSec = 4.0;
  specs[1].name = "stall";
  specs[1].metric = probe::MonitorMetric::StallSec;
  specs[1].max = 10.0;
  probe::WatchdogSet dog(specs);
  double t = 0.0;
  for (auto _ : state) {
    dog.observeSlice(t, t + 1.0, 1.0);
    t += 1.0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WatchdogObserveSlice);

// ---------------------------------------------------------------------------
// Perf gate and recorder budget (perf_harness.hpp).

/// Recorder construction: 4,000 default-capacity FlightRecorders (about
/// as long as one pass of the 12-trial sweep), each built, fed 32
/// records (about what one sweep trial writes) and destroyed. Work unit
/// = one build. Every TestBench builds one, so a sweep pays this once
/// per trial.
perf::Scenario recorderBuild() {
  constexpr std::size_t kBuilds = 4000;
  return {"recorder_build", kBuilds, [] {
            const perf::Stopwatch sw;
            for (std::size_t i = 0; i < kBuilds; ++i) {
              probe::FlightRecorder rec;
              for (std::uint32_t k = 0; k < 32; ++k) {
                rec.record(1e-3 * k, probe::RecordKind::NetRebalance, k, 1.0);
              }
              benchmark::DoNotOptimize(rec);
            }
            return sw.seconds();
          }};
}

/// Watchdog evaluation throughput: 400,000 timeline slices through a
/// two-monitor set (trailing-window goodput floor + stall ceiling), with
/// a p99 monitor fed one op latency per slice. Work unit = one slice.
perf::Scenario watchdogEval() {
  constexpr std::size_t kSlices = 400000;
  return {"watchdog_eval", kSlices, [] {
            const perf::Stopwatch sw;
            std::vector<probe::MonitorSpec> specs(3);
            specs[0].name = "floor";
            specs[0].metric = probe::MonitorMetric::GoodputGBs;
            specs[0].min = 0.5;
            specs[0].windowSec = 8.0;
            specs[1].name = "stall";
            specs[1].metric = probe::MonitorMetric::StallSec;
            specs[1].max = 30.0;
            specs[2].name = "tail";
            specs[2].metric = probe::MonitorMetric::P99OpLatencySec;
            specs[2].max = 1.0;
            probe::WatchdogSet dog(specs);
            Rng rng(11);
            double t = 0.0;
            for (std::size_t i = 0; i < kSlices; ++i) {
              dog.observeSlice(t, t + 1.0, 0.9 + 0.2 * rng.uniform());
              dog.observeOpLatency(t, 1e-3 * (1.0 + rng.uniform()));
              t += 1.0;
            }
            dog.finish(t);
            benchmark::DoNotOptimize(dog.breaches().size());
            return sw.seconds();
          }};
}

int runGate(const perf::Options& opt) {
  // Each engine scenario runs with the recorder detached ("_off") and
  // attached ("_on") as a pair, interleaved call by call, so both sides
  // see the same host phase. The pairs' calls are short (0.25-3 ms):
  // smaller schedule, cancel and fan-out runs than bench_engine's.
  probe::FlightRecorder rec;
  std::vector<perf::Scenario> scenarios;
  const auto addPair = [&scenarios](perf::Scenario off, perf::Scenario on) {
    off.name += "_off";
    on.name += "_on";
    scenarios.push_back(std::move(off));
    scenarios.push_back(std::move(on));
  };
  addPair(benchscn::scheduleHeavy(nullptr, 4000), benchscn::scheduleHeavy(&rec, 4000));
  addPair(benchscn::cancelHeavy(nullptr, 20000), benchscn::cancelHeavy(&rec, 20000));
  addPair(benchscn::rebalanceHeavy(nullptr), benchscn::rebalanceHeavy(&rec));
  addPair(benchscn::fanoutBurst(nullptr, 200), benchscn::fanoutBurst(&rec, 200));
  scenarios.push_back(recorderBuild());
  scenarios.push_back(benchscn::sweepTrials(nullptr));
  scenarios.push_back(watchdogEval());
  const std::vector<perf::Measured> m = perf::runRounds(scenarios, /*group=*/2);

  // The budget: the median per-round cost of "_on" over "_off", and of
  // one recorder build over one sweep trial (a per-trial cost the hooks
  // never see). A faster "_on" round is noise, not a negative cost.
  JsonObject overheads;
  double worst = 0.0;
  std::string worstName;
  const auto charge = [&](const std::string& name, double share) {
    overheads[name] = share;
    if (share > worst) {
      worst = share;
      worstName = name;
    }
  };
  for (std::size_t i = 0; i < 8; i += 2) {
    const std::string name = m[i].name.substr(0, m[i].name.size() - 4);  // drop "_off"
    charge(name, std::max(0.0, perf::medianCostRatio(m[i + 1], m[i]) - 1.0));
  }
  charge("recorder_build", perf::medianCostRatio(m[8], m[9]));

  const bool pass = worst <= opt.maxOverhead;
  JsonObject oh;
  oh["per_scenario"] = JsonValue(std::move(overheads));
  oh["worst"] = worst;
  oh["budget"] = opt.maxOverhead;
  oh["pass"] = pass;
  JsonObject extra;
  extra["recorder_overhead"] = JsonValue(std::move(oh));
  std::cout << "recorder overhead: worst " << worst * 100.0 << "% (" << worstName
            << "), budget " << opt.maxOverhead * 100.0 << "%\n";
  if (!pass) {
    std::cerr << "PERF FAIL recorder_overhead: " << worstName << " " << worst * 100.0
              << "% > budget " << opt.maxOverhead * 100.0 << "%\n";
  }
  return perf::finish(opt, m, std::move(extra), pass ? 0 : 1);
}

}  // namespace

int main(int argc, char** argv) {
  const perf::Options opt = perf::parseFlags("bench_probe", argc, argv, /*keepOthers=*/true);
  if (opt.gate()) return runGate(opt);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
