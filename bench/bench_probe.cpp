// Probe overhead benchmarks: prices the always-on flight-recorder hooks,
// building the recorder's ring, and the SLO watchdog evaluation path.
//
// Two modes:
//   (default)              google-benchmark BM_* suite
//   --hcsim_json OUT       machine-readable mode: runs each engine
//                          scenario from engine_scenarios.hpp twice —
//                          recorder detached and recorder attached —
//                          prices one default-capacity recorder build
//                          (recorder_build) against one bench_engine
//                          sweep trial, runs a watchdog-evaluation
//                          scenario, writes one JSON document to OUT,
//                          and FAILS (exit 1) when the worst recorder
//                          overhead or build share exceeds the budget.
//                          docs/PROBE.md pins the budget.
//     --hcsim_compare REF.json    fail (exit 1) when any per-sec
//                          scenario regresses vs REF beyond tolerance
//     --hcsim_max_regress 0.30    regression tolerance (default 0.30)
//     --hcsim_max_overhead 0.03   recorder-on vs recorder-off budget,
//                          and recorder-build vs sweep-trial budget
//                          (fraction, default 0.03)
//
// BENCH_probe.json at the repo root is the committed reference the
// check.sh perf smoke compares against.

#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
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
// Machine-readable mode (check.sh perf smoke + overhead gate).

JsonValue scenarioJson(const benchscn::ScenarioResult& r, const char* perSecKey) {
  JsonObject o;
  o["work_units"] = r.workUnits;
  o["seconds"] = r.seconds;
  o[perSecKey] = r.perSec();
  return JsonValue(std::move(o));
}

struct OverheadPair {
  benchscn::ScenarioResult off;
  benchscn::ScenarioResult on;
  /// Fractional slowdown of the recorder-attached run (clamped at 0: a
  /// faster "on" run is noise, not a negative cost).
  double overhead() const {
    if (off.seconds <= 0.0 || on.seconds <= 0.0) return 0.0;
    const double frac = on.seconds / off.seconds - 1.0;
    return frac > 0.0 ? frac : 0.0;
  }
};

benchscn::ScenarioResult runScenarioOnce(const char* name, probe::FlightRecorder* rec) {
  if (std::strcmp(name, "schedule_heavy") == 0) return benchscn::runScheduleHeavy(400000, 1, rec);
  if (std::strcmp(name, "cancel_heavy") == 0) return benchscn::runCancelHeavy(4096, 200000, 1, rec);
  if (std::strcmp(name, "fanout_burst") == 0) {
    return benchscn::runFanoutBurst(benchscn::kFanoutRounds, 1, rec);
  }
  return benchscn::runRebalanceHeavy(600, 1, rec);
}

/// Alternate single off/on runs and keep the best of each side: host
/// clock drift between two separate timing blocks is larger than the
/// overhead being priced, interleaving cancels it.
OverheadPair runPair(const char* name, std::size_t reps) {
  OverheadPair p;
  probe::FlightRecorder rec;
  for (std::size_t r = 0; r < reps; ++r) {
    const benchscn::ScenarioResult off = runScenarioOnce(name, nullptr);
    const benchscn::ScenarioResult on = runScenarioOnce(name, &rec);
    if (r == 0 || off.seconds < p.off.seconds) p.off = off;
    if (r == 0 || on.seconds < p.on.seconds) p.on = on;
  }
  return p;
}

/// Recorder construction: N default-capacity FlightRecorders, each
/// built, fed 32 records (about what one sweep trial writes) and
/// destroyed. Work unit = one build. Every TestBench builds one, so a
/// sweep pays this once per trial.
benchscn::ScenarioResult runRecorderBuild(std::size_t builds = 200000, std::size_t reps = 3) {
  benchscn::ScenarioResult res;
  res.name = "recorder_build";
  res.workUnits = static_cast<double>(builds);
  res.seconds = benchscn::detail::bestOf(reps, [builds] {
    for (std::size_t i = 0; i < builds; ++i) {
      probe::FlightRecorder rec;
      for (std::uint32_t k = 0; k < 32; ++k) {
        rec.record(1e-3 * k, probe::RecordKind::NetRebalance, k, 1.0);
      }
      benchmark::DoNotOptimize(rec);
    }
  });
  return res;
}

/// Watchdog evaluation throughput: N timeline slices through a two-
/// monitor set (trailing-window goodput floor + stall ceiling), with a
/// p99 monitor fed one op latency per slice. Work unit = one slice.
benchscn::ScenarioResult runWatchdogEval(std::size_t slices = 400000, std::size_t reps = 3) {
  benchscn::ScenarioResult res;
  res.name = "watchdog_eval";
  res.workUnits = static_cast<double>(slices);
  res.seconds = benchscn::detail::bestOf(reps, [slices] {
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
    for (std::size_t i = 0; i < slices; ++i) {
      dog.observeSlice(t, t + 1.0, 0.9 + 0.2 * rng.uniform());
      dog.observeOpLatency(t, 1e-3 * (1.0 + rng.uniform()));
      t += 1.0;
    }
    dog.finish(t);
    benchmark::DoNotOptimize(dog.breaches().size());
  });
  return res;
}

struct MachineOptions {
  std::string jsonOut;
  std::string compareRef;
  double maxRegress = 0.30;
  double maxOverhead = 0.03;
};

int runMachineMode(const MachineOptions& opt) {
  const char* const kPairs[] = {"schedule_heavy", "cancel_heavy", "rebalance_heavy",
                                "fanout_burst"};

  benchscn::runScheduleHeavy(400000, 1);  // warmup: page in allocator + code

  JsonObject scenarios;
  JsonObject overheads;
  double worst = 0.0;
  std::string worstName;
  for (const char* name : kPairs) {
    OverheadPair p = runPair(name, 7);
    // One retry with more repetitions before declaring a budget miss:
    // the gate prices a ~1% mechanism with wall clocks, so a single
    // scheduler hiccup must not fail the build.
    if (p.overhead() > opt.maxOverhead) p = runPair(name, 13);
    scenarios[std::string(name) + "_off"] = scenarioJson(p.off, "events_per_sec");
    scenarios[std::string(name) + "_on"] = scenarioJson(p.on, "events_per_sec");
    overheads[name] = p.overhead();
    if (p.overhead() > worst) {
      worst = p.overhead();
      worstName = name;
    }
  }
  // Building the ring is a per-trial cost the hooks above never see:
  // price one build against one trial of bench_engine's sweep.
  const benchscn::ScenarioResult build = runRecorderBuild();
  const benchscn::ScenarioResult trials = benchscn::runSweepTrials(nullptr, benchscn::kSweepPasses);
  const double buildShare =
      (build.seconds / build.workUnits) / (trials.seconds / trials.workUnits);
  scenarios["recorder_build"] = scenarioJson(build, "builds_per_sec");
  scenarios["sweep_trials"] = scenarioJson(trials, "trials_per_sec");
  overheads["recorder_build"] = buildShare;
  if (buildShare > worst) {
    worst = buildShare;
    worstName = "recorder_build";
  }
  scenarios["watchdog_eval"] = scenarioJson(runWatchdogEval(), "slices_per_sec");

  const bool overheadPass = worst <= opt.maxOverhead;
  JsonObject oh;
  oh["per_scenario"] = JsonValue(std::move(overheads));
  oh["worst"] = worst;
  oh["budget"] = opt.maxOverhead;
  oh["pass"] = overheadPass;

  JsonObject doc;
  doc["schema"] = "hcsim-bench-probe-v1";
  doc["scenarios"] = JsonValue(std::move(scenarios));
  doc["recorder_overhead"] = JsonValue(std::move(oh));
  const JsonValue out(std::move(doc));

  {
    std::ofstream f(opt.jsonOut);
    if (!f) {
      std::cerr << "bench_probe: cannot write " << opt.jsonOut << "\n";
      return 2;
    }
    f << writeJson(out) << "\n";
  }

  const JsonValue* sc = out.find("scenarios");
  for (const auto& [name, v] : *sc->object()) {
    std::cout << name << ":";
    for (const char* key : {"events_per_sec", "slices_per_sec", "builds_per_sec",
                            "trials_per_sec"}) {
      if (const JsonValue* p = v.find(key)) std::cout << " " << key << "=" << *p->number();
    }
    std::cout << "\n";
  }
  std::cout << "recorder overhead: worst " << worst * 100.0 << "% (" << worstName
            << "), budget " << opt.maxOverhead * 100.0 << "%\n";

  int failures = 0;
  if (!overheadPass) {
    std::cerr << "PERF FAIL recorder_overhead: " << worstName << " " << worst * 100.0
              << "% > budget " << opt.maxOverhead * 100.0 << "%\n";
    ++failures;
  }

  if (!opt.compareRef.empty()) {
    std::ifstream refFile(opt.compareRef);
    if (!refFile) {
      std::cerr << "bench_probe: cannot read reference " << opt.compareRef << "\n";
      return 2;
    }
    std::stringstream buf;
    buf << refFile.rdbuf();
    JsonValue ref;
    if (!parseJson(buf.str(), ref)) {
      std::cerr << "bench_probe: reference " << opt.compareRef << " is not valid JSON\n";
      return 2;
    }
    const JsonValue* refScen = ref.find("scenarios");
    if (refScen == nullptr || refScen->object() == nullptr) {
      std::cerr << "bench_probe: reference has no scenarios object\n";
      return 2;
    }
    for (const auto& [name, refV] : *refScen->object()) {
      for (const char* key : {"events_per_sec", "slices_per_sec"}) {
        const JsonValue* refRate = refV.find(key);
        if (refRate == nullptr || refRate->number() == nullptr) continue;
        const JsonValue* curScen = sc->find(name);
        const JsonValue* curRate = curScen != nullptr ? curScen->find(key) : nullptr;
        if (curRate == nullptr || curRate->number() == nullptr) {
          std::cerr << "PERF FAIL " << name << ": scenario missing from current run\n";
          ++failures;
          continue;
        }
        const double floor = *refRate->number() * (1.0 - opt.maxRegress);
        if (*curRate->number() < floor) {
          std::cerr << "PERF FAIL " << name << ": " << key << " " << *curRate->number()
                    << " < floor " << floor << " (ref " << *refRate->number() << ", tolerance "
                    << opt.maxRegress * 100.0 << "%)\n";
          ++failures;
        } else {
          std::cout << "perf ok " << name << ": " << key << " " << *curRate->number()
                    << " vs ref " << *refRate->number() << "\n";
        }
      }
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  MachineOptions opt;
  bool machine = false;
  for (int i = 1; i < argc; ++i) {
    const auto takeValue = [&](const char* flag, std::string& dst) {
      if (std::strcmp(argv[i], flag) != 0) return false;
      if (i + 1 >= argc) {
        std::cerr << "bench_probe: " << flag << " needs a value\n";
        std::exit(2);
      }
      dst = argv[++i];
      return true;
    };
    std::string num;
    if (takeValue("--hcsim_json", opt.jsonOut)) {
      machine = true;
    } else if (takeValue("--hcsim_compare", opt.compareRef)) {
    } else if (takeValue("--hcsim_max_regress", num)) {
      opt.maxRegress = std::stod(num);
    } else if (takeValue("--hcsim_max_overhead", num)) {
      opt.maxOverhead = std::stod(num);
    } else if (std::strncmp(argv[i], "--hcsim_", 8) == 0) {
      std::cerr << "bench_probe: unknown option " << argv[i] << "\n";
      return 2;
    }
  }
  if (machine) return runMachineMode(opt);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
