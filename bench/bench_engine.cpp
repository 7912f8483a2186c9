// Engine micro-benchmarks: simulator event loop, flow network
// re-rating, LRU/prefetch caches — the hot paths behind every figure
// bench.
//
// Two modes:
//   (default)              google-benchmark BM_* suite
//   --hcsim_json OUT       machine-readable throughput mode: runs the
//                          fixed scenarios from engine_scenarios.hpp
//                          (schedule/cancel/rebalance-heavy and
//                          fan-out-burst events/sec,
//                          sweep trials/sec plain and cache-served, and
//                          — when --hcsim_golden_dir is given — an
//                          in-process oracle-check cold/warm timing)
//                          and writes one JSON document to OUT.
//     --hcsim_compare REF.json    fail (exit 1) when any per-sec
//                          scenario regresses vs REF beyond tolerance
//     --hcsim_max_regress 0.30    the tolerance (fraction, default 0.30)
//     --hcsim_golden_dir DIR      golden snapshots for the oracle timing
//                          (skipped when absent)
//
// BENCH_engine.json at the repo root is the committed reference the
// check.sh perf smoke compares against; see docs/ENGINE.md for the
// re-record policy.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cache/lru_cache.hpp"
#include "cache/prefetch_cache.hpp"
#include "engine_scenarios.hpp"
#include "net/flow_network.hpp"
#include "oracle/golden.hpp"
#include "sim/simulator.hpp"
#include "sweep/sweep_runner.hpp"
#include "sweep/trial_cache.hpp"
#include "util/json.hpp"
#include "util/random.hpp"

namespace {

using namespace hcsim;

void BM_SimulatorScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    Rng rng(42);
    for (std::size_t i = 0; i < n; ++i) {
      sim.schedule(rng.uniform(), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.eventsDispatched());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_SimulatorCancelChurn(benchmark::State& state) {
  const auto window = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    Rng rng(7);
    std::vector<EventId> ids(window);
    for (std::size_t i = 0; i < window; ++i) ids[i] = sim.schedule(1.0 + rng.uniform(), [] {});
    for (std::size_t i = 0; i < window * 8; ++i) {
      const std::size_t k = rng.uniformInt(static_cast<std::uint64_t>(window));
      sim.cancel(ids[k]);
      ids[k] = sim.schedule(1.0 + rng.uniform(), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.eventsDispatched());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(window) * 8);
}
BENCHMARK(BM_SimulatorCancelChurn)->Arg(1024)->Arg(4096);

void BM_FlowNetworkConcurrentFlows(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    FlowNetwork net(sim);
    const LinkId shared = net.addLink("shared", 1e9);
    std::size_t done = 0;
    for (std::size_t i = 0; i < n; ++i) {
      FlowSpec spec;
      spec.bytes = 1'000'000;
      spec.route = {shared};
      net.startFlow(spec, [&done](const FlowCompletion&) { ++done; });
    }
    sim.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FlowNetworkConcurrentFlows)->Arg(16)->Arg(128)->Arg(512);

void BM_FlowNetworkStaggeredRebalance(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    FlowNetwork net(sim);
    const LinkId shared = net.addLink("shared", 1e9);
    std::size_t done = 0;
    for (std::size_t i = 0; i < n; ++i) {
      FlowSpec spec;
      spec.bytes = 50'000'000;
      spec.route = {shared};
      spec.startupLatency = 1e-6 * static_cast<double>(i);
      net.startFlow(spec, [&done](const FlowCompletion&) { ++done; });
    }
    sim.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * static_cast<std::int64_t>(n + 1));
}
BENCHMARK(BM_FlowNetworkStaggeredRebalance)->Arg(128)->Arg(512);

void BM_LruCacheTouch(benchmark::State& state) {
  LruCache cache(1 << 20);
  for (std::uint64_t k = 0; k < 1024; ++k) cache.insert(k, 1024);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.touch(rng.uniformInt(2048)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LruCacheTouch);

void BM_PrefetchCacheSequentialRead(benchmark::State& state) {
  PrefetchCache cache(64 * 1024 * 1024, 4096, 8);
  Bytes offset = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.read(1, offset, 4096));
    offset += 4096;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PrefetchCacheSequentialRead);

void BM_RngNormal(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.normal(1.0, 0.1));
  }
}
BENCHMARK(BM_RngNormal);

// ---------------------------------------------------------------------------
// Machine-readable throughput mode (check.sh perf smoke).

JsonValue scenarioJson(const benchscn::ScenarioResult& r, const char* perSecKey) {
  JsonObject o;
  o["work_units"] = r.workUnits;
  o["seconds"] = r.seconds;
  o[perSecKey] = r.perSec();
  return JsonValue(std::move(o));
}

/// Wall-time one full oracle golden check (all figures) against `dir`.
double timeOracleCheck(const std::string& dir, sweep::TrialCache& cache, bool& pass) {
  const auto t0 = std::chrono::steady_clock::now();
  for (const oracle::GoldenFigure& fig : oracle::builtinFigures()) {
    const oracle::FigureCheck check = oracle::checkFigure(fig, dir, 1, 2.0, &cache);
    pass = pass && check.pass();
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

struct MachineOptions {
  std::string jsonOut;
  std::string compareRef;
  std::string goldenDir;
  double maxRegress = 0.30;
};

int runMachineMode(const MachineOptions& opt) {
  JsonObject scenarios;
  scenarios["schedule_heavy"] = scenarioJson(benchscn::runScheduleHeavy(), "events_per_sec");
  scenarios["cancel_heavy"] = scenarioJson(benchscn::runCancelHeavy(), "events_per_sec");
  scenarios["rebalance_heavy"] = scenarioJson(benchscn::runRebalanceHeavy(), "events_per_sec");
  scenarios["fanout_burst"] = scenarioJson(benchscn::runFanoutBurst(), "events_per_sec");

  scenarios["sweep_trials"] =
      scenarioJson(benchscn::runSweepTrials(nullptr, benchscn::kSweepPasses), "trials_per_sec");
  sweep::TrialCache warmCache;
  sweep::runSweep(benchscn::benchSweepSpec(), 1, &warmCache);  // fill, untimed
  scenarios["sweep_trials_cached"] = scenarioJson(
      benchscn::runSweepTrials(&warmCache, benchscn::kCachedSweepPasses), "trials_per_sec");

  if (!opt.goldenDir.empty()) {
    std::ifstream probe(oracle::goldenPath(opt.goldenDir, "fig2a"));
    if (probe) {
      sweep::TrialCache cache;
      bool pass = true;
      const double coldSec = timeOracleCheck(opt.goldenDir, cache, pass);
      const double warmSec = timeOracleCheck(opt.goldenDir, cache, pass);
      JsonObject o;
      o["cold_seconds"] = coldSec;
      o["warm_seconds"] = warmSec;
      o["speedup"] = warmSec > 0.0 ? coldSec / warmSec : 0.0;
      o["pass"] = pass;
      scenarios["oracle_check"] = JsonValue(std::move(o));
    } else {
      std::cerr << "bench_engine: no golden snapshots under " << opt.goldenDir
                << ", skipping oracle_check scenario\n";
    }
  }

  JsonObject doc;
  doc["schema"] = "hcsim-bench-engine-v1";
  doc["scenarios"] = JsonValue(std::move(scenarios));
  const JsonValue out(std::move(doc));

  {
    std::ofstream f(opt.jsonOut);
    if (!f) {
      std::cerr << "bench_engine: cannot write " << opt.jsonOut << "\n";
      return 2;
    }
    f << writeJson(out) << "\n";
  }

  // Human-readable recap on stdout.
  const JsonValue* sc = out.find("scenarios");
  for (const auto& [name, v] : *sc->object()) {
    std::cout << name << ":";
    for (const char* key : {"events_per_sec", "trials_per_sec", "speedup"}) {
      if (const JsonValue* p = v.find(key)) {
        std::cout << " " << key << "=" << *p->number();
      }
    }
    std::cout << "\n";
  }

  if (opt.compareRef.empty()) return 0;

  std::ifstream refFile(opt.compareRef);
  if (!refFile) {
    std::cerr << "bench_engine: cannot read reference " << opt.compareRef << "\n";
    return 2;
  }
  std::stringstream buf;
  buf << refFile.rdbuf();
  JsonValue ref;
  if (!parseJson(buf.str(), ref)) {
    std::cerr << "bench_engine: reference " << opt.compareRef << " is not valid JSON\n";
    return 2;
  }
  const JsonValue* refScen = ref.find("scenarios");
  if (refScen == nullptr || refScen->object() == nullptr) {
    std::cerr << "bench_engine: reference has no scenarios object\n";
    return 2;
  }
  int failures = 0;
  for (const auto& [name, refV] : *refScen->object()) {
    for (const char* key : {"events_per_sec", "trials_per_sec"}) {
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
        std::cout << "perf ok " << name << ": " << key << " " << *curRate->number() << " vs ref "
                  << *refRate->number() << "\n";
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
        std::cerr << "bench_engine: " << flag << " needs a value\n";
        std::exit(2);
      }
      dst = argv[++i];
      return true;
    };
    std::string tol;
    if (takeValue("--hcsim_json", opt.jsonOut)) {
      machine = true;
    } else if (takeValue("--hcsim_compare", opt.compareRef)) {
    } else if (takeValue("--hcsim_golden_dir", opt.goldenDir)) {
    } else if (takeValue("--hcsim_max_regress", tol)) {
      opt.maxRegress = std::stod(tol);
    } else if (std::strncmp(argv[i], "--hcsim_", 8) == 0) {
      std::cerr << "bench_engine: unknown option " << argv[i] << "\n";
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
