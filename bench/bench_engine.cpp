// Engine micro-benchmarks: simulator event loop, flow network
// re-rating, LRU/prefetch caches — the hot paths behind every figure
// bench.
//
// Two modes:
//   (default)              google-benchmark BM_* suite
//   --hcsim_json OUT and/or --hcsim_compare REF.json
//                          the perf gate (perf_harness.hpp): the fixed
//                          scenarios from engine_scenarios.hpp
//                          (schedule/cancel/rebalance-heavy and
//                          fan-out-burst events, sweep trials plain and
//                          cache-served), each judged as a ratio to the
//                          calibration kernel, and — when
//                          --hcsim_golden_dir is given — an in-process
//                          oracle-check cold/warm timing.
//
// BENCH_engine.json at the repo root is the committed reference the
// check.sh perf gate compares against; see docs/ENGINE.md.

#include <benchmark/benchmark.h>

#include <fstream>
#include <iostream>
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
// Perf gate (perf_harness.hpp).

/// Wall-time one full oracle golden check (all figures) against `dir`.
double timeOracleCheck(const std::string& dir, sweep::TrialCache& cache, bool& pass) {
  const perf::Stopwatch sw;
  for (const oracle::GoldenFigure& fig : oracle::builtinFigures()) {
    const oracle::FigureCheck check = oracle::checkFigure(fig, dir, 1, 2.0, &cache);
    pass = pass && check.pass();
  }
  return sw.seconds();
}

int runGate(const perf::Options& opt) {
  sweep::TrialCache warmCache;
  sweep::runSweep(benchscn::benchSweepSpec(), 1, &warmCache);  // fill, untimed
  const std::vector<perf::Measured> measured = perf::runRounds(
      {benchscn::scheduleHeavy(), benchscn::cancelHeavy(), benchscn::rebalanceHeavy(),
       benchscn::fanoutBurst(), benchscn::sweepTrials(nullptr), benchscn::sweepTrials(&warmCache)});

  // The cold/warm oracle check is reported, not gated.
  JsonObject extra;
  if (!opt.goldenDir.empty()) {
    if (std::ifstream(oracle::goldenPath(opt.goldenDir, "fig2a"))) {
      sweep::TrialCache cache;
      bool pass = true;
      const double coldSec = timeOracleCheck(opt.goldenDir, cache, pass);
      const double warmSec = timeOracleCheck(opt.goldenDir, cache, pass);
      JsonObject o;
      o["cold_seconds"] = coldSec;
      o["warm_seconds"] = warmSec;
      o["speedup"] = warmSec > 0.0 ? coldSec / warmSec : 0.0;
      o["pass"] = pass;
      extra["oracle_check"] = JsonValue(std::move(o));
    } else {
      std::cerr << "bench_engine: no golden snapshots under " << opt.goldenDir
                << ", skipping oracle_check\n";
    }
  }
  return perf::finish(opt, measured, std::move(extra));
}

}  // namespace

int main(int argc, char** argv) {
  const perf::Options opt = perf::parseFlags("bench_engine", argc, argv, /*keepOthers=*/true);
  if (opt.gate()) return runGate(opt);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
