// hcsim_perfbench — the benchmark program behind perfbench/run.py.
//
//   hcsim_perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//                   [--size full|smoke] [--data-dir perfbench]
//                   [--results-dir DIR] [--commit C] [--source-sha256 H]
//
// --trace 0 measures the end-to-end metrics with tracing off: measured
// passes repeat until --seconds have elapsed, each preceded by set-up
// timed alone a few times, and each piece of work counts at its best time. --trace 1 alternates
// untraced and traced passes while another pair fits in --seconds (at
// least one pair) and reports the per-layer split of the traced ones.
// Either way every pass's simulated outputs are checked; a failed check
// exits 1 without printing a result. The last stdout line is the result
// object.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "workloads.hpp"

namespace {

using hcsim::JsonObject;
using hcsim::JsonValue;
using perfbench::Layer;
using perfbench::Pass;
using Clock = std::chrono::steady_clock;

/// The seed whose simulated digests perfbench/reference.json records.
constexpr std::uint64_t kDefaultSeed = 1;
/// The oracle's golden tolerance, applied to non-count digest entries.
constexpr double kDigestTolerance = 0.02;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  perfbench::Size size = perfbench::Size::Full;
  std::string dataDir = "perfbench";
  std::string resultsDir;
  std::string commit = "unknown";
  std::string sourceSha = "unknown";
};

bool parseArgs(int argc, char** argv, Options& o, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      error = "missing value for " + key;
      return false;
    }
    const std::string value = argv[++i];
    try {
      if (key == "--workload") o.workload = value;
      else if (key == "--seed") o.seed = std::stoull(value);
      else if (key == "--seconds") o.seconds = std::stod(value);
      else if (key == "--trace" && (value == "0" || value == "1")) o.trace = value == "1";
      else if (key == "--size" && (value == "full" || value == "smoke"))
        o.size = value == "full" ? perfbench::Size::Full : perfbench::Size::Smoke;
      else if (key == "--data-dir") o.dataDir = value;
      else if (key == "--results-dir") o.resultsDir = value;
      else if (key == "--commit") o.commit = value;
      else if (key == "--source-sha256") o.sourceSha = value;
      else {
        error = "unknown argument " + key + " " + value;
        return false;
      }
    } catch (const std::exception&) {
      error = "bad value for " + key + ": " + value;
      return false;
    }
  }
  if (o.workload.empty()) error = "--workload is required";
  else if (!(o.seconds > 0.0)) error = "--seconds must be > 0";
  return error.empty();
}

/// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

/// Peak resident set of this process image. VmHWM, unlike getrusage's
/// ru_maxrss, starts afresh at exec, so it does not report the launching
/// interpreter's footprint.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("perfbench: no VmHWM in /proc/self/status");
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

JsonValue digestJson(const std::vector<perfbench::DigestEntry>& digest) {
  JsonObject o;
  for (const perfbench::DigestEntry& e : digest) o[e.name] = e.value;
  return JsonValue(std::move(o));
}

/// Every pass of one run must simulate the same thing, bit for bit.
void checkSameDigest(const Pass& first, const Pass& pass, std::vector<std::string>& problems) {
  for (std::size_t i = 0; i < first.digest.size(); ++i) {
    if (pass.digest.size() != first.digest.size() ||
        pass.digest[i].value != first.digest[i].value) {
      problems.push_back("passes disagree on " + first.digest[i].name +
                         " (every pass, traced or not, must simulate the same outputs)");
      return;
    }
  }
}

/// At the default seed and full size, compare against reference.json.
void checkReference(const Options& o, const Pass& pass, std::vector<std::string>& problems) {
  if (o.seed != kDefaultSeed || o.size != perfbench::Size::Full) return;
  const std::string path = o.dataDir + "/reference.json";
  std::ifstream f(path);
  std::stringstream text;
  text << f.rdbuf();
  JsonValue doc;
  if (!f || !hcsim::parseJson(text.str(), doc)) {
    problems.push_back("cannot read " + path);
    return;
  }
  const JsonValue* ref = doc.find(o.workload);
  if (ref == nullptr || !ref->isObject()) {
    problems.push_back(path + " has no digest for " + o.workload);
    return;
  }
  for (const perfbench::DigestEntry& e : pass.digest) {
    const JsonValue* want = ref->find(e.name);
    if (want == nullptr || want->number() == nullptr) {
      problems.push_back(path + ": " + o.workload + " lacks " + e.name);
      continue;
    }
    const double w = *want->number();
    const bool ok = e.exact ? e.value == w
                            : std::fabs(e.value - w) <= kDigestTolerance * std::fabs(w);
    if (!ok) {
      problems.push_back(o.workload + " digest " + e.name + " = " + hcsim::jsonNumber(e.value) +
                         ", reference " + hcsim::jsonNumber(w));
    }
  }
}

JsonValue provenance(const Options& o, const perfbench::Workload& wl) {
  JsonObject p;
  p["workload"] = o.workload;
  p["seed"] = static_cast<double>(o.seed);
  p["seconds"] = o.seconds;
  p["trace"] = o.trace;
  p["size"] = o.size == perfbench::Size::Full ? "full" : "smoke";
  p["nproc"] = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  p["compiler"] = PERFBENCH_COMPILER;
  p["build_type"] = PERFBENCH_BUILD_TYPE;
  p["commit"] = o.commit;
  p["source_sha256"] = o.sourceSha;
  p["params"] = wl.params();
  return JsonValue(std::move(p));
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  JsonObject detail;  ///< written to the results file only
};

void addPass(Outcome& out, const Pass& first, const Pass& pass) {
  out.attempted += pass.attempted;
  out.failed += pass.failed;
  out.problems.insert(out.problems.end(), pass.problems.begin(), pass.problems.end());
  checkSameDigest(first, pass, out.problems);
}

JsonValue samplesJson(const std::vector<double>& v) {
  return JsonValue(hcsim::JsonArray(v.begin(), v.end()));
}

/// Element-wise minimum of equally long sample vectors.
std::vector<double> bestOf(const std::vector<std::vector<double>>& samples) {
  std::vector<double> best = samples.front();
  for (const std::vector<double>& v : samples) {
    for (std::size_t i = 0; i < best.size() && i < v.size(); ++i) best[i] = std::min(best[i], v[i]);
  }
  return best;
}

/// Tracing off: measured passes for --seconds, each preceded by set-up
/// timed alone a few times, so both sample the whole run. Every unit of
/// work, every timed trial and every set-up is repeated across the run,
/// and each counts at its best (lowest) time: interference from other
/// tenants of the host only ever slows work down, so the minimum is the
/// steady estimate of what the code costs. wall_s adds up the units' best
/// times; the trial percentiles are taken over the trials' best times.
Outcome timedRun(const Options& o, perfbench::Workload& wl) {
  Outcome out;
  std::vector<double> setup;
  std::vector<Pass> passes;
  std::vector<std::vector<double>> units;
  std::vector<std::vector<double>> trials;
  std::vector<double> walls;
  const auto start = Clock::now();
  do {
    for (std::size_t i = 0; i < wl.setupRepeats(); ++i) {
      const auto t0 = Clock::now();
      wl.setup();
      setup.push_back(since(t0));
    }
    passes.push_back(wl.run(nullptr));
    const Pass& pass = passes.back();
    units.push_back(pass.unitSec);
    trials.push_back(pass.trialSec);
    walls.push_back(pass.wallSec());
    addPass(out, passes.front(), pass);
  } while (since(start) < o.seconds);
  checkReference(o, passes.front(), out.problems);

  double wall = 0.0;
  for (double u : bestOf(units)) wall += u;
  const std::vector<double> trial = bestOf(trials);
  out.metrics = {{"wall_s", wall, "s"},
                 {"setup_s", *std::min_element(setup.begin(), setup.end()), "s"},
                 {"peak_rss_mb", peakRssMb(), "MB"},
                 {"trial_p50_ms", 1e3 * percentile(trial, 0.50), "ms"},
                 {"trial_p99_ms", 1e3 * percentile(trial, 0.99), "ms"}};
  out.detail["pass_wall_samples_s"] = samplesJson(walls);
  out.detail["setup_samples_s"] = samplesJson(setup);
  out.detail["best_unit_s"] = samplesJson(bestOf(units));
  out.detail["trials_per_pass"] = static_cast<double>(trial.size());
  out.detail["digest"] = digestJson(passes.front().digest);
  return out;
}

/// Tracing on: untraced and traced passes alternate for --seconds; the
/// per-layer figures are per traced pass.
Outcome tracedRun(const Options& o, perfbench::Workload& wl) {
  Outcome out;
  perfbench::Probe probe;
  std::vector<double> untraced;
  std::vector<double> traced;
  Pass first;
  const auto start = Clock::now();
  double cycle = 0.0;
  do {
    const auto t0 = Clock::now();
    Pass plain = wl.run(nullptr);
    untraced.push_back(plain.wallSec());
    if (traced.empty()) first = plain;
    addPass(out, first, plain);
    Pass pass = wl.run(&probe);
    traced.push_back(pass.wallSec());
    addPass(out, first, pass);
    cycle = since(t0);
  } while (since(start) + cycle <= o.seconds);
  checkReference(o, first, out.problems);

  const double n = static_cast<double>(traced.size());
  double tracedWall = 0.0;
  for (double w : traced) tracedWall += w;
  double untracedWall = 0.0;
  for (double w : untraced) untracedWall += w;
  const perfbench::Tracer& t = probe.tracer;
  const perfbench::LayerCounts& c = probe.counts;
  const auto per = [n](double v) { return v / n; };
  const auto count = [n](std::uint64_t v) { return static_cast<double>(v) / n; };
  const auto self = [&](Layer l) { return per(t.selfSeconds(l)); };

  out.metrics = {
      {"config.parse_s", self(Layer::Config), "s"},
      {"core.env_build_s", self(Layer::Core), "s"},
      {"core.envs", count(c.envs), "count"},
      {"probe.ring_bytes", count(c.ringBytes), "bytes"},
      {"probe.records", count(c.records), "count"},
      {"sim.run_s", self(Layer::SimRun), "s"},
      {"sim.events_dispatched", count(c.eventsDispatched), "count"},
      {"sim.events_scheduled", count(c.eventsScheduled), "count"},
      {"sim.events_adjusted", count(c.eventsAdjusted), "count"},
      {"sim.events_cancelled", count(c.eventsCancelled), "count"},
      {"sim.peak_pending", static_cast<double>(c.peakPending), "count"},
      {"sim.dispatch_s", per(c.dispatchSec), "s"},
      {"net.rerates", count(c.rerates), "count"},
      {"net.rerates_per_event",
       c.eventsDispatched > 0
           ? static_cast<double>(c.rerates) / static_cast<double>(c.eventsDispatched)
           : 0.0,
       "count/event"},
      {"net.solves", count(c.solves), "count"},
      {"net.solve_s", per(c.solveSec), "s"},
      {"fs.submits", count(c.fsSubmits), "count"},
      {"fs.submit_s", self(Layer::FsSubmit), "s"},
      {"transport.ops_posted", count(c.transportOps), "count"},
      {"transport.doorbells", count(c.doorbells), "count"},
      {"transport.sq_waits", count(c.sqWaits), "count"},
      {"transport.conn_setups", count(c.connSetups), "count"},
      {"workload.next_calls", count(c.nextCalls), "count"},
      {"workload.next_s", self(Layer::WorkloadNext), "s"},
      {"workload.completion_s", self(Layer::WorkloadCompletion), "s"},
      {"chaos.retries", count(c.chaosRetries), "count"},
      {"chaos.late_completions", count(c.lateCompletions), "count"},
      {"chaos.failed_ops", count(c.failedOps), "count"},
      {"sweep.trials", count(c.trials), "count"},
      {"sweep.trial_s", self(Layer::Sweep), "s"},
      {"sink.render_s", self(Layer::Sink), "s"},
      {"sink.bytes", count(c.sinkBytes), "bytes"},
      {"other_s", per(tracedWall - t.totalSelfSeconds()), "s"},
      {"trace.wall_s", per(tracedWall), "s"},
      {"trace.overhead_ratio", tracedWall / untracedWall * static_cast<double>(untraced.size()) / n,
       "ratio"},
  };
  JsonObject spans;
  for (std::size_t i = 0; i < perfbench::kLayers; ++i) {
    spans[perfbench::selfMetricName(static_cast<Layer>(i))] =
        count(t.spans(static_cast<Layer>(i)));
  }
  out.detail["spans_per_pass"] = JsonValue(std::move(spans));
  out.detail["traced_wall_samples_s"] = samplesJson(traced);
  out.detail["untraced_wall_samples_s"] = samplesJson(untraced);
  out.detail["digest"] = digestJson(first.digest);
  out.detail["inclusive_not_summed"] =
      JsonValue(hcsim::JsonArray{"sim.dispatch_s", "net.solve_s"});
  return out;
}

JsonValue metricsJson(const std::vector<Metric>& metrics) {
  JsonObject o;
  for (const Metric& m : metrics) {
    JsonObject v;
    v["value"] = m.value;
    v["unit"] = m.unit;
    o[m.name] = JsonValue(std::move(v));
  }
  return JsonValue(std::move(o));
}

void writeResults(const Options& o, const JsonValue& prov, const Outcome& out) {
  if (o.resultsDir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(o.resultsDir, ec);
  const std::string path = o.resultsDir + "/" + o.workload + "-seed" + std::to_string(o.seed) +
                           "-trace" + (o.trace ? "1" : "0") + ".json";
  JsonObject doc = out.detail;
  doc["provenance"] = prov;
  doc["metrics"] = metricsJson(out.metrics);
  std::ofstream f(path, std::ios::trunc);
  f << hcsim::writeJson(JsonValue(std::move(doc)), 2) << "\n";
  if (!f) std::cerr << "perfbench: cannot write " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string error;
  if (!parseArgs(argc, argv, o, error)) {
    std::cerr << "perfbench: " << error << "\n";
    return 2;
  }
  try {
    std::unique_ptr<perfbench::Workload> wl =
        perfbench::makeWorkload(o.workload, o.seed, o.size, o.dataDir);
    if (!wl) {
      std::cerr << "perfbench: unknown workload '" << o.workload << "'\n";
      return 2;
    }
    const JsonValue prov = provenance(o, *wl);
    std::cout << "# provenance " << hcsim::writeJson(prov) << std::endl;

    const Outcome out = o.trace ? tracedRun(o, *wl) : timedRun(o, *wl);
    writeResults(o, prov, out);
    std::cout << "# digest " << hcsim::writeJson(out.detail.at("digest")) << "\n";
    if (!out.problems.empty()) {
      for (const std::string& p : out.problems) {
        std::cerr << "perfbench: check failed: " << p << "\n";
      }
      return 1;
    }
    JsonObject result;
    result["correct"] = true;
    result["attempted"] = static_cast<double>(out.attempted);
    result["failed"] = static_cast<double>(out.failed);
    result["metrics"] = metricsJson(out.metrics);
    std::cout << hcsim::writeJson(JsonValue(std::move(result))) << std::endl;
    return 0;
  } catch (const std::exception& ex) {
    std::cerr << "perfbench: " << ex.what() << "\n";
    return 1;
  }
}
