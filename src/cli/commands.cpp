#include "cli/commands.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <stdexcept>

#include "chaos/chaos_runner.hpp"
#include "config/fields.hpp"
#include "config/serialize.hpp"
#include "core/calibration.hpp"
#include "core/experiment.hpp"
#include "core/planner.hpp"
#include "mdtest/mdtest.hpp"
#include "oracle/golden.hpp"
#include "oracle/relation.hpp"
#include "probe/flight_recorder.hpp"
#include "probe/monitor.hpp"
#include "scale/flow_class.hpp"
#include "sweep/result_sink.hpp"
#include "sweep/sweep_runner.hpp"
#include "sweep/trial_cache.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/telemetry.hpp"
#include "util/table.hpp"
#include "workload/openloop_source.hpp"
#include "workload/workload_spec.hpp"

namespace hcsim::cli {

namespace {

bool parsePattern(const std::string& s, AccessPattern& out) {
  return fromJson(JsonValue(s), out);
}

bool parseDlioWorkload(const std::string& s, DlioWorkload& out) {
  if (s == "resnet50") out = DlioWorkload::resnet50();
  else if (s == "cosmoflow") out = DlioWorkload::cosmoflow();
  else if (s == "unet3d") out = DlioWorkload::unet3d();
  else return false;
  return true;
}

/// Call once a command has read every option it takes, before it runs:
/// an option it did not read, or a number that did not parse, is one
/// line and exit 2.
bool optionsOk(const ArgParser& args, std::ostream& err) {
  const std::string problem = args.problem();
  if (problem.empty()) return true;
  err << "error: " << problem << "\n";
  return false;
}

bool parseTarget(const ArgParser& args, std::ostream& err, Site& site, StorageKind& kind) {
  if (!parseSite(args.getOr("--site", ""), site)) {
    err << "error: --site must be one of " << siteNames() << "\n";
    return false;
  }
  if (!parseStorage(args.getOr("--storage", ""), kind)) {
    err << "error: --storage must be one of " << storageNames() << "\n";
    return false;
  }
  return true;
}

/// Shared --cache plumbing: when the flag names a file, load it into a
/// TrialCache before the run and persist the merged contents after.
/// Cached metrics are bit-exact (the JSON writer round-trips doubles),
/// so results never depend on whether a cache was used.
class CacheSession {
 public:
  /// False (with a message on err) when the named file is malformed.
  bool open(const ArgParser& args, std::ostream& err) {
    const auto path = args.get("--cache");
    if (!path) return true;
    path_ = *path;
    cache_ = std::make_unique<sweep::TrialCache>();
    if (!cache_->loadFile(path_)) {
      err << "error: trial cache " << path_ << " is malformed (delete it to rebuild)\n";
      return false;
    }
    return true;
  }

  sweep::TrialCache* get() { return cache_.get(); }

  /// Persist; false (with a message) when the file cannot be written.
  bool close(std::ostream& err) {
    if (!cache_) return true;
    if (!cache_->saveFile(path_)) {
      err << "error: cannot write trial cache " << path_ << "\n";
      return false;
    }
    return true;
  }

 private:
  std::string path_;
  std::unique_ptr<sweep::TrialCache> cache_;
};

/// --dump-on-exit plumbing: write the bench's flight-recorder ring as
/// <prefix>.jsonl (one record per line) and <prefix>.trace.json
/// (chrome-trace instants, loadable in a trace viewer).
bool dumpRecorder(const probe::FlightRecorder& rec, const std::string& prefix,
                  std::ostream& out, std::ostream& err) {
  const std::string jsonlPath = prefix + ".jsonl";
  const std::string tracePath = prefix + ".trace.json";
  std::ofstream j(jsonlPath, std::ios::binary | std::ios::trunc);
  if (!j) {
    err << "error: cannot write " << jsonlPath << "\n";
    return false;
  }
  rec.dumpJsonl(j);
  std::ofstream t(tracePath, std::ios::binary | std::ios::trunc);
  if (!t) {
    err << "error: cannot write " << tracePath << "\n";
    return false;
  }
  rec.dumpChromeTrace(t);
  out << "dumped " << rec.size() << " flight-recorder record(s) to " << jsonlPath << " and "
      << tracePath << "\n";
  return true;
}

/// The output options `hcsim chaos` and `hcsim workload` share, read
/// before the run.
struct RunOutputs {
  bool telemetry = false;
  std::optional<std::string> jsonl;       ///< --out
  std::optional<std::string> csv;         ///< --csv
  std::optional<std::string> dumpPrefix;  ///< --dump-on-exit

  explicit RunOutputs(const ArgParser& args)
      : telemetry(args.has("--telemetry")),
        jsonl(args.get("--out")),
        csv(args.get("--csv")),
        dumpPrefix(args.get("--dump-on-exit")) {}
};

/// What a finished chaos or workload run hands the shared output tail.
struct RunReport {
  std::size_t monitors = 0;
  std::vector<probe::Breach> breaches;
  std::string jsonl;  ///< --out
  std::string csv;    ///< --csv
  std::function<void(telemetry::MetricsRegistry&)> exportTo;  ///< the run's own gauges
};

/// The tail `hcsim chaos` and `hcsim workload` share: the breach table,
/// the --telemetry registry and attribution table, --out, --csv,
/// --dump-on-exit, and exit 3 when a monitor breached.
int finishRun(const RunOutputs& opts, const Environment& env, const RunReport& run,
              std::ostream& out, std::ostream& err) {
  if (run.monitors > 0) {
    out << "monitors: " << run.monitors << " evaluated, " << run.breaches.size()
        << " breach(es)\n";
    out << probe::renderBreachTable(run.breaches);
  }
  if (opts.telemetry) {
    telemetry::MetricsRegistry reg;
    env.bench->collectMetrics(reg, env.fs.get());
    if (env.transport) env.transport->exportMetrics(reg);
    run.exportTo(reg);
    out << reg.renderTable();
    const telemetry::AttributionReport rep = env.bench->telemetry().attribution();
    if (rep.spans > 0) out << rep.renderTable();
  }
  for (const auto& [path, text] : {std::pair{opts.jsonl, &run.jsonl}, std::pair{opts.csv, &run.csv}}) {
    if (!path) continue;
    std::ofstream f(*path, std::ios::binary | std::ios::trunc);
    if (!f) {
      err << "error: cannot write " << *path << "\n";
      return 1;
    }
    f << *text;
    out << "wrote " << *path << "\n";
  }
  if (opts.dumpPrefix && !dumpRecorder(env.bench->recorder(), *opts.dumpPrefix, out, err)) {
    return 1;
  }
  return run.breaches.empty() ? 0 : 3;
}

}  // namespace

int cmdHelp(std::ostream& out) {
  out << "hcsim — highly configurable storage simulator (CLUSTER'24 reproduction)\n\n"
         "usage: hcsim <command> [options]\n\n"
         "commands:\n"
         "  ior         --site S --storage K --access seq-write|seq-read|rand-read\n"
         "              [--nodes N] [--ppn P] [--segments S] [--fsync] [--per-op]\n"
         "              [--shared-file] [--reps R] [--stonewall SEC] [--config F.json]\n"
         "  dlio        --site S --storage K --workload resnet50|cosmoflow|unet3d\n"
         "              [--nodes N] [--ppn P] [--config F.json]\n"
         "  mdtest      --site S --storage K [--procs P] [--items N] [--unique-dir]\n"
         "  plan        --machine M --pattern A --min-gbs G [--nodes N] [--ppn P]\n"
         "  takeaways   [--dir D]   (the paper's section-VII checks over the\n"
         "               fig2a and fig2b sweeps in D; D defaults to the source\n"
         "               tree's examples/specs/paper, as for oracle)\n"
         "  sweep       --spec F.json [--jobs N] [--out results.jsonl] [--csv results.csv]\n"
         "              [--baseline prior.jsonl] [--cache trials.jsonl] [--telemetry]\n"
         "              [--self-profile]\n"
         "              (parallel what-if config sweep; --cache memoizes trials\n"
         "               across runs and reports the hit rate; --telemetry adds\n"
         "               engine/attribution columns without changing results;\n"
         "               --self-profile adds wall-clock self.* columns per trial\n"
         "               and bypasses the cache)\n"
         "  chaos       <scenario.json> [--out timeline.jsonl] [--csv timeline.csv]\n"
         "              [--telemetry] [--dump-on-exit PREFIX]\n"
         "              (scheduled fault injection: validates the schedule, runs\n"
         "               the workload under faults/retries, prints the per-interval\n"
         "               bandwidth + availability timeline; the spec's \"monitors\"\n"
         "               are SLO watchdogs — breaches print a table and exit 3)\n"
         "  workload    <spec.json> [--out results.jsonl] [--csv timeline.csv]\n"
         "              [--telemetry] [--dump-on-exit PREFIX]\n"
         "              (pluggable workload generators: the spec's\n"
         "               \"workload\" section picks ior, dlio, replay, io500,\n"
         "               grammar or openloop; optional \"chaos\"/\"retry\" sections\n"
         "               compose faults and the retry layer with any generator;\n"
         "               \"monitors\"/\"sampleIntervalSec\" arm SLO watchdogs)\n"
         "  probe       <spec.json> [chaos/workload options]   (SLO watchdog run:\n"
         "               dispatches the spec to chaos or workload by shape,\n"
         "               evaluates its \"monitors\", exits 3 on breach;\n"
         "               --dump-on-exit PREFIX writes the always-on flight\n"
         "               recorder as PREFIX.jsonl + PREFIX.trace.json)\n"
         "  scale       [--clients N] [--classes C] [--site S] [--storage K]\n"
         "              [--rate HZ] [--horizon SEC] [--demand-sigma S] [--telemetry]\n"
         "              [--out results.jsonl]   (flow-class aggregation demo: a\n"
         "               million-client open-loop population simulated as C\n"
         "               classes of N/C members each; prints aggregate goodput,\n"
         "               demuxed per-client latency percentiles and the engine's\n"
         "               peak event footprint)\n"
         "  oracle      list | relations | record | check   (regression harness;\n"
         "               a figure is D/NAME.json, a sweep spec, pinned by D/NAME.jsonl;\n"
         "               D defaults to the source tree's examples/specs/paper)\n"
         "              list      [--dir D]\n"
         "              relations [--cases N] [--seed S] [--jobs J] [--relation NAME]\n"
         "                        [--no-shrink] [--cache F]  (metamorphic relations)\n"
         "              record    [--dir D] [--jobs J] [--figure F]\n"
         "                        [--cache F]\n"
         "              check     [--dir D] [--jobs J] [--figure F]\n"
         "                        [--tolerance PCT] [--full] [--cache F] [--telemetry]\n"
         "                        (golden-figure drift, plus the takeaways' paper\n"
         "                         bands when fig2a and fig2b are checked; output\n"
         "                         is byte-identical with or without --cache or\n"
         "                         --telemetry)\n"
         "  trace       --site S --storage K [--workload ior|resnet50|cosmoflow|unet3d]\n"
         "              [--access A] [--nodes N] [--ppn P] [--segments S]\n"
         "              [--internal] [--out trace.json]\n"
         "              (chrome-trace export; --internal adds simulator op spans\n"
         "               and prints the bottleneck-attribution table)\n"
         "  stats       --site S --storage K [--workload W] [--access A] [--nodes N]\n"
         "              [--ppn P] [--segments S] [--json] [--self]\n"
         "              (metrics-registry summary; --json emits the registry as\n"
         "               lossless JSON, --self adds wall-clock self.* profiling)\n"
         "  dump-config --storage vast|gpfs|lustre|nvme|daos --site S   (preset as JSON)\n"
         "  help        this text\n";
  return 0;
}

int cmdIor(const ArgParser& args, std::ostream& out, std::ostream& err) {
  Site site;
  StorageKind kind;
  if (!parseTarget(args, err, site, kind)) return 2;

  IorConfig cfg;
  if (const auto path = args.get("--config")) {
    std::string why;
    if (!loadConfig(*path, cfg, &why)) {
      err << "error: cannot load IOR config: " << why << "\n";
      return 2;
    }
  } else {
    AccessPattern access;
    if (!parsePattern(args.getOr("--access", "seq-write"), access)) {
      err << "error: bad --access\n";
      return 2;
    }
    cfg = IorConfig::scalability(access, args.countOr("--nodes", 4), args.countOr("--ppn", 16));
    cfg.segments = args.countOr("--segments", 512);
    if (args.has("--fsync")) cfg.fsyncPerWrite = true;
    if (args.has("--per-op")) cfg.mode = IorConfig::Mode::PerOp;
    if (args.has("--shared-file")) cfg.filePerProcess = false;
    cfg.repetitions = args.countOr("--reps", 3);
    cfg.noiseStdDevFrac = args.numberOr("--noise", 0.03, kNonNegative);
    cfg.stonewallSeconds = args.numberOr("--stonewall", 0.0, kNonNegative);
  }
  if (!optionsOk(args, err)) return 2;

  Environment env = makeEnvironment(site, kind, cfg.nodes);
  IorRunner runner(*env.bench, *env.fs);
  const IorResult r = runner.run(cfg);
  out << cfg.describe() << " on " << env.fs->name() << "\n";
  out << "  bandwidth: " << formatBandwidth(r.bandwidth.mean) << " (min "
      << formatBandwidth(r.bandwidth.min) << ", max " << formatBandwidth(r.bandwidth.max)
      << ")\n";
  out << "  moved " << formatBytes(r.totalBytes) << " in " << formatSeconds(r.meanElapsed)
      << " (mean of " << r.samples.size() << " reps)\n";
  return 0;
}

int cmdDlio(const ArgParser& args, std::ostream& out, std::ostream& err) {
  Site site;
  StorageKind kind;
  if (!parseTarget(args, err, site, kind)) return 2;

  DlioConfig cfg;
  if (const auto path = args.get("--config")) {
    std::string why;
    if (!loadConfig(*path, cfg, &why)) {
      err << "error: cannot load DLIO config: " << why << "\n";
      return 2;
    }
  } else {
    if (!parseDlioWorkload(args.getOr("--workload", "resnet50"), cfg.workload)) {
      err << "error: --workload must be resnet50|cosmoflow|unet3d\n";
      return 2;
    }
    cfg.nodes = args.countOr("--nodes", 4);
    cfg.procsPerNode = args.countOr("--ppn", 4);
  }
  if (!optionsOk(args, err)) return 2;

  const DlioResult r = runDlio(site, kind, cfg);
  out << cfg.workload.name << " on " << toString(kind) << "@" << toString(site) << " ("
      << cfg.nodes << " nodes x " << cfg.procsPerNode << " ranks)\n";
  out << "  runtime             : " << formatSeconds(r.runtime) << "\n";
  out << "  non-overlapping I/O : " << formatSeconds(r.breakdown.nonOverlappingIo) << "\n";
  out << "  overlapping I/O     : " << formatSeconds(r.breakdown.overlappingIo) << "\n";
  out << "  app throughput      : " << formatBandwidth(r.throughput.application) << "\n";
  out << "  system throughput   : " << formatBandwidth(r.throughput.system) << "\n";
  if (r.bytesCheckpointed > 0) {
    out << "  checkpoints written : " << formatBytes(r.bytesCheckpointed) << "\n";
  }
  return 0;
}

int cmdMdtest(const ArgParser& args, std::ostream& out, std::ostream& err) {
  Site site;
  StorageKind kind;
  if (!parseTarget(args, err, site, kind)) return 2;

  MdtestConfig cfg;
  cfg.nodes = args.countOr("--nodes", 1);
  cfg.procsPerNode = args.countOr("--procs", 16);
  cfg.itemsPerProc = args.countOr("--items", 128);
  cfg.uniqueDirPerTask = args.has("--unique-dir");
  cfg.repetitions = args.countOr("--reps", 3);
  cfg.noiseStdDevFrac = args.numberOr("--noise", 0.03, kNonNegative);
  if (!optionsOk(args, err)) return 2;

  Environment env = makeEnvironment(site, kind, cfg.nodes);
  MdtestRunner runner(*env.bench, *env.fs);
  const MdtestResult r = runner.run(cfg);
  out << "mdtest on " << env.fs->name() << " ("
      << (cfg.uniqueDirPerTask ? "unique dirs" : "shared dir") << ", " << cfg.totalItems()
      << " items)\n";
  out << "  create: " << static_cast<long long>(r.createOpsPerSec.mean) << " ops/s\n";
  out << "  stat  : " << static_cast<long long>(r.statOpsPerSec.mean) << " ops/s\n";
  out << "  remove: " << static_cast<long long>(r.removeOpsPerSec.mean) << " ops/s\n";
  return 0;
}

int cmdPlan(const ArgParser& args, std::ostream& out, std::ostream& err) {
  Site site;
  if (!parseSite(args.getOr("--machine", "wombat"), site)) {
    err << "error: --machine must be " << siteNames() << "\n";
    return 2;
  }
  const Machine machine = machineFor(site);
  PlanGoal goal;
  if (!parsePattern(args.getOr("--pattern", "seq-read"), goal.pattern)) {
    err << "error: bad --pattern\n";
    return 2;
  }
  goal.minGBsPerNode = args.numberOr("--min-gbs", 1.0, kPositive);
  goal.nodes = args.countOr("--nodes", 8);
  goal.procsPerNode = args.countOr("--ppn", 16);
  if (!optionsOk(args, err)) return 2;

  const auto candidates = planVastDeployment(machine, goal);
  ResultTable t("deployment candidates (sorted: goal-meeting first, cheapest first)");
  t.setHeader({"config", "GB/s per node", "meets goal", "cost units"});
  for (const auto& c : candidates) {
    t.addRow({c.config.name, c.measuredGBsPerNode, std::string(c.meetsGoal ? "yes" : "no"),
              c.costUnits()});
  }
  out << t.toString();
  return candidates.empty() || !candidates.front().meetsGoal ? 1 : 0;
}

int cmdTakeaways(const ArgParser& args, std::ostream& out, std::ostream& err) {
  const std::string dir = args.getOr("--dir", oracle::kPaperDir);
  if (!optionsOk(args, err)) return 2;
  // The takeaways read fig2a and fig2b cells, fresh from the model.
  oracle::Cells cells[2];
  std::string error;
  for (int i = 0; i < 2; ++i) {
    const std::string path = dir + (i == 0 ? "/fig2a.json" : "/fig2b.json");
    sweep::SweepSpec spec;
    if (!sweep::loadSpec(path, spec, &error)) {
      err << "error: " << path << ": " << error << "\n";
      return 2;
    }
    cells[i] = oracle::cellsOf(sweep::runSweep(spec, 0));
  }
  const auto checks = oracle::takeawayChecks(cells[0], cells[1], error);
  if (checks.empty()) {
    err << "error: " << error << "\n";
    return 2;
  }
  out << calibration::toMarkdown(checks);
  const bool pass = std::all_of(checks.begin(), checks.end(),
                                [](const calibration::Check& c) { return c.pass(); });
  return pass ? 0 : 1;
}

int cmdSweep(const ArgParser& args, std::ostream& out, std::ostream& err) {
  const auto specPath = args.get("--spec");
  if (!specPath) {
    err << "error: sweep requires --spec <file.json>\n";
    return 2;
  }
  sweep::SweepSpec spec;
  std::string problem;
  if (!sweep::loadSpec(*specPath, spec, &problem)) {
    err << "error: " << *specPath << ": " << problem << "\n";
    return 2;
  }
  std::size_t jobs = args.sizeOr("--jobs", sweep::defaultJobs());
  if (jobs == 0) jobs = sweep::defaultJobs();
  sweep::TrialOptions opts;
  opts.telemetry = args.has("--telemetry");
  opts.selfProfile = args.has("--self-profile");
  const auto outPath = args.get("--out");
  const auto csvPath = args.get("--csv");
  const auto basePath = args.get("--baseline");
  CacheSession cache;
  if (!cache.open(args, err) || !optionsOk(args, err)) return 2;
  const sweep::SweepOutcome result = sweep::runSweep(spec, jobs, cache.get(), opts);

  ResultTable t("sweep '" + spec.name + "': " + std::to_string(result.results.size()) +
                " trials on " + std::to_string(jobs) + " jobs");
  t.setHeader({"trial", "params", "GB/s", "min", "max", "elapsed"});
  for (const auto& r : result.results) {
    if (r.metrics.ok) {
      t.addRow({std::to_string(r.trial.index), sweep::paramsKey(r.trial), r.metrics.meanGBs,
                r.metrics.minGBs, r.metrics.maxGBs, formatSeconds(r.metrics.elapsedSec)});
    } else {
      t.addRow({std::to_string(r.trial.index), sweep::paramsKey(r.trial),
                std::string("FAILED"), std::string(), std::string(), r.metrics.error});
    }
  }
  out << t.toString();
  if (result.bandwidthGBs.count() > 0) {
    out << "aggregate over " << result.bandwidthGBs.count() << " ok trials: mean "
        << result.bandwidthGBs.mean() << " GB/s (min " << result.bandwidthGBs.min() << ", max "
        << result.bandwidthGBs.max() << ", stddev " << result.bandwidthGBs.stddev() << ")\n";
  }
  if (result.failures > 0) {
    out << result.failures << " trial(s) failed\n";
  }
  if (cache.get() != nullptr) {
    const std::size_t looked = result.cacheHits + result.cacheMisses;
    out << "cache: " << result.cacheHits << " hit(s), " << result.cacheMisses
        << " miss(es) — hit rate "
        << (looked > 0 ? 100.0 * static_cast<double>(result.cacheHits) /
                             static_cast<double>(looked)
                       : 0.0)
        << "%, " << cache.get()->size() << " entries\n";
  }

  if (outPath) {
    if (!sweep::writeJsonl(result, *outPath)) {
      err << "error: cannot write " << *outPath << "\n";
      return 1;
    }
    out << "wrote " << *outPath << "\n";
  }
  if (csvPath) {
    if (!sweep::writeCsv(result, *csvPath)) {
      err << "error: cannot write " << *csvPath << "\n";
      return 1;
    }
    out << "wrote " << *csvPath << "\n";
  }
  if (basePath) {
    std::map<std::string, double> baseline;
    if (!sweep::loadBaseline(*basePath, baseline)) {
      err << "error: cannot load baseline from " << *basePath << "\n";
      return 1;
    }
    ResultTable d("delta vs " + *basePath);
    d.setHeader({"trial", "params", "baseline GB/s", "now GB/s", "delta %"});
    for (const auto& delta : sweep::compareToBaseline(result, baseline)) {
      if (delta.matched) {
        d.addRow({std::to_string(delta.index), delta.key, delta.baselineGBs, delta.currentGBs,
                  delta.deltaPct});
      } else {
        d.addRow({std::to_string(delta.index), delta.key, std::string("(new)"),
                  delta.currentGBs, std::string()});
      }
    }
    out << d.toString();
  }
  if (!cache.close(err)) return 2;
  const bool allFailed = !result.results.empty() && result.failures == result.results.size();
  return allFailed ? 1 : 0;
}

/// makeEnvironment for a parsed spec. A storageConfig or transport
/// section the config reader (or the model's validate()) rejects is a
/// spec problem like any other: one line, exit 2. A site/storage pair
/// without a deployment still throws, as for `hcsim ior` (exit 1).
std::optional<Environment> specEnvironment(const SpecHeader& spec, std::size_t nodes,
                                           const std::string& what, std::ostream& err) {
  requireSite(spec.storage, spec.site);
  try {
    return makeEnvironment(spec, nodes);
  } catch (const std::invalid_argument& ex) {
    err << "error: invalid " << what << ":\n  - " << ex.what() << "\n";
    return std::nullopt;
  }
}

int cmdChaos(const ArgParser& args, std::ostream& out, std::ostream& err) {
  std::string specPath = args.positionalOr(1, "");
  if (const auto opt = args.get("--spec")) specPath = *opt;
  if (specPath.empty()) {
    err << "error: chaos requires a scenario file (hcsim chaos <spec.json>)\n";
    return 2;
  }
  const RunOutputs outputs(args);
  if (!optionsOk(args, err)) return 2;
  chaos::ChaosSpec spec;
  std::string parseErr;
  if (!chaos::loadChaosSpec(specPath, spec, parseErr)) {
    err << "error: " << parseErr << "\n";
    return 2;
  }
  std::optional<Environment> made =
      specEnvironment(spec, spec.workload.nodes, "scenario " + specPath, err);
  if (!made) return 2;
  Environment& env = *made;
  // Validate before running so every schedule problem surfaces at once
  // with an actionable message and a distinct exit code.
  const std::vector<std::string> problems =
      chaos::validateSchedule(spec, *env.fs, env.bench->topo());
  if (!problems.empty()) {
    err << "error: invalid scenario " << specPath << ":\n";
    for (const std::string& p : problems) err << "  - " << p << "\n";
    return 2;
  }
  if (outputs.telemetry) env.bench->telemetry().setEnabled(true);
  const chaos::ChaosOutcome result = chaos::runChaosOn(env, spec);

  ResultTable t = chaos::renderTimeline(result);
  out << t.toString();
  out << "healthy " << result.healthyGBs << " GB/s, mean " << result.meanGBs << ", min "
      << result.minGBs << ", final " << result.finalGBs << "\n";
  out << "degraded " << result.degradedSeconds << " s";
  if (result.timeToRecover >= 0.0) out << ", recovered " << result.timeToRecover << " s after restore";
  out << "; retries " << result.retries << ", failed ops " << result.failedOps
      << ", late completions " << result.lateCompletions << "\n";
  if (result.rebuildBytes > 0) {
    out << "rebuild: " << formatBytes(result.rebuildBytes) << " drained at t="
        << result.rebuildCompletedAt << " s\n";
  }
  return finishRun(outputs, env,
                   {result.monitors, result.breaches, chaos::toJsonl(result), t.toCsv(),
                    [&result](telemetry::MetricsRegistry& reg) { chaos::exportTo(result, reg); }},
                   out, err);
}

int cmdWorkload(const ArgParser& args, std::ostream& out, std::ostream& err) {
  std::string specPath = args.positionalOr(1, "");
  if (const auto opt = args.get("--spec")) specPath = *opt;
  if (specPath.empty()) {
    err << "error: workload requires a spec file (hcsim workload <spec.json>)\n";
    return 2;
  }
  const RunOutputs outputs(args);
  if (!optionsOk(args, err)) return 2;
  std::ifstream f(specPath);
  if (!f) {
    err << "error: cannot read " << specPath << "\n";
    return 2;
  }
  std::string text((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  JsonValue doc;
  if (!parseJson(text, doc)) {
    err << "error: " << specPath << " is not valid JSON\n";
    return 2;
  }
  // Collect every envelope + generator problem before giving up, so one
  // run of the CLI reports everything that needs fixing.
  workload::WorkloadRunSpec spec;
  std::vector<std::string> problems;
  workload::parseWorkloadSpec(doc, spec, problems);
  workload::SourceBundle bundle;
  if (problems.empty()) bundle = workload::makeSource(spec, problems);
  if (!problems.empty()) {
    err << "error: invalid workload spec " << specPath << ":\n";
    for (const std::string& p : problems) err << "  - " << p << "\n";
    return 2;
  }
  std::optional<Environment> made =
      specEnvironment(spec, bundle.nodes, "workload spec " + specPath, err);
  if (!made) return 2;
  Environment& env = *made;
  if (outputs.telemetry) env.bench->telemetry().setEnabled(true);
  chaos::ChaosLandmarks landmarks;
  try {
    landmarks = workload::injectWorkloadChaos(spec, env);
  } catch (const std::exception& ex) {
    err << "error: invalid workload spec " << specPath << ":\n  - " << ex.what() << "\n";
    return 2;
  }
  TraceLog trace;
  const workload::WorkloadOutcome r =
      workload::runWorkload(env, spec, *bundle.source, &trace, &landmarks);

  out << "workload '" << spec.name << "': generator " << r.generator << " on "
      << toString(spec.site) << "/" << toString(spec.storage) << ", " << bundle.nodes
      << " node(s)\n";
  out << "  ops issued " << r.opsIssued << ", completed " << r.opsCompleted;
  if (r.opsFailed > 0) out << ", failed " << r.opsFailed;
  out << "; meta " << r.metaOps << ", compute " << r.computeOps << ", barriers " << r.barriers
      << "\n";
  out << "  moved " << formatBytes(r.bytesMoved) << " in " << formatSeconds(r.elapsed) << " -> "
      << r.goodputGBs() << " GB/s\n";
  if (!r.opLatencies.empty()) {
    const Summary lat = summarize(r.opLatencies);
    out << "  op latency: p50 " << formatSeconds(lat.p50) << ", p95 " << formatSeconds(lat.p95)
        << ", p99 " << formatSeconds(lat.p99) << " over " << lat.count << " ops\n";
  }
  if (spec.retryEnabled) {
    out << "  retries " << r.retries << ", late completions " << r.lateCompletions << "\n";
  }
  if (!r.timeline.empty()) {
    ResultTable t("goodput timeline (" + std::to_string(r.timeline.size()) + " slices)");
    t.setHeader({"t0", "t1", "GB/s"});
    for (const workload::WorkloadSample& s : r.timeline) {
      t.addRow({formatSeconds(s.start), formatSeconds(s.end), s.gbs});
    }
    out << t.toString();
  }
  return finishRun(outputs, env,
                   {r.monitors, r.breaches, workload::toJsonl(r), workload::toCsv(r),
                    [&r](telemetry::MetricsRegistry& reg) { workload::exportTo(r, reg); }},
                   out, err);
}

int cmdProbe(const ArgParser& args, std::ostream& out, std::ostream& err) {
  std::string specPath = args.positionalOr(1, "");
  if (const auto opt = args.get("--spec")) specPath = *opt;
  if (specPath.empty()) {
    err << "error: probe requires a spec file (hcsim probe <spec.json>)\n";
    return 2;
  }
  std::ifstream f(specPath);
  if (!f) {
    err << "error: cannot read " << specPath << "\n";
    return 2;
  }
  std::string text((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  JsonValue doc;
  if (!parseJson(text, doc) || !doc.isObject()) {
    err << "error: " << specPath << " is not a JSON object\n";
    return 2;
  }
  // A workload spec's "workload" section names a generator; a chaos
  // scenario's is plain drill knobs (nodes/procsPerNode/...). That key
  // decides which runner gets the spec — both evaluate its "monitors".
  const JsonValue* w = doc.find("workload");
  const bool isWorkload = w != nullptr && w->isObject() && w->find("generator") != nullptr;
  return isWorkload ? cmdWorkload(args, out, err) : cmdChaos(args, out, err);
}

int cmdScale(const ArgParser& args, std::ostream& out, std::ostream& err) {
  // Flow-class aggregation demo: a service-scale open-loop population
  // (a million clients by default) simulated as `--classes` flow
  // classes, each standing for clients/classes members. Memory and event
  // count stay proportional to the class count, not the client count.
  Site site = Site::Lassen;
  StorageKind kind = StorageKind::Vast;
  if (const auto s = args.get("--site"); s && !parseSite(*s, site)) {
    err << "error: --site must be one of " << siteNames() << "\n";
    return 2;
  }
  if (const auto s = args.get("--storage"); s && !parseStorage(*s, kind)) {
    err << "error: --storage must be one of " << storageNames() << "\n";
    return 2;
  }
  // The flags are keys of an open-loop section, read through
  // OpenLoopConfig's field list: a value outside its key's range fails
  // naming the key ("requestBytes: must be > 0 (got 0)"). --classes
  // sets two keys, so it is read as a count and names itself.
  workload::OpenLoopConfig cfg;
  const double classes = static_cast<double>(args.countOr("--classes", 256));
  JsonObject section;
  section["clients"] = classes;
  // ceil: at least --clients in all
  section["clientsPerRank"] = std::ceil(args.numberOr("--clients", 1e6) / classes);
  section["clientsPerNode"] = args.numberOr("--classes-per-node", 8);
  section["ratePerClientHz"] = args.numberOr("--rate", 5.0);
  section["horizonSec"] = args.numberOr("--horizon", 5.0);
  section["demandSigma"] = args.numberOr("--demand-sigma", 0.0);
  section["requestBytes"] = args.numberOr("--request", 128.0 * 1024.0);
  section["readFraction"] = args.numberOr("--read-fraction", 0.9);
  section["objects"] = args.numberOr("--objects", static_cast<double>(cfg.objects));
  section["seed"] = args.numberOr("--seed", static_cast<double>(cfg.seed));
  const bool telemetryOn = args.has("--telemetry");
  const auto outPath = args.get("--out");
  if (!optionsOk(args, err)) return 2;
  if (std::string e = readFields(JsonValue(std::move(section)), cfg, ""); !e.empty()) {
    err << "error: " << e << "\n";
    return 2;
  }

  Environment env = makeEnvironment(site, kind, cfg.nodes(), nullptr);
  if (telemetryOn) env.bench->telemetry().setEnabled(true);
  workload::OpenLoopSource source(cfg);
  workload::WorkloadRunner runner(*env.bench, *env.fs);
  const workload::WorkloadOutcome r = runner.run(source);

  out << "scale: " << r.clientsTotal() << " clients as " << r.ranks << " flow classes x "
      << r.clientsPerRank << " members on " << toString(site) << "/" << toString(kind) << " ("
      << cfg.nodes() << " nodes)\n";
  out << "  aggregate: " << r.opsCompleted << " client ops, " << formatBytes(r.bytesMoved)
      << " in " << formatSeconds(r.elapsed) << " -> " << r.goodputGBs() << " GB/s ("
      << r.goodputGBs() / static_cast<double>(r.clientsTotal()) * 1e6 << " KB/s per client)\n";
  if (!r.opLatencies.empty()) {
    // Statistical demux: every class-op latency stands for
    // clientsPerRank identical per-client samples.
    std::vector<scale::WeightedSample> ws;
    ws.reserve(r.opLatencies.size());
    for (double v : r.opLatencies) ws.push_back({v, r.clientsPerRank});
    const Summary lat = scale::demultiplex(std::move(ws));
    out << "  per-client latency over " << lat.count << " client ops: p50 "
        << formatSeconds(lat.p50) << ", p95 " << formatSeconds(lat.p95) << ", p99 "
        << formatSeconds(lat.p99) << "\n";
  }
  const Simulator& sim = env.bench->sim();
  out << "  engine: " << sim.eventsDispatched() << " events dispatched, peak pending "
      << sim.peakPendingEvents() << ", slab " << sim.slabSize()
      << " slots (flat in members, proportional to classes)\n";
  if (telemetryOn) {
    telemetry::MetricsRegistry reg;
    env.bench->collectMetrics(reg, env.fs.get());
    if (env.transport) env.transport->exportMetrics(reg);
    workload::exportTo(r, reg);
    out << reg.renderTable();
  }
  if (outPath) {
    std::ofstream of(*outPath, std::ios::binary | std::ios::trunc);
    if (!of) {
      err << "error: cannot write " << *outPath << "\n";
      return 1;
    }
    of << workload::toJsonl(r);
    out << "wrote " << *outPath << "\n";
  }
  return 0;
}

namespace {

int oracleList(const ArgParser& args, std::ostream& out, std::ostream& err) {
  const std::string dir = args.getOr("--dir", oracle::kPaperDir);
  if (!optionsOk(args, err)) return 2;
  std::vector<oracle::GoldenFigure> figures;
  std::string error;
  if (!oracle::loadFigures(dir, figures, error)) {
    err << "error: " << error << "\n";
    return 2;
  }
  const auto& registry = oracle::RelationRegistry::builtin();
  out << "metamorphic relations (" << registry.all().size() << "):\n";
  for (const auto& r : registry.all()) {
    out << "  " << r.name << "  [" << r.storage << ", " << oracle::toString(r.kind) << "]\n"
        << "      " << r.claim << "\n";
  }
  out << "golden figures (" << figures.size() << "):\n";
  for (const auto& f : figures) {
    out << "  " << f.name << "  (" << f.spec.trialCount() << " cells)  " << f.spec.name << "\n";
  }
  return 0;
}

int oracleRelations(const ArgParser& args, std::ostream& out, std::ostream& err) {
  oracle::SuiteOptions options;
  options.casesPerRelation = args.countOr("--cases", 50);
  options.seed = args.sizeOr("--seed", 1);
  options.jobs = args.sizeOr("--jobs", 0);
  options.shrink = !args.has("--no-shrink");
  const auto name = args.get("--relation");
  CacheSession cache;
  if (!cache.open(args, err) || !optionsOk(args, err)) return 2;
  options.cache = cache.get();

  const auto& registry = oracle::RelationRegistry::builtin();
  std::vector<oracle::RelationReport> reports;
  if (name) {
    const oracle::MetamorphicRelation* rel = registry.find(*name);
    if (!rel) {
      err << "error: unknown relation '" << *name << "' (try: hcsim oracle list)\n";
      return 2;
    }
    reports.push_back(oracle::runRelation(*rel, options));
  } else {
    reports = oracle::runSuite(registry, options);
  }
  out << oracle::toMarkdown(reports);
  if (!cache.close(err)) return 2;
  for (const auto& r : reports) {
    if (!r.pass()) return 1;
  }
  return 0;
}

/// What a record/check run covers: the figures of --dir, all of them or
/// --figure F, plus the run options both subcommands share. Every
/// option is read here, before anything runs.
struct FigureRun {
  std::string dir;
  std::vector<oracle::GoldenFigure> figures;
  std::size_t jobs = 0;
  sweep::TrialOptions opts;
  CacheSession cache;

  bool open(const ArgParser& args, std::ostream& err) {
    dir = args.getOr("--dir", oracle::kPaperDir);
    jobs = args.sizeOr("--jobs", 0);
    opts.telemetry = args.has("--telemetry");
    const auto only = args.get("--figure");
    if (!cache.open(args, err) || !optionsOk(args, err)) return false;
    std::string error;
    if (!oracle::loadFigures(dir, figures, error)) {
      err << "error: " << error << "\n";
      return false;
    }
    if (!only) return true;
    std::erase_if(figures, [&](const oracle::GoldenFigure& f) { return f.name != *only; });
    if (figures.empty()) {
      err << "error: unknown figure '" << *only << "' (try: hcsim oracle list)\n";
      return false;
    }
    return true;
  }
};

int oracleRecord(const ArgParser& args, std::ostream& out, std::ostream& err) {
  FigureRun run;
  if (!run.open(args, err)) return 2;
  for (const oracle::GoldenFigure& fig : run.figures) {
    std::string error;
    if (!oracle::recordFigure(fig, run.dir, run.jobs, error, run.cache.get(), run.opts)) {
      err << "error: " << error << "\n";
      return 1;
    }
    out << "recorded " << oracle::goldenPath(run.dir, fig.name) << " ("
        << fig.spec.trialCount() << " cells)\n";
  }
  if (!run.cache.close(err)) return 2;
  return 0;
}

int oracleCheck(const ArgParser& args, std::ostream& out, std::ostream& err) {
  const double tolerance = args.numberOr("--tolerance", 2.0, kNonNegative);
  const bool fullTable = args.has("--full");
  FigureRun run;
  if (!run.open(args, err)) return 2;
  // Cache stats and telemetry deliberately never reach stdout here:
  // check output must stay byte-identical with the cache on or off,
  // with or without --telemetry, at any --jobs.
  bool pass = true;
  std::optional<oracle::Cells> fig2a, fig2b;
  for (const oracle::GoldenFigure& fig : run.figures) {
    oracle::FigureCheck check =
        oracle::checkFigure(fig, run.dir, run.jobs, tolerance, run.cache.get(), run.opts);
    out << oracle::deltaTable(check, tolerance, fullTable);
    pass = pass && check.pass();
    if (fig.name == "fig2a") fig2a = std::move(check.current);
    if (fig.name == "fig2b") fig2b = std::move(check.current);
  }
  // The section-VII takeaways are band checks over fig2a and fig2b's
  // cells. A directory whose sweeps lack a cell they read (an older,
  // reduced geometry) has no takeaways to check.
  std::string missing;
  const std::vector<calibration::Check> takeaways =
      fig2a && fig2b ? oracle::takeawayChecks(*fig2a, *fig2b, missing)
                     : std::vector<calibration::Check>{};
  if (!takeaways.empty()) {
    const auto misses = std::count_if(takeaways.begin(), takeaways.end(),
                                      [](const calibration::Check& c) { return !c.pass(); });
    out << "takeaways: " << takeaways.size() << " rows, " << misses
        << " outside their paper band\n";
    if (misses > 0) out << calibration::toMarkdown(takeaways);
    pass = pass && misses == 0;
  }
  out << (pass ? "oracle golden check: PASS" : "oracle golden check: FAIL") << "\n";
  if (!run.cache.close(err)) return 2;
  return pass ? 0 : 1;
}

}  // namespace

int cmdOracle(const ArgParser& args, std::ostream& out, std::ostream& err) {
  const std::string sub = args.positionalOr(1, "list");
  if (sub == "list") return oracleList(args, out, err);
  if (sub == "relations") return oracleRelations(args, out, err);
  if (sub == "record") return oracleRecord(args, out, err);
  if (sub == "check") return oracleCheck(args, out, err);
  err << "error: oracle subcommand must be list|relations|record|check\n";
  return 2;
}

namespace {

/// Shared workload driver for trace/stats: read the workload's options
/// (the caller has read its own), build the environment, run one IOR or
/// DLIO pass (telemetry pre-enabled when asked), and hand back the
/// app-level event log.
struct WorkloadRun {
  Environment env;
  TraceLog appTrace;
};

bool runTracedWorkload(const ArgParser& args, std::ostream& err, bool telemetryOn,
                       WorkloadRun& run, bool selfProfileOn = false) {
  Site site;
  StorageKind kind;
  if (!parseTarget(args, err, site, kind)) return false;
  const bool ior = args.getOr("--workload", "ior") == "ior";
  const std::size_t nodes = args.countOr("--nodes", 4);
  IorConfig iorCfg;
  DlioConfig dlioCfg;
  if (ior) {
    AccessPattern access;
    if (!parsePattern(args.getOr("--access", "seq-write"), access)) {
      err << "error: bad --access\n";
      return false;
    }
    iorCfg = IorConfig::scalability(access, nodes, args.countOr("--ppn", 16));
    iorCfg.segments = args.countOr("--segments", 512);
    iorCfg.repetitions = 1;
    iorCfg.noiseStdDevFrac = 0.0;
  } else if (!parseDlioWorkload(args.getOr("--workload", ""), dlioCfg.workload)) {
    err << "error: --workload must be ior|resnet50|cosmoflow|unet3d\n";
    return false;
  } else {
    dlioCfg.nodes = nodes;
    dlioCfg.procsPerNode = args.countOr("--ppn", 4);
  }
  if (!optionsOk(args, err)) return false;
  run.env = makeEnvironment(site, kind, nodes);
  if (telemetryOn) run.env.bench->telemetry().setEnabled(true);
  if (selfProfileOn) run.env.bench->profiler().setEnabled(true);
  if (ior) {
    IorRunner runner(*run.env.bench, *run.env.fs);
    runner.setTraceLog(&run.appTrace);
    runner.run(iorCfg);
  } else {
    DlioRunner runner(*run.env.bench, *run.env.fs);
    run.appTrace = runner.run(dlioCfg).trace;
  }
  return true;
}

}  // namespace

int cmdTrace(const ArgParser& args, std::ostream& out, std::ostream& err) {
  const bool internal = args.has("--internal");
  const std::string path = args.getOr("--out", "trace.json");
  WorkloadRun run;
  if (!runTracedWorkload(args, err, internal, run)) return 2;
  const telemetry::Telemetry& tel = run.env.bench->telemetry();
  std::ofstream f(path);
  if (!f) {
    err << "error: cannot write " << path << "\n";
    return 1;
  }
  f << telemetry::mergedChromeTraceJson(run.appTrace, tel);
  f.close();
  if (!f) {
    err << "error: cannot write " << path << "\n";
    return 1;
  }
  out << "wrote " << path << " (" << run.appTrace.events().size() << " app events";
  if (internal) out << ", " << tel.spanCount() << " internal spans";
  out << ")\n";
  if (internal) out << tel.attribution().renderTable();
  return 0;
}

int cmdStats(const ArgParser& args, std::ostream& out, std::ostream& err) {
  const bool json = args.has("--json");
  WorkloadRun run;
  if (!runTracedWorkload(args, err, /*telemetryOn=*/true, run, args.has("--self"))) return 2;
  telemetry::MetricsRegistry reg;
  run.env.bench->collectMetrics(reg, run.env.fs.get());
  // transport.* rows appear only when the environment ran on a fabric
  // (DAOS always does; other models only with a "transport" section).
  if (run.env.transport) run.env.transport->exportMetrics(reg);
  if (json) {
    // Machine face of the registry: numbers round-trip losslessly (the
    // JSON writer is the same one behind the sweep JSONL).
    out << writeJson(reg.toJson(), 2) << "\n";
    return 0;
  }
  out << reg.renderTable();
  const telemetry::AttributionReport rep = run.env.bench->telemetry().attribution();
  if (rep.spans > 0) out << rep.renderTable();
  return 0;
}

int cmdDumpConfig(const ArgParser& args, std::ostream& out, std::ostream& err) {
  Site site;
  StorageKind kind;
  if (!parseTarget(args, err, site, kind) || !optionsOk(args, err)) return 2;
  out << writeJson(presetJson(site, kind), 2) << "\n";
  return 0;
}

int run(const ArgParser& args, std::ostream& out, std::ostream& err) {
  const std::string cmd = args.positionalOr(0, "help");
  if (cmd == "help" || args.has("--help")) return cmdHelp(out);
  try {
    if (cmd == "ior") return cmdIor(args, out, err);
    if (cmd == "dlio") return cmdDlio(args, out, err);
    if (cmd == "mdtest") return cmdMdtest(args, out, err);
    if (cmd == "plan") return cmdPlan(args, out, err);
    if (cmd == "takeaways") return cmdTakeaways(args, out, err);
    if (cmd == "sweep") return cmdSweep(args, out, err);
    if (cmd == "chaos") return cmdChaos(args, out, err);
    if (cmd == "workload") return cmdWorkload(args, out, err);
    if (cmd == "probe") return cmdProbe(args, out, err);
    if (cmd == "scale") return cmdScale(args, out, err);
    if (cmd == "oracle") return cmdOracle(args, out, err);
    if (cmd == "trace") return cmdTrace(args, out, err);
    if (cmd == "stats") return cmdStats(args, out, err);
    if (cmd == "dump-config") return cmdDumpConfig(args, out, err);
  } catch (const std::exception& ex) {
    // Bad geometry, impossible site/storage combinations, etc. surface
    // as clean CLI errors, not crashes.
    err << "error: " << ex.what() << "\n";
    return 1;
  }
  err << "error: unknown command '" << cmd << "' (try: hcsim help)\n";
  return 2;
}

}  // namespace hcsim::cli
