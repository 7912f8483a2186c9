#include "cli/commands.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
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

/// A bad command line, or a bad spec, config or cache file it names:
/// run() prints "error: " and the message, and exits 2. Any other
/// exception is a failed run (exit 1).
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The command's flags, read through their field list (cli/args.hpp).
template <class Flags>
Flags readFlags(ArgParser& args) {
  Flags flags;
  if (std::string e = args.read(flags); !e.empty()) throw UsageError(e);
  return flags;
}

// ---- flag lists ----
//
// Each command reads one struct below, its field list's keys being its
// flags (read onto the config they fill where there is one); help prints
// the struct's defaults. Where a flag decides which flags a run takes
// (ior/dlio --config, trace/stats --workload), there are two lists.

/// The deployment a run is built on. Neither flag has a default: each
/// starts past its enum's last spelling, so read() requires it.
struct TargetFlags {
  Site site = static_cast<Site>(-1);
  StorageKind storage = static_cast<StorageKind>(-1);
};
template <class IO>
void fields(IO& io, TargetFlags& f) {
  io("--site", f.site);
  io("--storage", f.storage);
}

/// `ior` or `dlio` with its config read from a file instead of flags.
struct ConfigFlags : TargetFlags {
  std::string config;
};
template <class IO>
void fields(IO& io, ConfigFlags& f) {
  fields(io, static_cast<TargetFlags&>(f));
  io("--config", f.config);
}

struct IorFlags : TargetFlags {
  IorConfig cfg{.segments = 512, .nodes = 4, .procsPerNode = 16, .repetitions = 3,
                .noiseStdDevFrac = 0.03};
  bool perOp = false, sharedFile = false;

  IorConfig config() const {
    IorConfig c = cfg;
    if (perOp) c.mode = IorConfig::Mode::PerOp;
    c.filePerProcess = !sharedFile;
    return c;
  }
};
template <class IO>
void fields(IO& io, IorFlags& f) {
  fields(io, static_cast<TargetFlags&>(f));
  io("--access", f.cfg.access);
  io("--nodes", f.cfg.nodes, kCount);
  io("--ppn", f.cfg.procsPerNode, kCount);
  io("--segments", f.cfg.segments, kCount);
  io("--fsync", f.cfg.fsyncPerWrite);
  io("--per-op", f.perOp);
  io("--shared-file", f.sharedFile);
  io("--reps", f.cfg.repetitions, kCount);
  io("--noise", f.cfg.noiseStdDevFrac, kNonNegative);
  io("--stonewall", f.cfg.stonewallSeconds, kNonNegative);
}

/// The DLIO presets --workload names.
constexpr std::initializer_list<const char*> kDlioPresets = {"resnet50", "cosmoflow", "unet3d"};

struct DlioFlags : TargetFlags {
  std::string workload = "resnet50";
  DlioConfig cfg{.workload = {}, .nodes = 4};

  DlioConfig config() const {
    DlioConfig c = cfg;
    c.workload = workload == "cosmoflow" ? DlioWorkload::cosmoflow()
                 : workload == "unet3d"  ? DlioWorkload::unet3d()
                                         : DlioWorkload::resnet50();
    return c;
  }
};
template <class IO>
void fields(IO& io, DlioFlags& f) {
  fields(io, static_cast<TargetFlags&>(f));
  io.oneOf("--workload", f.workload, kDlioPresets);
  io("--nodes", f.cfg.nodes, kCount);
  io("--ppn", f.cfg.procsPerNode, kCount);
}

struct MdtestFlags : TargetFlags {
  MdtestConfig cfg{.procsPerNode = 16, .itemsPerProc = 128, .repetitions = 3,
                   .noiseStdDevFrac = 0.03};
};
template <class IO>
void fields(IO& io, MdtestFlags& f) {
  fields(io, static_cast<TargetFlags&>(f));
  io("--nodes", f.cfg.nodes, kCount);
  io("--procs", f.cfg.procsPerNode, kCount);
  io("--items", f.cfg.itemsPerProc, kCount);
  io("--unique-dir", f.cfg.uniqueDirPerTask);
  io("--reps", f.cfg.repetitions, kCount);
  io("--noise", f.cfg.noiseStdDevFrac, kNonNegative);
}

struct PlanFlags {
  Site machine = Site::Wombat;
  PlanGoal goal;
};
template <class IO>
void fields(IO& io, PlanFlags& f) {
  io("--machine", f.machine);
  io("--pattern", f.goal.pattern);
  io("--min-gbs", f.goal.minGBsPerNode, kPositive);
  io("--nodes", f.goal.nodes, kCount);
  io("--ppn", f.goal.procsPerNode, kCount);
}

/// The directory of paper figures the oracle and `takeaways` read.
struct DirFlags {
  std::string dir = oracle::kPaperDir;
};
template <class IO>
void fields(IO& io, DirFlags& f) {
  io("--dir", f.dir);
}

struct SweepFlags {
  std::string spec;
  std::size_t jobs = sweep::defaultJobs();
  sweep::TrialOptions trial;
  std::string out, csv, baseline, cache;
};
template <class IO>
void fields(IO& io, SweepFlags& f) {
  io("--spec", f.spec);
  io("--jobs", f.jobs, kWhole);
  io("--telemetry", f.trial.telemetry);
  io("--self-profile", f.trial.selfProfile);
  io("--out", f.out);
  io("--csv", f.csv);
  io("--baseline", f.baseline);
  io("--cache", f.cache);
}

/// `chaos`, `workload` and `probe`: the spec (--spec, else the first
/// positional) and the outputs they share.
struct SpecRunFlags {
  std::string spec;
  bool telemetry = false;
  std::string out, csv, dumpOnExit;
};
template <class IO>
void fields(IO& io, SpecRunFlags& f) {
  io("--spec", f.spec);
  io("--telemetry", f.telemetry);
  io("--out", f.out);
  io("--csv", f.csv);
  io("--dump-on-exit", f.dumpOnExit);
}

/// `scale`: most flags are open-loop keys under another name; --clients
/// and --classes together set clients and clientsPerRank.
struct ScaleFlags {
  Site site = Site::Lassen;
  StorageKind storage = StorageKind::Vast;
  double clients = 1e6;
  std::size_t classes = 256;
  workload::OpenLoopConfig cfg{.clientsPerNode = 8, .ratePerClientHz = 5.0, .horizonSec = 5.0};
  bool telemetry = false;
  std::string out;
};
template <class IO>
void fields(IO& io, ScaleFlags& f) {
  io("--site", f.site);
  io("--storage", f.storage);
  io("--clients", f.clients, kPositive);
  io("--classes", f.classes, kCount);
  io("--classes-per-node", f.cfg.clientsPerNode, kCount);
  io("--rate", f.cfg.ratePerClientHz, kPositive);
  io("--horizon", f.cfg.horizonSec, kPositive);
  io("--demand-sigma", f.cfg.demandSigma, kNonNegative);
  io("--request", f.cfg.requestBytes, kPositive);
  io("--read-fraction", f.cfg.readFraction, kFraction);
  io("--objects", f.cfg.objects, kCount);
  io("--seed", f.cfg.seed);
  io("--telemetry", f.telemetry);
  io("--out", f.out);
}

struct RelationsFlags {
  oracle::SuiteOptions suite;
  bool noShrink = false;
  std::string relation, cache;
};
template <class IO>
void fields(IO& io, RelationsFlags& f) {
  io("--cases", f.suite.casesPerRelation, kCount);
  io("--seed", f.suite.seed, kWhole);
  io("--jobs", f.suite.jobs, kWhole);
  io("--no-shrink", f.noShrink);
  io("--relation", f.relation);
  io("--cache", f.cache);
}

/// `oracle record`, and the run options `oracle check` shares.
struct RecordFlags : DirFlags {
  std::size_t jobs = 0;
  sweep::TrialOptions trial;
  std::string figure, cache;
};
template <class IO>
void fields(IO& io, RecordFlags& f) {
  fields(io, static_cast<DirFlags&>(f));
  io("--jobs", f.jobs, kWhole);
  io("--telemetry", f.trial.telemetry);
  io("--figure", f.figure);
  io("--cache", f.cache);
}

struct CheckFlags : RecordFlags {
  double tolerance = 2.0;
  bool full = false;
};
template <class IO>
void fields(IO& io, CheckFlags& f) {
  fields(io, static_cast<RecordFlags&>(f));
  io("--tolerance", f.tolerance, kNonNegative);
  io("--full", f.full);
}

/// `trace` and `stats` run one noiseless IOR pass (--workload ior, the
/// default) or, when --workload names a DLIO preset, `hcsim dlio`'s run
/// (DlioFlags).
struct TracedIor : TargetFlags {
  std::string workload = "ior";
  IorConfig cfg{.segments = 512, .nodes = 4, .procsPerNode = 16};
};
template <class IO>
void fields(IO& io, TracedIor& f) {
  fields(io, static_cast<TargetFlags&>(f));
  io.oneOf("--workload", f.workload, {"ior", "resnet50", "cosmoflow", "unet3d"});
  io("--nodes", f.cfg.nodes, kCount);
  io("--access", f.cfg.access);
  io("--ppn", f.cfg.procsPerNode, kCount);
  io("--segments", f.cfg.segments, kCount);
}

bool tracesDlio(const ArgParser& args) {
  const auto w = args.get("--workload");
  return w && isOneOf(*w, kDlioPresets);
}

template <class Run>
struct TraceFlags : Run {
  bool internal = false;
  std::string out = "trace.json";
};
template <class IO, class Run>
void fields(IO& io, TraceFlags<Run>& f) {
  fields(io, static_cast<Run&>(f));
  io("--internal", f.internal);
  io("--out", f.out);
}

template <class Run>
struct StatsFlags : Run {
  bool json = false, self = false;
};
template <class IO, class Run>
void fields(IO& io, StatsFlags<Run>& f) {
  fields(io, static_cast<Run&>(f));
  io("--json", f.json);
  io("--self", f.self);
}

// ---- shared plumbing ----

/// Shared --cache plumbing: when the flag names a file, load it into a
/// TrialCache before the run and persist the merged contents after.
/// Cached metrics are bit-exact (the JSON writer round-trips doubles),
/// so results never depend on whether a cache was used.
class CacheSession {
 public:
  explicit CacheSession(const std::string& path) : path_(path) {
    if (!path.empty() && !cache_.emplace().loadFile(path)) {
      throw UsageError("trial cache " + path + " is malformed (delete it to rebuild)");
    }
  }
  sweep::TrialCache* get() { return cache_ ? &*cache_ : nullptr; }
  void close() {
    if (cache_ && !cache_->saveFile(path_)) throw UsageError("cannot write trial cache " + path_);
  }

 private:
  std::string path_;
  std::optional<sweep::TrialCache> cache_;
};

/// Write `text` to `path` and say so.
void writeFile(const std::string& path, const std::string& text, std::ostream& out) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!(f << text)) throw std::runtime_error("cannot write " + path);
  out << "wrote " << path << "\n";
}

/// The environment's metrics: bench, storage model and, when the run
/// had one, the transport fabric.
telemetry::MetricsRegistry metricsOf(const Environment& env) {
  telemetry::MetricsRegistry reg;
  env.bench->collectMetrics(reg, env.fs.get());
  if (env.transport) env.transport->exportMetrics(reg);
  return reg;
}

/// --dump-on-exit plumbing: write the bench's flight-recorder ring as
/// <prefix>.jsonl (one record per line) and <prefix>.trace.json
/// (chrome-trace instants, loadable in a trace viewer).
void dumpRecorder(const probe::FlightRecorder& rec, const std::string& prefix, std::ostream& out) {
  using Recorder = probe::FlightRecorder;
  for (const auto& [suffix, dump] : {std::pair{".jsonl", &Recorder::dumpJsonl},
                                     std::pair{".trace.json", &Recorder::dumpChromeTrace}}) {
    std::ofstream f(prefix + suffix, std::ios::binary | std::ios::trunc);
    if (!f) throw std::runtime_error("cannot write " + prefix + suffix);
    (rec.*dump)(f);
  }
  out << "dumped " << rec.size() << " flight-recorder record(s) to " << prefix << ".jsonl and "
      << prefix << ".trace.json\n";
}

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
int finishRun(const SpecRunFlags& opts, const Environment& env, const RunReport& run,
              std::ostream& out) {
  if (run.monitors > 0) {
    out << "monitors: " << run.monitors << " evaluated, " << run.breaches.size()
        << " breach(es)\n";
    out << probe::renderBreachTable(run.breaches);
  }
  if (opts.telemetry) {
    telemetry::MetricsRegistry reg = metricsOf(env);
    run.exportTo(reg);
    out << reg.renderTable();
    const telemetry::AttributionReport rep = env.bench->telemetry().attribution();
    if (rep.spans > 0) out << rep.renderTable();
  }
  for (const auto& [path, text] : {std::pair{&opts.out, &run.jsonl}, std::pair{&opts.csv, &run.csv}}) {
    if (!path->empty()) writeFile(*path, *text, out);
  }
  if (!opts.dumpOnExit.empty()) dumpRecorder(env.bench->recorder(), opts.dumpOnExit, out);
  return run.breaches.empty() ? 0 : 3;
}

/// The spec file a chaos, workload or probe run reads.
std::string specPath(const ArgParser& args, const SpecRunFlags& f, const std::string& command,
                     const char* what) {
  std::string path = f.spec.empty() ? args.positionalOr(1, "") : f.spec;
  if (path.empty()) {
    throw UsageError(command + " requires a " + what + " (hcsim " + command + " <spec.json>)");
  }
  return path;
}

/// "invalid <what>:" and one "  - " line per problem.
UsageError invalid(const std::string& what, const std::vector<std::string>& problems) {
  std::string msg = "invalid " + what + ":";
  for (const std::string& p : problems) msg += "\n  - " + p;
  return UsageError(msg);
}

/// makeEnvironment for a parsed spec. A storageConfig or transport
/// section the config reader (or the model's validate()) rejects is a
/// spec problem like any other (exit 2). A site/storage pair without a
/// deployment still throws, as for `hcsim ior` (exit 1).
Environment specEnvironment(const SpecHeader& spec, std::size_t nodes, const std::string& what) {
  requireSite(spec.storage, spec.site);
  try {
    return makeEnvironment(spec, nodes);
  } catch (const std::invalid_argument& ex) {
    throw invalid(what, {ex.what()});
  }
}

/// The deployment and run config of `ior` or `dlio`: from the flags of
/// `Flags`, or read from --config F.
template <class Flags, class Config = decltype(Flags::cfg)>
std::pair<TargetFlags, Config> runConfig(ArgParser& args, const std::string& what) {
  if (!args.get("--config")) {
    const auto f = readFlags<Flags>(args);
    return {f, f.config()};
  }
  const auto f = readFlags<ConfigFlags>(args);
  Config cfg;
  std::string why;
  if (!loadConfig(f.config, cfg, &why)) throw UsageError("cannot load " + what + " config: " + why);
  return {f, cfg};
}

// ---- commands ----

int ior(ArgParser& args, std::ostream& out) {
  const auto [target, cfg] = runConfig<IorFlags>(args, "IOR");
  try {
    cfg.validate();
  } catch (const std::invalid_argument& ex) {
    throw UsageError(ex.what());
  }
  Environment env = makeEnvironment(target.site, target.storage, cfg.nodes);
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

int dlio(ArgParser& args, std::ostream& out) {
  const auto [target, cfg] = runConfig<DlioFlags>(args, "DLIO");
  const DlioResult r = runDlio(target.site, target.storage, cfg);
  out << cfg.workload.name << " on " << toString(target.storage) << "@" << toString(target.site)
      << " (" << cfg.nodes << " nodes x " << cfg.procsPerNode << " ranks)\n";
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

int mdtest(ArgParser& args, std::ostream& out) {
  const auto f = readFlags<MdtestFlags>(args);
  const MdtestConfig& cfg = f.cfg;
  Environment env = makeEnvironment(f.site, f.storage, cfg.nodes);
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

int plan(ArgParser& args, std::ostream& out) {
  const auto f = readFlags<PlanFlags>(args);
  const auto candidates = planVastDeployment(machineFor(f.machine), f.goal);
  ResultTable t("deployment candidates (sorted: goal-meeting first, cheapest first)");
  t.setHeader({"config", "GB/s per node", "meets goal", "cost units"});
  for (const auto& c : candidates) {
    t.addRow({c.config.name, c.measuredGBsPerNode, std::string(c.meetsGoal ? "yes" : "no"),
              c.costUnits()});
  }
  out << t.toString();
  return candidates.empty() || !candidates.front().meetsGoal ? 1 : 0;
}

/// The sweep spec at `path`.
sweep::SweepSpec loadSweep(const std::string& path) {
  sweep::SweepSpec spec;
  std::string error;
  if (!sweep::loadSpec(path, spec, &error)) throw UsageError(path + ": " + error);
  return spec;
}

int takeaways(ArgParser& args, std::ostream& out) {
  const std::string dir = readFlags<DirFlags>(args).dir;
  // The takeaways read fig2a and fig2b cells, fresh from the model.
  const auto cells = [&dir](const char* name) {
    return oracle::cellsOf(sweep::runSweep(loadSweep(dir + name), 0));
  };
  std::string error;
  const auto checks = oracle::takeawayChecks(cells("/fig2a.json"), cells("/fig2b.json"), error);
  if (checks.empty()) throw UsageError(error);
  out << calibration::toMarkdown(checks);
  const bool pass = std::all_of(checks.begin(), checks.end(),
                                [](const calibration::Check& c) { return c.pass(); });
  return pass ? 0 : 1;
}

int sweepCommand(ArgParser& args, std::ostream& out) {
  const auto f = readFlags<SweepFlags>(args);
  if (f.spec.empty()) throw UsageError("sweep requires --spec <file.json>");
  const sweep::SweepSpec spec = loadSweep(f.spec);
  const std::size_t jobs = f.jobs == 0 ? sweep::defaultJobs() : f.jobs;
  CacheSession cache(f.cache);
  const sweep::SweepOutcome result = sweep::runSweep(spec, jobs, cache.get(), f.trial);

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

  for (const auto& [path, write] :
       {std::pair{&f.out, &sweep::writeJsonl}, std::pair{&f.csv, &sweep::writeCsv}}) {
    if (path->empty()) continue;
    if (!write(result, *path)) throw std::runtime_error("cannot write " + *path);
    out << "wrote " << *path << "\n";
  }
  if (!f.baseline.empty()) {
    std::map<std::string, double> baseline;
    if (!sweep::loadBaseline(f.baseline, baseline)) {
      throw std::runtime_error("cannot load baseline from " + f.baseline);
    }
    ResultTable d("delta vs " + f.baseline);
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
  cache.close();
  const bool allFailed = !result.results.empty() && result.failures == result.results.size();
  return allFailed ? 1 : 0;
}

int runChaos(const SpecRunFlags& f, const std::string& specPath, std::ostream& out) {
  chaos::ChaosSpec spec;
  std::string parseErr;
  if (!chaos::loadChaosSpec(specPath, spec, parseErr)) throw UsageError(parseErr);
  Environment env = specEnvironment(spec, spec.workload.nodes, "scenario " + specPath);
  // Validate before running so every schedule problem surfaces at once
  // with an actionable message and a distinct exit code.
  const std::vector<std::string> problems =
      chaos::validateSchedule(spec, *env.fs, env.bench->topo());
  if (!problems.empty()) throw invalid("scenario " + specPath, problems);
  if (f.telemetry) env.bench->telemetry().setEnabled(true);
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
  return finishRun(f, env,
                   {result.monitors, result.breaches, chaos::toJsonl(result), t.toCsv(),
                    [&result](telemetry::MetricsRegistry& reg) { chaos::exportTo(result, reg); }},
                   out);
}

int chaosCommand(ArgParser& args, std::ostream& out) {
  const auto f = readFlags<SpecRunFlags>(args);
  return runChaos(f, specPath(args, f, "chaos", "scenario file"), out);
}

/// The JSON document at `path`.
JsonValue readDocument(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw UsageError("cannot read " + path);
  std::string text((std::istreambuf_iterator<char>(file)), std::istreambuf_iterator<char>());
  JsonValue doc;
  if (!parseJson(text, doc)) throw UsageError(path + " is not valid JSON");
  return doc;
}

int runWorkload(const SpecRunFlags& f, const std::string& specPath, const JsonValue& doc,
                std::ostream& out) {
  // Collect every envelope + generator problem before giving up, so one
  // run of the CLI reports everything that needs fixing.
  workload::WorkloadRunSpec spec;
  std::vector<std::string> problems;
  workload::parseWorkloadSpec(doc, spec, problems);
  workload::SourceBundle bundle;
  if (problems.empty()) bundle = workload::makeSource(spec, problems);
  if (!problems.empty()) throw invalid("workload spec " + specPath, problems);
  Environment env = specEnvironment(spec, bundle.nodes, "workload spec " + specPath);
  if (f.telemetry) env.bench->telemetry().setEnabled(true);
  chaos::ChaosLandmarks landmarks;
  try {
    landmarks = workload::injectWorkloadChaos(spec, env);
  } catch (const std::exception& ex) {
    throw invalid("workload spec " + specPath, {ex.what()});
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
  return finishRun(f, env,
                   {r.monitors, r.breaches, workload::toJsonl(r), workload::toCsv(r),
                    [&r](telemetry::MetricsRegistry& reg) { workload::exportTo(r, reg); }},
                   out);
}

int workloadCommand(ArgParser& args, std::ostream& out) {
  const auto f = readFlags<SpecRunFlags>(args);
  const std::string path = specPath(args, f, "workload", "spec file");
  return runWorkload(f, path, readDocument(path), out);
}

int probe(ArgParser& args, std::ostream& out) {
  const auto f = readFlags<SpecRunFlags>(args);
  const std::string path = specPath(args, f, "probe", "spec file");
  const JsonValue doc = readDocument(path);
  if (!doc.isObject()) throw UsageError(path + " is not a JSON object");
  // A workload spec's "workload" section names a generator; a chaos
  // scenario's is plain drill knobs (nodes/procsPerNode/...). That key
  // decides which runner gets the spec — both evaluate its "monitors".
  const JsonValue* w = doc.find("workload");
  const bool isWorkload = w != nullptr && w->isObject() && w->find("generator") != nullptr;
  return isWorkload ? runWorkload(f, path, doc, out) : runChaos(f, path, out);
}

int scale(ArgParser& args, std::ostream& out) {
  // Flow-class aggregation demo: a service-scale open-loop population
  // (a million clients by default) simulated as `--classes` flow
  // classes, each standing for clients/classes members. Memory and event
  // count stay proportional to the class count, not the client count.
  auto f = readFlags<ScaleFlags>(args);
  JsonObject derived;
  derived["clients"] = static_cast<double>(f.classes);
  // ceil: at least --clients in all
  derived["clientsPerRank"] = std::ceil(f.clients / static_cast<double>(f.classes));
  if (std::string e = readFields(JsonValue(std::move(derived)), f.cfg, ""); !e.empty()) {
    throw UsageError("--clients: " + e);
  }
  const workload::OpenLoopConfig& cfg = f.cfg;

  Environment env = makeEnvironment(f.site, f.storage, cfg.nodes(), nullptr);
  if (f.telemetry) env.bench->telemetry().setEnabled(true);
  workload::OpenLoopSource source(cfg);
  workload::WorkloadRunner runner(*env.bench, *env.fs);
  const workload::WorkloadOutcome r = runner.run(source);

  out << "scale: " << r.clientsTotal() << " clients as " << r.ranks << " flow classes x "
      << r.clientsPerRank << " members on " << toString(f.site) << "/" << toString(f.storage)
      << " (" << cfg.nodes() << " nodes)\n";
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
  if (f.telemetry) {
    telemetry::MetricsRegistry reg = metricsOf(env);
    workload::exportTo(r, reg);
    out << reg.renderTable();
  }
  if (!f.out.empty()) writeFile(f.out, workload::toJsonl(r), out);
  return 0;
}

/// The golden figures of `dir`.
std::vector<oracle::GoldenFigure> loadFigures(const std::string& dir) {
  std::vector<oracle::GoldenFigure> figures;
  std::string error;
  if (!oracle::loadFigures(dir, figures, error)) throw UsageError(error);
  return figures;
}

int oracleList(ArgParser& args, std::ostream& out) {
  const auto figures = loadFigures(readFlags<DirFlags>(args).dir);
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

int oracleRelations(ArgParser& args, std::ostream& out) {
  auto f = readFlags<RelationsFlags>(args);
  oracle::SuiteOptions& options = f.suite;
  options.shrink = !f.noShrink;
  CacheSession cache(f.cache);
  options.cache = cache.get();

  const auto& registry = oracle::RelationRegistry::builtin();
  std::vector<oracle::RelationReport> reports;
  if (!f.relation.empty()) {
    const oracle::MetamorphicRelation* rel = registry.find(f.relation);
    if (!rel) throw UsageError("unknown relation '" + f.relation + "' (try: hcsim oracle list)");
    reports.push_back(oracle::runRelation(*rel, options));
  } else {
    reports = oracle::runSuite(registry, options);
  }
  out << oracle::toMarkdown(reports);
  cache.close();
  for (const auto& r : reports) {
    if (!r.pass()) return 1;
  }
  return 0;
}

/// What a record/check run covers: the figures of --dir, all of them or
/// --figure F, plus the trial cache both subcommands share.
struct FigureRun {
  CacheSession cache;
  std::vector<oracle::GoldenFigure> figures;

  explicit FigureRun(const RecordFlags& f) : cache(f.cache), figures(loadFigures(f.dir)) {
    if (f.figure.empty()) return;
    std::erase_if(figures, [&](const oracle::GoldenFigure& g) { return g.name != f.figure; });
    if (figures.empty()) {
      throw UsageError("unknown figure '" + f.figure + "' (try: hcsim oracle list)");
    }
  }
};

int oracleRecord(ArgParser& args, std::ostream& out) {
  const auto f = readFlags<RecordFlags>(args);
  FigureRun run(f);
  for (const oracle::GoldenFigure& fig : run.figures) {
    std::string error;
    if (!oracle::recordFigure(fig, f.dir, f.jobs, error, run.cache.get(), f.trial)) {
      throw std::runtime_error(error);
    }
    out << "recorded " << oracle::goldenPath(f.dir, fig.name) << " ("
        << fig.spec.trialCount() << " cells)\n";
  }
  run.cache.close();
  return 0;
}

int oracleCheck(ArgParser& args, std::ostream& out) {
  const auto f = readFlags<CheckFlags>(args);
  FigureRun run(f);
  // Cache stats and telemetry deliberately never reach stdout here:
  // check output must stay byte-identical with the cache on or off,
  // with or without --telemetry, at any --jobs.
  bool pass = true;
  std::optional<oracle::Cells> fig2a, fig2b;
  for (const oracle::GoldenFigure& fig : run.figures) {
    oracle::FigureCheck check =
        oracle::checkFigure(fig, f.dir, f.jobs, f.tolerance, run.cache.get(), f.trial);
    out << oracle::deltaTable(check, f.tolerance, f.full);
    pass = pass && check.pass();
    if (fig.name == "fig2a") fig2a = std::move(check.current);
    if (fig.name == "fig2b") fig2b = std::move(check.current);
  }
  // The section-VII takeaways are band checks over fig2a and fig2b's
  // cells. A directory whose sweeps lack a cell they read (an older,
  // reduced geometry) has no takeaways to check.
  std::string missing;
  const std::vector<calibration::Check> checks =
      fig2a && fig2b ? oracle::takeawayChecks(*fig2a, *fig2b, missing)
                     : std::vector<calibration::Check>{};
  if (!checks.empty()) {
    const auto misses = std::count_if(checks.begin(), checks.end(),
                                      [](const calibration::Check& c) { return !c.pass(); });
    out << "takeaways: " << checks.size() << " rows, " << misses
        << " outside their paper band\n";
    if (misses > 0) out << calibration::toMarkdown(checks);
    pass = pass && misses == 0;
  }
  out << (pass ? "oracle golden check: PASS" : "oracle golden check: FAIL") << "\n";
  run.cache.close();
  return pass ? 0 : 1;
}

/// A traced run's environment and its app-level event log.
struct TracedRun {
  Environment env;
  TraceLog appTrace;
};

/// Run `f`'s IOR pass or DLIO training, telemetry and the self-profiler
/// switched on first when asked.
template <class Flags>
TracedRun runTraced(const Flags& f, bool telemetryOn, bool selfProfileOn) {
  TracedRun run{makeEnvironment(f.site, f.storage, f.cfg.nodes), {}};
  if (telemetryOn) run.env.bench->telemetry().setEnabled(true);
  if (selfProfileOn) run.env.bench->profiler().setEnabled(true);
  if constexpr (std::is_base_of_v<DlioFlags, Flags>) {
    run.appTrace = DlioRunner(*run.env.bench, *run.env.fs).run(f.config()).trace;
  } else {
    IorRunner runner(*run.env.bench, *run.env.fs);
    runner.setTraceLog(&run.appTrace);
    runner.run(f.cfg);
  }
  return run;
}

template <class Run>
int traceWith(ArgParser& args, std::ostream& out) {
  const auto f = readFlags<TraceFlags<Run>>(args);
  const TracedRun run = runTraced(f, f.internal, false);
  const telemetry::Telemetry& tel = run.env.bench->telemetry();
  std::ofstream file(f.out);
  file << telemetry::mergedChromeTraceJson(run.appTrace, tel);
  file.close();
  if (!file) throw std::runtime_error("cannot write " + f.out);
  out << "wrote " << f.out << " (" << run.appTrace.events().size() << " app events";
  if (f.internal) out << ", " << tel.spanCount() << " internal spans";
  out << ")\n";
  if (f.internal) out << tel.attribution().renderTable();
  return 0;
}

int trace(ArgParser& args, std::ostream& out) {
  return tracesDlio(args) ? traceWith<DlioFlags>(args, out) : traceWith<TracedIor>(args, out);
}

template <class Run>
int statsWith(ArgParser& args, std::ostream& out) {
  const auto f = readFlags<StatsFlags<Run>>(args);
  const TracedRun run = runTraced(f, /*telemetryOn=*/true, f.self);
  // transport.* rows appear only when the environment ran on a fabric
  // (DAOS always does; other models only with a "transport" section).
  const telemetry::MetricsRegistry reg = metricsOf(run.env);
  if (f.json) {
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

int stats(ArgParser& args, std::ostream& out) {
  return tracesDlio(args) ? statsWith<DlioFlags>(args, out) : statsWith<TracedIor>(args, out);
}

int dumpConfig(ArgParser& args, std::ostream& out) {
  const auto f = readFlags<TargetFlags>(args);
  out << writeJson(presetJson(f.site, f.storage), 2) << "\n";
  return 0;
}

// ---- the command table and help ----

/// One `hcsim` command or `oracle` subcommand: its name, what it does,
/// what `hcsim help` prints under it (nothing when null), and what runs
/// it.
struct Command {
  const char* name;
  const char* purpose;
  void (*usage)(std::ostream& out, std::size_t indent);
  int (*run)(ArgParser& args, std::ostream& out);
};

/// A flag as help shows it: "[--nodes 4]" with its default, "[--fsync]"
/// bare, "--site a|b" required, an enum's choices after its default.
std::string helpWord(const Flag& f) {
  if (f.required) return std::string(f.key) + " " + f.choices;
  std::string word = "[" + std::string(f.key);
  if (f.kind != Flag::Kind::Bare) word += " " + (f.value.empty() ? std::string("...") : f.value);
  if (!f.choices.empty()) word += " (" + f.choices + ")";
  return word + "]";
}

/// Each list's flags, wrapped at 79 columns; a second list is the
/// command's other form ("or").
template <class... Lists>
void usage(std::ostream& out, std::size_t indent) {
  std::string line;
  const auto print = [&]<class List>(List defaults) {
    FlagList list;
    fields(list, defaults);
    line = line.empty() ? std::string(indent, ' ') : std::string(indent - 3, ' ') + "or ";
    for (const Flag& f : list.flags) {
      const std::string word = helpWord(f);
      if (line.size() > indent && line.size() + 1 + word.size() > 79) {
        out << line << "\n";
        line = std::string(indent, ' ');
      }
      line += (line.size() > indent ? " " : "") + word;
    }
    out << line << "\n";
  };
  (print(Lists{}), ...);
}

void printTable(std::ostream& out, const std::vector<Command>& table, std::size_t indent) {
  for (const Command& c : table) {
    std::string name = std::string(indent, ' ') + c.name;
    name.resize(std::max(name.size() + 1, indent + 13), ' ');
    out << name << c.purpose << "\n";
    if (c.usage) c.usage(out, indent + 13);
  }
}

const std::vector<Command>& oracleCommands() {
  static const std::vector<Command> table = {
      {"list", "the relations, and the figures of --dir", usage<DirFlags>, oracleList},
      {"relations", "run the metamorphic relations", usage<RelationsFlags>, oracleRelations},
      {"record", "re-record each figure's snapshot, D/NAME.jsonl", usage<RecordFlags>,
       oracleRecord},
      {"check", "check the figures' drift and the takeaways' bands", usage<CheckFlags>,
       oracleCheck},
  };
  return table;
}

int oracle(ArgParser& args, std::ostream& out) {
  const std::string sub = args.positionalOr(1, "list");
  for (const Command& c : oracleCommands()) {
    if (sub == c.name) return c.run(args, out);
  }
  throw UsageError("oracle subcommand must be list|relations|record|check");
}

int help(ArgParser&, std::ostream& out);

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"ior", "run one IOR experiment", usage<IorFlags, ConfigFlags>, ior},
      {"dlio", "run one DLIO training", usage<DlioFlags, ConfigFlags>, dlio},
      {"mdtest", "run one MDTest metadata storm", usage<MdtestFlags>, mdtest},
      {"plan", "cheapest VAST deployments meeting --min-gbs per node", usage<PlanFlags>, plan},
      {"takeaways", "section-VII checks over --dir's fig2a and fig2b", usage<DirFlags>, takeaways},
      {"sweep", "run a what-if sweep spec on --jobs threads", usage<SweepFlags>, sweepCommand},
      {"chaos", "run a fault scenario and print its timeline", usage<SpecRunFlags>, chaosCommand},
      {"workload", "run a workload spec on any generator", usage<SpecRunFlags>, workloadCommand},
      {"probe", "run a chaos or workload spec under its SLO monitors", usage<SpecRunFlags>, probe},
      {"scale", "a million-client open-loop run as flow classes", usage<ScaleFlags>, scale},
      {"oracle", "the regression harness; a figure is a sweep spec D/NAME.json",
       [](std::ostream& out, std::size_t indent) { printTable(out, oracleCommands(), indent); },
       oracle},
      {"trace", "run IOR or a DLIO preset and write a chrome trace",
       usage<TraceFlags<TracedIor>, TraceFlags<DlioFlags>>, trace},
      {"stats", "run IOR or a DLIO preset and print the metrics registry",
       usage<StatsFlags<TracedIor>, StatsFlags<DlioFlags>>, stats},
      {"dump-config", "print a site's storage preset as JSON", usage<TargetFlags>, dumpConfig},
      {"help", "this text", nullptr, help},
  };
  return table;
}

int help(ArgParser&, std::ostream& out) {
  out << "hcsim — highly configurable storage simulator (CLUSTER'24 reproduction)\n\n"
         "usage: hcsim <command> [flags]\n"
         "  [--flag value] is optional and shows its default, (a|b) its choices;\n"
         "  --flag a|b without brackets is required. chaos, workload and probe\n"
         "  take their spec as --spec or as the argument after the command.\n\n"
         "commands:\n";
  printTable(out, commands(), 2);
  return 0;
}

}  // namespace

int run(ArgParser args, std::ostream& out, std::ostream& err) {
  const std::string name = args.positionalOr(0, "help");
  if (args.get("--help")) return help(args, out);
  const auto& table = commands();
  const auto cmd = std::find_if(table.begin(), table.end(),
                                [&name](const Command& c) { return name == c.name; });
  if (cmd == table.end()) {
    err << "error: unknown command '" << name << "' (try: hcsim help)\n";
    return 2;
  }
  try {
    return cmd->run(args, out);
  } catch (const UsageError& ex) {
    err << "error: " << ex.what() << "\n";
    return 2;
  } catch (const std::exception& ex) {
    // Bad geometry, impossible site/storage combinations, etc. surface
    // as clean CLI errors, not crashes.
    err << "error: " << ex.what() << "\n";
    return 1;
  }
}

}  // namespace hcsim::cli
