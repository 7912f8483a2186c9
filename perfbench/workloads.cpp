#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "chaos/chaos_runner.hpp"
#include "chaos/chaos_spec.hpp"
#include "config/serialize.hpp"
#include "core/experiment.hpp"
#include "sweep/result_sink.hpp"
#include "sweep/sweep_runner.hpp"
#include "sweep/sweep_spec.hpp"
#include "util/random.hpp"
#include "workload/ior_source.hpp"
#include "workload/openloop_source.hpp"
#include "workload/workload_runner.hpp"

namespace perfbench {

namespace {

using hcsim::Environment;
using hcsim::JsonArray;
using hcsim::JsonObject;
using hcsim::JsonValue;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

JsonValue parseText(const std::string& text) {
  JsonValue doc;
  if (!hcsim::parseJson(text, doc)) {
    throw std::runtime_error("perfbench: generated spec is not JSON");
  }
  return doc;
}

JsonArray numbers(std::initializer_list<double> values) {
  JsonArray out;
  for (double v : values) out.emplace_back(v);
  return out;
}

JsonArray strings(const std::vector<std::string>& values) {
  return JsonArray(values.begin(), values.end());
}

/// Build the environment inside a core span, instrumenting it when traced.
void buildEnvironment(std::optional<Environment>& env, Probe* probe, hcsim::Site site,
                      hcsim::StorageKind kind, std::size_t nodes, const JsonValue* storageConfig,
                      const JsonValue* transport) {
  {
    Span span(probe ? &probe->tracer : nullptr, Layer::Core);
    env.emplace(hcsim::makeEnvironment(site, kind, nodes, storageConfig, transport));
  }
  if (probe != nullptr) instrument(*env, *probe);
}

/// Harvest the counters (traced) and tear the environment down inside a
/// core span: teardown frees the recorder ring and the model, a cost
/// every trial pays.
void teardown(std::optional<Environment>& env, Probe* probe) {
  if (probe != nullptr) harvest(*env, probe->counts);
  Span span(probe ? &probe->tracer : nullptr, Layer::Core);
  env.reset();
}

const JsonValue* nonNull(const JsonValue& v) { return v.isNull() ? nullptr : &v; }

// ---------------------------------------------------------------- sweep_small

/// The 12 site x storage pairs the paper's deployments define, with DAOS
/// reachable from every site.
struct SitePairs {
  const char* site;
  hcsim::Site id;
  std::vector<std::string> storages;
};

const std::vector<SitePairs>& sitePairs() {
  static const std::vector<SitePairs> pairs = {
      {"lassen", hcsim::Site::Lassen, {"vast", "gpfs", "daos"}},
      {"ruby", hcsim::Site::Ruby, {"vast", "lustre", "daos"}},
      {"quartz", hcsim::Site::Quartz, {"vast", "lustre", "daos"}},
      {"wombat", hcsim::Site::Wombat, {"vast", "nvme", "daos"}},
  };
  return pairs;
}

hcsim::StorageKind storageKind(const std::string& name) {
  if (name == "vast") return hcsim::StorageKind::Vast;
  if (name == "gpfs") return hcsim::StorageKind::Gpfs;
  if (name == "lustre") return hcsim::StorageKind::Lustre;
  if (name == "nvme") return hcsim::StorageKind::NvmeLocal;
  if (name == "daos") return hcsim::StorageKind::Daos;
  throw std::invalid_argument("perfbench: unknown storage '" + name + "'");
}

hcsim::Site siteId(const std::string& name) {
  for (const SitePairs& p : sitePairs()) {
    if (name == p.site) return p.id;
  }
  throw std::invalid_argument("perfbench: unknown site '" + name + "'");
}

std::vector<DigestEntry> sweepDigest(const std::vector<hcsim::sweep::TrialMetrics>& trials) {
  double ok = 0.0;
  double bytes = 0.0;
  double gbs = 0.0;
  double elapsed = 0.0;
  for (const hcsim::sweep::TrialMetrics& m : trials) {
    if (!m.ok) continue;
    ok += 1.0;
    bytes += m.bytesMoved;
    gbs += m.meanGBs;
    elapsed += m.elapsedSec;
  }
  return {{"trials", static_cast<double>(trials.size()), true},
          {"trials_ok", ok, true},
          {"bytes_moved", bytes, true},
          {"sum_mean_gbs", gbs, false},
          {"sum_elapsed_s", elapsed, false}};
}

/// A seeded, stratified sample of closed-loop IOR trials over every valid
/// site x storage pair, run one trial at a time through runSweep with the
/// JSONL and CSV sinks rendered in memory and no trial cache. Each site's
/// spec crosses its storages with a seeded list of IOR sections in which
/// every (access, nodes, ppn) cell appears `copies` times, alternating
/// between 64 and 400 segments, each with a seeded IOR seed, so the mix of
/// trial costs (and with it the timing) does not depend on the seed while
/// the inputs do.
class SweepSmall final : public Workload {
 public:
  SweepSmall(std::uint64_t seed, Size size) {
    const bool full = size == Size::Full;
    copies_ = full ? 2 : 1;
    maxNodes_ = full ? 8 : 2;
    maxPpn_ = full ? 8 : 2;
    hcsim::Rng rng(seed);
    for (const SitePairs& p : sitePairs()) {
      JsonArray iors;
      for (const char* access : kAccess) {
        for (std::size_t nodes = 1; nodes <= maxNodes_; ++nodes) {
          for (std::size_t ppn = 1; ppn <= maxPpn_; ++ppn) {
            for (std::size_t c = 0; c < copies_; ++c) {
              JsonObject ior;
              ior["access"] = access;
              ior["nodes"] = static_cast<double>(nodes);
              ior["procsPerNode"] = static_cast<double>(ppn);
              ior["segments"] = (nodes + ppn + c) % 2 == 0 ? 64.0 : 400.0;
              ior["repetitions"] = 1.0;
              ior["seed"] = static_cast<double>(rng.uniformInt(1ull << 31));
              iors.emplace_back(std::move(ior));
            }
          }
        }
      }
      for (std::size_t i = iors.size(); i > 1; --i) {
        std::swap(iors[i - 1], iors[static_cast<std::size_t>(rng.uniformInt(i))]);
      }
      trials_ += iors.size() * p.storages.size();
      const auto axis = [](const char* path, JsonArray values) {
        JsonObject a;
        a["path"] = path;
        a["values"] = JsonValue(std::move(values));
        return JsonValue(std::move(a));
      };
      JsonObject base;
      base["site"] = p.site;
      JsonObject spec;
      spec["name"] = std::string("sweep_small-") + p.site;
      spec["experiment"] = "ior";
      spec["base"] = JsonValue(std::move(base));
      spec["axes"] = JsonValue(JsonArray{axis("ior", std::move(iors)),
                                         axis("storage", strings(p.storages))});
      spec["sampling"] = JsonValue(JsonObject{{"mode", "grid"}});
      specTexts_.push_back(hcsim::writeJson(JsonValue(std::move(spec))));
    }
  }

  JsonValue params() const override {
    JsonObject p;
    p["experiment"] = "ior";
    p["pairs"] = 12.0;
    p["trials"] = static_cast<double>(trials_);
    p["access"] = JsonValue(JsonArray(std::begin(kAccess), std::end(kAccess)));
    p["nodes_max"] = static_cast<double>(maxNodes_);
    p["ppn_max"] = static_cast<double>(maxPpn_);
    p["copies_per_cell"] = static_cast<double>(copies_);
    p["segments"] = JsonValue(numbers({64, 400}));
    p["jobs"] = 1.0;
    p["trial_cache"] = false;
    return JsonValue(std::move(p));
  }

  std::size_t setupRepeats() const override { return 3; }

  void setup() override {
    for (const hcsim::sweep::SweepSpec& spec : parseSpecs(nullptr)) {
      (void)hcsim::sweep::expandTrials(spec);
    }
  }

  Pass run(Probe* probe) override { return probe ? tracedPass(*probe) : timedPass(); }

 private:
  std::vector<hcsim::sweep::SweepSpec> parseSpecs(Probe* probe) const {
    Span span(probe ? &probe->tracer : nullptr, Layer::Config);
    std::vector<hcsim::sweep::SweepSpec> specs(specTexts_.size());
    for (std::size_t i = 0; i < specTexts_.size(); ++i) {
      if (!hcsim::sweep::fromJson(parseText(specTexts_[i]), specs[i])) {
        throw std::runtime_error("perfbench: generated sweep spec does not parse");
      }
    }
    return specs;
  }

  static std::uint64_t renderSinks(const hcsim::sweep::SweepOutcome& out, Probe* probe) {
    Span span(probe ? &probe->tracer : nullptr, Layer::Sink);
    std::string jsonl;
    for (const hcsim::sweep::TrialResult& r : out.results) {
      jsonl += hcsim::sweep::toJsonlLine(r);
      jsonl += '\n';
    }
    return jsonl.size() + hcsim::sweep::toCsv(out).size();
  }

  static void checkTrials(const std::vector<hcsim::sweep::TrialMetrics>& trials, Pass& pass) {
    for (std::size_t i = 0; i < trials.size(); ++i) {
      const hcsim::sweep::TrialMetrics& m = trials[i];
      if (!m.ok) {
        pass.problems.push_back("trial " + std::to_string(i) + " failed: " + m.error);
      } else if (!(m.meanGBs > 0.0) || !(m.elapsedSec > 0.0)) {
        pass.problems.push_back("trial " + std::to_string(i) + " moved no data");
      }
      if (pass.problems.size() >= 5) return;
    }
  }

  /// runSweep, one site spec at a time, times the measured phase. After
  /// each site, every kTimedEvery-th of its trials runs again through
  /// runTrial, the per-trial call runSweep makes, to time single trials
  /// (2,304 samples per pass; the sample order is shuffled, so every cell
  /// is covered). Alternating keeps both kinds of sample spread over the
  /// pass, and the re-run must reproduce runSweep's result exactly.
  Pass timedPass() {
    Pass pass;
    std::vector<hcsim::sweep::TrialMetrics> swept;
    auto t0 = Clock::now();
    const std::vector<hcsim::sweep::SweepSpec> specs = parseSpecs(nullptr);
    for (const hcsim::sweep::SweepSpec& spec : specs) {
      const hcsim::sweep::SweepOutcome out = hcsim::sweep::runSweep(spec, 1);
      renderSinks(out, nullptr);
      pass.unitSec.push_back(since(t0));
      for (std::size_t i = 0; i < out.results.size(); ++i) {
        const hcsim::sweep::TrialResult& r = out.results[i];
        swept.push_back(r.metrics);
        if (i % kTimedEvery != 0) continue;
        const auto t = Clock::now();
        const hcsim::sweep::TrialMetrics m =
            hcsim::sweep::runTrial(spec.experiment, r.trial.config);
        pass.trialSec.push_back(since(t));
        if (m.meanGBs != r.metrics.meanGBs || m.elapsedSec != r.metrics.elapsedSec) {
          pass.problems.push_back("runTrial disagrees with runSweep on " + spec.name + " trial " +
                                  std::to_string(i));
        }
      }
      t0 = Clock::now();
    }

    pass.attempted = swept.size();
    for (const hcsim::sweep::TrialMetrics& m : swept) pass.failed += m.ok ? 0 : 1;
    pass.digest = sweepDigest(swept);
    checkTrials(swept, pass);
    return pass;
  }

  /// The traced pass runs each trial the way runSweep's ior trial does
  /// (decode, makeEnvironment, IorSource on a WorkloadRunner), with
  /// spans around each call so environment set-up shows as its own layer.
  Pass tracedPass(Probe& probe) {
    Pass pass;
    std::vector<hcsim::sweep::TrialMetrics> metrics;
    auto t0 = Clock::now();
    for (const hcsim::sweep::SweepSpec& spec : parseSpecs(&probe)) {
      hcsim::sweep::SweepOutcome out;
      {
        Span span(&probe.tracer, Layer::Sweep);
        out.name = spec.name;
        out.experiment = spec.experiment;
        for (hcsim::sweep::Trial& trial : hcsim::sweep::expandTrials(spec)) {
          out.results.push_back({std::move(trial), {}});
        }
      }
      for (hcsim::sweep::TrialResult& r : out.results) {
        Span span(&probe.tracer, Layer::Sweep);
        r.metrics = tracedTrial(r.trial.config, probe);
        ++probe.counts.trials;
        metrics.push_back(r.metrics);
      }
      probe.counts.sinkBytes += renderSinks(out, &probe);
      pass.unitSec.push_back(since(t0));
      t0 = Clock::now();
    }
    pass.attempted = metrics.size();
    for (const hcsim::sweep::TrialMetrics& m : metrics) pass.failed += m.ok ? 0 : 1;
    pass.digest = sweepDigest(metrics);
    checkTrials(metrics, pass);
    return pass;
  }

  static hcsim::sweep::TrialMetrics tracedTrial(const JsonValue& config, Probe& probe) {
    hcsim::sweep::TrialMetrics m;
    try {
      hcsim::IorConfig cfg;
      {
        Span span(&probe.tracer, Layer::Config);
        const JsonValue* ior = config.find("ior");
        if (ior == nullptr || !hcsim::fromJson(*ior, cfg)) {
          throw std::invalid_argument("'ior' section does not parse");
        }
        cfg.validate();
      }
      std::optional<Environment> env;
      buildEnvironment(env, &probe, siteId(config.stringOr("site", "")),
                       storageKind(config.stringOr("storage", "")), cfg.nodes,
                       config.find("storageConfig"), config.find("transport"));
      hcsim::workload::IorSource source(cfg);
      TracedSource traced(source, probe);
      hcsim::workload::WorkloadRunner runner(*env->bench, *env->fs);
      hcsim::workload::WorkloadOutcome out;
      {
        Span span(&probe.tracer, Layer::SimRun);
        out = runner.run(traced);
      }
      const double bytes = cfg.mode == hcsim::IorConfig::Mode::Coalesced
                               ? static_cast<double>(cfg.totalBytes())
                               : static_cast<double>(out.bytesMoved);
      m.ok = true;
      m.meanGBs = m.minGBs = m.maxGBs = hcsim::units::toGBs(bytes / out.elapsed);
      m.elapsedSec = out.elapsed;
      m.bytesMoved = bytes;
      m.latencyCapable = true;
      if (const hcsim::transport::TransportFabric* fabric = env->transport.get()) {
        m.hasTransport = true;
        m.transportOps = static_cast<double>(fabric->opsPosted());
        m.transportBytes = static_cast<double>(fabric->bytesPosted());
        m.transportThrottleSec = fabric->throttleDelay();
        m.transportConnSetups = static_cast<double>(fabric->connectionSetups());
        m.transportSqWaits = static_cast<double>(fabric->sqWaits());
        m.transportDoorbells = static_cast<double>(fabric->doorbells());
      }
      teardown(env, &probe);
    } catch (const std::exception& ex) {
      m.ok = false;
      m.error = ex.what();
    }
    return m;
  }

  static constexpr const char* kAccess[] = {"seq-write", "seq-read", "rand-read"};
  static constexpr std::size_t kTimedEvery = 2;

  std::size_t copies_ = 0;
  std::size_t maxNodes_ = 0;
  std::size_t maxPpn_ = 0;
  std::size_t trials_ = 0;
  std::vector<std::string> specTexts_;
};

// ------------------------------------------------------------------- scale_1m

/// The `hcsim scale` default shape with arrivals cut at 3 s instead of 5 s
/// (so one run takes seconds, not tens of seconds): Lassen/VAST, open
/// loop, 5 Hz Poisson arrivals, 90% reads, 256 flow classes x 3,907
/// members.
class Scale1m final : public Workload {
 public:
  Scale1m(std::uint64_t seed, Size size) {
    const std::size_t clients = size == Size::Full ? 1000000 : 1000;
    const std::size_t classes = size == Size::Full ? 256 : 16;
    cfg_.clients = classes;
    cfg_.clientsPerRank = (clients + classes - 1) / classes;
    cfg_.clientsPerNode = 8;
    cfg_.ratePerClientHz = 5.0;
    cfg_.horizonSec = size == Size::Full ? 3.0 : 1.0;
    cfg_.requestBytes = 128 * hcsim::units::KiB;
    cfg_.readFraction = 0.9;
    cfg_.seed = seed;
  }

  JsonValue params() const override {
    JsonObject p;
    p["site"] = "lassen";
    p["storage"] = "vast";
    p["classes"] = static_cast<double>(cfg_.clients);
    p["members_per_class"] = static_cast<double>(cfg_.clientsPerRank);
    p["clients"] = static_cast<double>(cfg_.totalClients());
    p["nodes"] = static_cast<double>(cfg_.nodes());
    p["rate_hz"] = cfg_.ratePerClientHz;
    p["horizon_s"] = cfg_.horizonSec;
    p["read_fraction"] = cfg_.readFraction;
    p["request_bytes"] = static_cast<double>(cfg_.requestBytes);
    p["arrival_seed"] = static_cast<double>(cfg_.seed);
    return JsonValue(std::move(p));
  }

  std::size_t setupRepeats() const override { return 21; }

  void setup() override {
    Environment env = hcsim::makeEnvironment(hcsim::Site::Lassen, hcsim::StorageKind::Vast,
                                             cfg_.nodes(), nullptr);
    hcsim::workload::OpenLoopSource source(cfg_);
  }

  Pass run(Probe* probe) override {
    Pass pass;
    const auto t0 = Clock::now();
    std::optional<Environment> env;
    buildEnvironment(env, probe, hcsim::Site::Lassen, hcsim::StorageKind::Vast, cfg_.nodes(),
                     nullptr, nullptr);
    hcsim::workload::OpenLoopSource source(cfg_);
    hcsim::workload::WorkloadRunner runner(*env->bench, *env->fs);
    hcsim::workload::WorkloadOutcome out;
    if (probe != nullptr) {
      TracedSource traced(source, *probe);
      Span span(&probe->tracer, Layer::SimRun);
      out = runner.run(traced);
    } else {
      out = runner.run(source);
    }
    teardown(env, probe);
    pass.unitSec.push_back(since(t0));
    pass.trialSec = pass.unitSec;

    pass.attempted = out.opsIssued;
    pass.failed = out.opsFailed;
    pass.digest = {{"clients", static_cast<double>(out.clientsTotal()), true},
                   {"ops_issued", static_cast<double>(out.opsIssued), true},
                   {"ops_completed", static_cast<double>(out.opsCompleted), true},
                   {"goodput_gbs", out.goodputGBs(), false},
                   {"elapsed_s", out.elapsed, false}};
    if (out.clientsTotal() != cfg_.totalClients()) {
      pass.problems.push_back("simulated " + std::to_string(out.clientsTotal()) + " clients, not " +
                              std::to_string(cfg_.totalClients()));
    }
    if (out.opsIssued != out.opsCompleted + out.opsFailed) {
      pass.problems.push_back("ops issued " + std::to_string(out.opsIssued) +
                              " != completed + failed");
    }
    if (out.opsFailed != 0 || out.opsCompleted == 0 || !(out.goodputGBs() > 0.0)) {
      pass.problems.push_back("open-loop run failed ops or moved no data");
    }
    return pass;
  }

 private:
  hcsim::workload::OpenLoopConfig cfg_;
};

// ------------------------------------------------------------ failover_drills

/// The DAOS drill of the oracle's `daos.restore-converges` relation: a
/// saturated 4-node seq-write with target `target` failing at 2 s and
/// restored at 10 s, on DAOS's own transport fabric.
std::string daosDrill(std::size_t index, double ppn, double requestMiB, double target) {
  JsonObject workload;
  workload["nodes"] = 4.0;
  workload["procsPerNode"] = ppn;
  workload["access"] = "seq-write";
  workload["requestBytes"] = requestMiB * 1024.0 * 1024.0;
  JsonObject retry;
  retry["timeoutSec"] = 5.0;
  const auto event = [target](double at, const char* action) {
    JsonObject ev;
    ev["atSec"] = at;
    ev["action"] = action;
    ev["component"] = "target";
    ev["index"] = target;
    return JsonValue(std::move(ev));
  };
  JsonObject root;
  root["name"] = "daos-restore-" + std::to_string(index);
  root["site"] = "lassen";
  root["storage"] = "daos";
  root["workload"] = JsonValue(std::move(workload));
  root["horizonSec"] = 20.0;
  root["intervalSec"] = 2.0;
  root["retry"] = JsonValue(std::move(retry));
  root["events"] = JsonValue(JsonArray{event(2.0, "fail"), event(10.0, "restore")});
  return hcsim::writeJson(JsonValue(std::move(root)));
}

/// Closed-loop write fault drills on the `hcsim chaos` spec path: four
/// DAOS target fail/restore drills (every ppn x request-size shape once,
/// in seeded order, on a seeded target) and the VAST CNode failover
/// example.
class FailoverDrills final : public Workload {
 public:
  FailoverDrills(std::uint64_t seed, Size size, const std::string& dataDir) {
    struct Shape {
      double ppn;
      double requestMiB;
    };
    std::vector<Shape> shapes = {{8, 8}, {8, 16}, {10, 8}, {10, 16}};
    hcsim::Rng rng(seed);
    for (std::size_t i = shapes.size(); i > 1; --i) {
      std::swap(shapes[i - 1], shapes[static_cast<std::size_t>(rng.uniformInt(i))]);
    }
    if (size == Size::Smoke) shapes.resize(1);
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      const double target = static_cast<double>(rng.uniformInt(8));
      specTexts_.push_back(daosDrill(i, shapes[i].ppn, shapes[i].requestMiB, target));
    }
    const std::string path = dataDir + "/specs/cnode_failover.json";
    std::ifstream f(path);
    if (!f) throw std::runtime_error("perfbench: cannot read " + path);
    std::ostringstream text;
    text << f.rdbuf();
    specTexts_.push_back(text.str());
  }

  JsonValue params() const override {
    JsonArray drills;
    for (const std::string& text : specTexts_) drills.push_back(parseText(text));
    JsonObject p;
    p["drills"] = JsonValue(std::move(drills));
    return JsonValue(std::move(p));
  }

  std::size_t setupRepeats() const override { return 11; }

  void setup() override {
    for (const std::string& text : specTexts_) {
      hcsim::chaos::ChaosSpec spec = parse(text, nullptr);
      std::optional<Environment> env;
      buildEnvironment(env, nullptr, spec.site, spec.storage, spec.workload.nodes,
                       nonNull(spec.storageConfig), nonNull(spec.transport));
      validate(spec, *env, nullptr);
    }
  }

  Pass run(Probe* probe) override {
    Pass pass;
    double opsCompleted = 0.0;
    double sumMeanGBs = 0.0;
    double sumRecoverSec = 0.0;
    for (const std::string& text : specTexts_) {
      const auto td = Clock::now();
      const hcsim::chaos::ChaosSpec spec = parse(text, probe);
      std::optional<Environment> env;
      buildEnvironment(env, probe, spec.site, spec.storage, spec.workload.nodes,
                       nonNull(spec.storageConfig), nonNull(spec.transport));
      validate(spec, *env, probe);
      hcsim::chaos::ChaosOutcome out;
      {
        Span span(probe ? &probe->tracer : nullptr, Layer::SimRun);
        out = hcsim::chaos::runChaosOn(*env, spec);
      }
      {
        Span span(probe ? &probe->tracer : nullptr, Layer::Sink);
        const std::size_t bytes = hcsim::chaos::renderTimeline(out).toString().size() +
                                  hcsim::chaos::toJsonl(out).size();
        if (probe != nullptr) probe->counts.sinkBytes += bytes;
      }
      if (probe != nullptr) {
        probe->counts.chaosRetries += out.retries;
        probe->counts.lateCompletions += out.lateCompletions;
        probe->counts.failedOps += out.failedOps;
      }
      teardown(env, probe);
      pass.trialSec.push_back(since(td));

      const double ops = static_cast<double>(out.foregroundBytes / spec.workload.requestBytes);
      opsCompleted += ops;
      sumMeanGBs += out.meanGBs;
      sumRecoverSec += out.timeToRecover;
      pass.attempted += static_cast<std::uint64_t>(ops) + out.failedOps;
      pass.failed += out.failedOps;
      check(spec, out, pass);
    }
    pass.unitSec = pass.trialSec;
    pass.digest = {{"drills", static_cast<double>(specTexts_.size()), true},
                   {"ops_completed", opsCompleted, false},
                   {"sum_mean_gbs", sumMeanGBs, false},
                   {"sum_time_to_recover_s", sumRecoverSec, false}};
    return pass;
  }

 private:
  static hcsim::chaos::ChaosSpec parse(const std::string& text, Probe* probe) {
    Span span(probe ? &probe->tracer : nullptr, Layer::Config);
    hcsim::chaos::ChaosSpec spec;
    std::string error;
    if (!hcsim::chaos::parseChaosSpec(parseText(text), spec, error)) {
      throw std::runtime_error("perfbench: drill spec: " + error);
    }
    return spec;
  }

  static void validate(const hcsim::chaos::ChaosSpec& spec, const Environment& env, Probe* probe) {
    Span span(probe ? &probe->tracer : nullptr, Layer::Config);
    const std::vector<std::string> problems =
        hcsim::chaos::validateSchedule(spec, *env.fs, env.bench->topo());
    if (!problems.empty()) {
      throw std::runtime_error("perfbench: drill '" + spec.name + "': " + problems.front());
    }
  }

  /// A drill fails no op, moves whole requests, and after the last
  /// restore some slice regains >= 97% of the healthy goodput.
  static void check(const hcsim::chaos::ChaosSpec& spec, const hcsim::chaos::ChaosOutcome& out,
                    Pass& pass) {
    const std::string who = "drill '" + spec.name + "': ";
    if (out.failedOps != 0) pass.problems.push_back(who + "failed ops");
    if (out.foregroundBytes == 0 || out.foregroundBytes % spec.workload.requestBytes != 0) {
      pass.problems.push_back(who + "moved no data or a partial request");
    }
    double lastRestore = -1.0;
    for (const hcsim::chaos::ChaosEvent& ev : spec.events) {
      if (ev.fault.action == hcsim::FaultAction::Restore) {
        lastRestore = std::max(lastRestore, ev.at);
      }
    }
    double best = 0.0;
    for (const hcsim::chaos::IntervalSample& s : out.timeline) {
      if (s.start >= lastRestore - 1e-9) best = std::max(best, s.gbs);
    }
    if (!(out.healthyGBs > 0.0) || best < 0.97 * out.healthyGBs) {
      pass.problems.push_back(who + "did not recover to 97% of healthy goodput");
    }
  }

  std::vector<std::string> specTexts_;
};

}  // namespace

std::unique_ptr<Workload> makeWorkload(const std::string& name, std::uint64_t seed, Size size,
                                       const std::string& dataDir) {
  if (name == "sweep_small") return std::make_unique<SweepSmall>(seed, size);
  if (name == "scale_1m") return std::make_unique<Scale1m>(seed, size);
  if (name == "failover_drills") return std::make_unique<FailoverDrills>(seed, size, dataDir);
  return nullptr;
}

}  // namespace perfbench
