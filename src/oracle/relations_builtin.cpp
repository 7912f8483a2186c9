// The built-in metamorphic catalog: the paper's relative claims — VAST
// random~=sequential, GPFS cache cliffs, Lustre striping scaling, NVMe
// locality — stated as relations over seeded config generators. Every
// relation must keep holding as the models are refactored; a violated
// one names its axis and shrinks to the minimal failing config.
//
// Each relation is one row of the table in rows(): a seeded base (a
// ConfigGenerator and access pattern for IOR rows, else a scenario),
// edits that turn the base into the variants, and one of four verdict
// shapes — monotone, ratio, identical and recoversAfterRestore. Plain
// code is kept for what no shape states: the three physical ceilings,
// the reseed tolerance and the per-client share.

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "config/paths.hpp"
#include "oracle/generator.hpp"
#include "oracle/relation.hpp"
#include "sweep/sweep_spec.hpp"
#include "util/random.hpp"
#include "util/units.hpp"

namespace hcsim::oracle {

namespace {

using sweep::TrialMetrics;
using Verdict = decltype(MetamorphicRelation::verdict);
using BaseFn = std::function<JsonValue(std::uint64_t seed)>;

// ---- variants: edits on a seeded base ----
/// One config edit: `path` set to `value`, or to derive(base, seed) when
/// the value depends on the seeded base.
struct Edit {
  std::string path;
  JsonValue value;
  std::function<double(const JsonValue& base, std::uint64_t seed)> derive{};
};
using EditSet = std::vector<Edit>;

/// How a row's variants are made. With no `edits`, each of `values`
/// makes one variant: the base with `axis` set to it. Otherwise each
/// edit set makes one variant ({} is the base itself) and the cases
/// carry no axis, since the shrinker can only bisect a path it can set.
struct Variants {
  std::string axis{};
  std::vector<double> values{};
  bool integer = false;
  std::vector<EditSet> edits{};
};

void applyEdits(JsonValue& cfg, const EditSet& edits, const JsonValue& base,
                std::uint64_t seed) {
  for (const Edit& e : edits) {
    JsonValue value = e.derive ? JsonValue(e.derive(base, seed)) : sweep::deepCopy(e.value);
    sweep::jsonPathSet(cfg, e.path, std::move(value));
  }
}

/// One relation of the catalog. Its storage is the one its base names.
struct Row {
  std::string name;
  std::string experiment;
  RelationKind kind;
  std::string claim;
  BaseFn base;
  EditSet baseEdits;  ///< applied to the base itself
  Variants variants;
  Verdict verdict;
};

MetamorphicRelation compile(Row row) {
  MetamorphicRelation r;
  r.name = std::move(row.name);
  r.storage = row.base(0).stringOr("storage", "");
  r.experiment = std::move(row.experiment);
  r.kind = row.kind;
  r.integerAxis = row.variants.integer;
  r.claim = std::move(row.claim);
  // An axis row is one edit set per value, and only its cases name the axis.
  std::string caseAxis;
  if (row.variants.edits.empty()) {
    caseAxis = row.variants.axis;
    for (double value : row.variants.values) row.variants.edits.push_back({{caseAxis, value}});
  }
  r.generate = [base = std::move(row.base), baseEdits = std::move(row.baseEdits),
                edits = std::move(row.variants.edits), values = std::move(row.variants.values),
                caseAxis](std::uint64_t seed) {
    RelationCase c;
    c.base = base(seed);
    applyEdits(c.base, baseEdits, c.base, seed);
    c.axis = caseAxis;
    c.axisValues = values;
    for (const EditSet& set : edits) {
      JsonValue cfg = sweep::deepCopy(c.base);
      applyEdits(cfg, set, c.base, seed);
      c.variants.push_back(std::move(cfg));
    }
    return c;
  };
  r.verdict = std::move(row.verdict);
  return r;
}

// ---- verdict shapes ----
/// A TrialMetrics field a verdict reads, as its failure lines name it.
struct Metric {
  double TrialMetrics::*field;
  const char* name;
  const char* unit;
};
constexpr Metric kBandwidth{&TrialMetrics::meanGBs, "bandwidth", " GB/s"};
constexpr Metric kWorstSlice{&TrialMetrics::minGBs, "worst slice", " GB/s"};
constexpr Metric kBestSlice{&TrialMetrics::maxGBs, "best slice", " GB/s"};
constexpr Metric kElapsed{&TrialMetrics::elapsedSec, "elapsed time", " s"};
constexpr Metric kBytes{&TrialMetrics::bytesMoved, "byte count", ""};
constexpr Metric kOps{&TrialMetrics::opCount, "op count", ""};
constexpr Metric kP50{&TrialMetrics::opP50, "op p50", " s"};
constexpr Metric kP99{&TrialMetrics::opP99, "op p99", " s"};

/// Monotone: `metric` never falls by more than `slack` from one variant
/// to the next, in axis order.
Verdict monotone(Metric metric, double slack) {
  return [metric, slack](const RelationCase& c, const std::vector<TrialMetrics>& m) {
    for (std::size_t i = 0; i + 1 < m.size(); ++i) {
      const double from = m[i].*metric.field;
      const double to = m[i + 1].*metric.field;
      if (to < from * (1.0 - slack)) {
        std::ostringstream os;
        os << metric.name << " drops along '" << c.axis << "': " << from << metric.unit
           << " at " << c.axisValues[i] << " -> " << to << metric.unit << " at "
           << c.axisValues[i + 1];
        return CaseVerdict{false, os.str()};
      }
    }
    return CaseVerdict{};
  };
}

CaseVerdict ratioVerdict(double num, double den, double lo, double hi, const std::string& what) {
  const double ratio = den > 0.0 ? num / den : 0.0;
  if (ratio >= lo && ratio <= hi) return {};
  std::ostringstream os;
  os << what << ": ratio " << ratio << " outside [" << lo << ", " << hi << "] (" << num
     << " vs " << den << " GB/s)";
  return {false, os.str()};
}

/// Ratio: the second variant's bandwidth over the first's lies in
/// [lo, hi].
Verdict ratio(double lo, double hi, std::string what) {
  return [lo, hi, what = std::move(what)](const RelationCase&,
                                           const std::vector<TrialMetrics>& m) {
    return ratioVerdict(m[1].meanGBs, m[0].meanGBs, lo, hi, what);
  };
}

/// Identical: every variant agrees with the first, bit for bit, on each
/// of `metrics`.
Verdict identical(std::vector<Metric> metrics, std::string what) {
  return [metrics = std::move(metrics), what = std::move(what)](
             const RelationCase&, const std::vector<TrialMetrics>& m) {
    for (std::size_t k = 1; k < m.size(); ++k) {
      for (const Metric& metric : metrics) {
        const double first = m[0].*metric.field;
        const double other = m[k].*metric.field;
        if (other == first) continue;
        std::ostringstream os;
        os << what << ": " << metric.name << " " << first << metric.unit << " vs " << other
           << metric.unit << " (variant " << k << ")";
        return CaseVerdict{false, os.str()};
      }
    }
    return CaseVerdict{};
  };
}

/// Recovers after restore: against the healthy first variant, the
/// faulted second one's best timeline slice comes back to within 3% of
/// the healthy mean, and its worst slice shows a real dip.
CaseVerdict recoversAfterRestore(const RelationCase&, const std::vector<TrialMetrics>& m) {
  const double healthy = m[0].meanGBs;
  if (healthy <= 0.0) return CaseVerdict{false, "healthy run produced no bandwidth"};
  if (m[1].maxGBs < healthy * 0.97) {
    std::ostringstream os;
    os << "no recovery: best slice after restore " << m[1].maxGBs << " GB/s vs healthy mean "
       << healthy;
    return CaseVerdict{false, os.str()};
  }
  if (m[1].minGBs > healthy * 0.9) {
    std::ostringstream os;
    os << "no dip: worst slice " << m[1].minGBs << " GB/s vs healthy mean " << healthy
       << " — the fault did not bite";
    return CaseVerdict{false, os.str()};
  }
  return CaseVerdict{};
}

// ---- verdicts no shape states ----
/// Effective value of a knob for a trial: the storageConfig override
/// when present, else the site preset's serialized value.
double effective(const JsonValue& config, const JsonValue& preset, const std::string& knob) {
  return numberAtPath(config, "storageConfig." + knob, numberAtPath(preset, knob, 0.0));
}

/// Aggregate TCP bandwidth on Lassen/VAST never beats the gateway pool
/// or the client sessions.
CaseVerdict tcpCeiling(const RelationCase& c, const std::vector<TrialMetrics>& m) {
  const JsonValue preset = presetJson(Site::Lassen, StorageKind::Vast);
  const JsonValue& cfg = c.variants[0];
  const double gatewayBytes = effective(cfg, preset, "gateway.nodes") *
                              effective(cfg, preset, "gateway.linksPerNode") *
                              effective(cfg, preset, "gateway.linkBandwidth");
  const double sessionBytes = numberAtPath(cfg, "ior.nodes", 1.0) *
                              std::max(1.0, effective(cfg, preset, "nconnect")) *
                              effective(cfg, preset, "tcpSessionCap");
  const double ceilingGBs = units::toGBs(std::min(gatewayBytes, sessionBytes));
  if (m[0].meanGBs <= ceilingGBs * 1.02) return CaseVerdict{};
  std::ostringstream os;
  os << "aggregate " << m[0].meanGBs << " GB/s beats the physical ceiling " << ceilingGBs
     << " GB/s (gateway " << units::toGBs(gatewayBytes) << ", sessions "
     << units::toGBs(sessionBytes) << ")";
  return CaseVerdict{false, os.str()};
}

/// Deep queues on Wombat NVMe saturate near, and never beat, the
/// node-local drive pool.
CaseVerdict drivePool(const RelationCase& c, const std::vector<TrialMetrics>& m) {
  const JsonValue preset = presetJson(Site::Wombat, StorageKind::NvmeLocal);
  const JsonValue& cfg = c.variants[0];
  const double poolBytes = numberAtPath(cfg, "ior.nodes", 1.0) *
                           effective(cfg, preset, "drivesPerNode") *
                           effective(cfg, preset, "drive.readBandwidth");
  const double poolGBs = units::toGBs(poolBytes);
  if (m[0].meanGBs > poolGBs * 1.02) {
    std::ostringstream os;
    os << "aggregate " << m[0].meanGBs << " GB/s beats the drive pool " << poolGBs << " GB/s";
    return CaseVerdict{false, os.str()};
  }
  return ratioVerdict(m[0].meanGBs, poolGBs, 0.6, 1.02, "saturation vs drive pool at qd=32");
}

/// IOR moves every configured byte exactly once.
CaseVerdict bytesConserved(const RelationCase& c, const std::vector<TrialMetrics>& m) {
  const JsonValue& cfg = c.variants[0];
  const double expected = numberAtPath(cfg, "ior.segments", 0.0) *
                          numberAtPath(cfg, "ior.blockSize", static_cast<double>(units::MiB)) *
                          numberAtPath(cfg, "ior.nodes", 1.0) *
                          numberAtPath(cfg, "ior.procsPerNode", 1.0);
  if (std::abs(m[0].bytesMoved - expected) <= expected * 1e-9) return CaseVerdict{};
  std::ostringstream os;
  os << "moved " << m[0].bytesMoved << " bytes, config demands " << expected;
  return CaseVerdict{false, os.str()};
}

/// The same config twice agrees bit for bit, and with noise off a
/// reseeded third run moves bandwidth by at most 1e-9.
Verdict reseedInert() {
  const Verdict same = identical({kBandwidth, kElapsed, kBytes},
                                 "two runs of the identical config disagree");
  return [same](const RelationCase& c, const std::vector<TrialMetrics>& m) {
    if (CaseVerdict v = same(c, {m[0], m[1]}); !v.pass) return v;
    const double rel = std::abs(m[2].meanGBs - m[0].meanGBs) / std::max(m[0].meanGBs, 1e-12);
    if (rel > 1e-9) {
      std::ostringstream os;
      os << "reseeding with noiseStdDevFrac=0 moved bandwidth by " << rel * 100 << "%";
      return CaseVerdict{false, os.str()};
    }
    return CaseVerdict{};
  };
}

/// Aggregate goodput is monotone in the member count, and the per-client
/// share never grows by more than 7% a step.
Verdict goodputAndShare() {
  const Verdict goodput = monotone(kBandwidth, 0.07);
  return [goodput](const RelationCase& c, const std::vector<TrialMetrics>& m) {
    if (CaseVerdict v = goodput(c, m); !v.pass) return v;
    for (std::size_t i = 0; i + 1 < m.size(); ++i) {
      const double shareA = m[i].meanGBs / c.axisValues[i];
      const double shareB = m[i + 1].meanGBs / c.axisValues[i + 1];
      if (shareB > shareA * (1.0 + 0.07)) {
        std::ostringstream os;
        os << "per-client share grows along '" << c.axis << "': " << shareA
           << " GB/s/client at " << c.axisValues[i] << " members -> " << shareB << " at "
           << c.axisValues[i + 1];
        return CaseVerdict{false, os.str()};
      }
    }
    return CaseVerdict{};
  };
}

// ---- seeded bases and derived values ----
/// A JSON literal of this file.
JsonValue parsed(const std::string& text) {
  JsonValue j;
  if (!parseJson(text, j)) throw std::logic_error("oracle: malformed built-in scenario");
  return j;
}

/// The base's IOR seed moved by a prime: a reseeded run.
double reseeded(const JsonValue& base, std::uint64_t) {
  return numberAtPath(base, "ior.seed", 1.0) + 7919.0;
}

double doubledSegments(const JsonValue& base, std::uint64_t) {
  return numberAtPath(base, "ior.segments", 1000.0) * 2.0;
}

/// 32 or 64 nodes: with 44 procs/node and 3000 segments, a working set
/// that dwarfs GPFS's resident cache core.
double collapseNodes(const JsonValue&, std::uint64_t seed) {
  Rng rng(seed ^ 0x5dd1e5u);
  return 32.0 * (1 + rng.uniformInt(2));
}

/// The base of an IOR row: `gen`'s seeded config at `access`.
BaseFn ior(ConfigGenerator gen, AccessPattern access) {
  return [gen = std::move(gen), access](std::uint64_t seed) { return gen.makeBase(seed, access); };
}

/// A small saturated fault drill: a 4-node seq-write hot enough that one
/// failed component moves the timeline. On VAST, 4 Lassen CNodes bind
/// (~4.6 GB/s of demand); on DAOS the 8-target pool does, and it needs
/// >= 8 procs/node, or a one-target outage barely registers.
JsonValue chaosBase(std::uint64_t seed, const std::string& storage) {
  const bool daos = storage == "daos";
  JsonValue base = parsed(R"({"site": "lassen", "horizonSec": 20, "intervalSec": 2,
                              "retry": {"timeoutSec": 5},
                              "workload": {"nodes": 4, "access": "seq-write"}})");
  sweep::jsonPathSet(base, "name", JsonValue(daos ? "oracle-daos-chaos" : "oracle-chaos"));
  sweep::jsonPathSet(base, "storage", JsonValue(storage));
  if (!daos) sweep::jsonPathSet(base, "storageConfig.cnodes", JsonValue(4.0));
  sweep::jsonPathSet(base, "workload.procsPerNode",
                     JsonValue(seed % 2 == 0 ? 8.0 : daos ? 10.0 : 6.0));
  sweep::jsonPathSet(base, "workload.requestBytes",
                     JsonValue(seed % 3 == 0 ? 8.0 * 1024 * 1024 : 16.0 * 1024 * 1024));
  return base;
}

/// A fault on `component` 0 at `atSec`; the severity is written for
/// fail-slow only.
JsonValue faultEvent(double atSec, const std::string& action, const char* component,
                     double severity = 1.0) {
  JsonObject ev;
  ev["atSec"] = atSec;
  ev["action"] = action;
  ev["component"] = component;
  ev["index"] = 0.0;
  if (action == "fail-slow") ev["severity"] = severity;
  return JsonValue(std::move(ev));
}

/// `component` 0 fails at 2 s and is restored at 10 s.
EditSet failThenRestore(const char* component) {
  return {{"events", JsonArray{faultEvent(2.0, "fail", component),
                               faultEvent(10.0, "restore", component)}}};
}

/// CNode 0 slows to `severity` of its health at 2 s.
EditSet failSlow(double severity) {
  return {{"events", JsonArray{faultEvent(2.0, "fail-slow", "cnode", severity)}}};
}

/// A small grammar-generator run: two bursts of writes with a compute
/// gap and a random-read drain — enough structure to exercise
/// expansion, per-rank rng state and the op-latency path, small enough
/// to stay fast at oracle case counts.
JsonValue grammarBase(std::uint64_t seed) {
  std::string text = R"({"name": "oracle-grammar", "site": "lassen", "storage": "vast",
      "workload": {"generator": "grammar", "nodes": 1, "fileBytes": 67108864,
                   "rules": {"main": [{"rule": "epoch", "repeat": 2}],
                             "epoch": ["burst", {"compute": 0.01}, "drain"],
                             "burst": [{"op": "write", "bytes": BURST, "count": 6,
                                        "pattern": "seq"}],
                             "drain": [{"op": "read", "bytes": 1048576, "count": 4,
                                        "pattern": "random"}]}}})";
  text.replace(text.find("BURST"), 5, seed % 3 == 0 ? "2097152" : "1048576");
  JsonValue base = parsed(text);
  sweep::jsonPathSet(base, "workload.procsPerNode", JsonValue(seed % 2 == 0 ? 4.0 : 2.0));
  sweep::jsonPathSet(base, "workload.seed", JsonValue(static_cast<double>(seed % 1000)));
  return base;
}

JsonValue openloopBase(std::uint64_t seed) {
  JsonValue base = parsed(R"({"name": "oracle-openloop", "site": "lassen", "storage": "vast",
      "workload": {"generator": "openloop", "clients": 4, "clientsPerNode": 2,
                   "ratePerClientHz": 10, "horizonSec": 4, "objects": 128,
                   "objectBytes": 4194304, "requestBytes": 131072, "readFraction": 0.9}})");
  sweep::jsonPathSet(base, "workload.zipfTheta", JsonValue(seed % 2 == 0 ? 0.99 : 0.6));
  sweep::jsonPathSet(base, "workload.seed", JsonValue(static_cast<double>(seed % 1000)));
  return base;
}

JsonValue io500Base(std::uint64_t seed) {
  JsonValue base = parsed(R"({"name": "oracle-io500", "site": "lassen", "storage": "vast",
      "workload": {"generator": "io500", "nodes": 1, "scale": 1, "easyOpsMedian": 8,
                   "hardOpsMedian": 16}})");
  sweep::jsonPathSet(base, "workload.procsPerNode", JsonValue(seed % 2 == 0 ? 4.0 : 2.0));
  sweep::jsonPathSet(base, "workload.seed", JsonValue(static_cast<double>(seed % 1000)));
  return base;
}

/// Base config for the scale relations: the open-loop population on
/// Lassen/VAST expressed as flow classes. nconnect is pinned to 1 so
/// every rank mounts over the same session path — the precondition for
/// partition invariance to be byte-exact (procs otherwise hash to
/// different CNode routes). clientsPerRank > 1 on every variant keeps
/// VAST reads on the deterministic fractional cache split.
JsonValue scaleOpenloopBase(std::uint64_t seed) {
  JsonValue base = openloopBase(seed);
  applyEdits(base,
             {{"name", "oracle-scale"},
              {"storageConfig.nconnect", 1.0},
              {"workload.clients", 1.0},
              {"workload.clientsPerNode", 1.0},
              {"workload.clientsPerRank", 12.0},
              {"workload.sharedStream", true},
              {"workload.horizonSec", 3.0}},
             base, seed);
  return base;
}

/// The same 12- or 24-client population as `classes` classes, on one
/// node: clientsPerNode tracks clients, so clientsPerNode *
/// clientsPerRank (the phase population) is constant.
EditSet asClasses(double classes) {
  const auto perRank = [classes](const JsonValue&, std::uint64_t seed) {
    return (seed % 2 == 0 ? 12.0 : 24.0) / classes;
  };
  return {{"workload.clients", classes},
          {"workload.clientsPerNode", classes},
          {"workload.clientsPerRank", {}, perRank}};
}

/// IOR-on-DAOS base for the transport relations. DAOS's data path always
/// rides the fabric, and its 8 x 6 GB/s target pool is fat enough that
/// the *endpoint profile* binds — on VAST the NFS-frontend session caps
/// bind first and would mask the fabric. seq-read keeps the RF-2 write
/// fan-out out, so the measured rate is one class per node.
JsonValue transportIorBase(std::uint64_t seed) {
  JsonValue base = parsed(R"({"site": "lassen", "storage": "daos",
      "ior": {"access": "seq-read", "nodes": 2, "procsPerNode": 4, "repetitions": 1}})");
  sweep::jsonPathSet(base, "ior.segments", JsonValue(seed % 3 == 0 ? 100.0 : 200.0));
  return base;
}

// ---- the catalog ----
std::vector<Row> rows() {
  // Knobs that are pattern-agnostic: perturbing them must not open a
  // random-vs-sequential gap.
  const ConfigGenerator wombatVast(Site::Wombat, StorageKind::Vast,
                                   {{"cnodes", 0.75, 1.5, true},
                                    {"nconnect", 0.5, 1.5, true},
                                    {"rdmaSessionCap", 0.75, 1.5, false},
                                    {"fabricLinkBandwidth", 0.75, 1.5, false}});
  const ConfigGenerator lassenVast(Site::Lassen, StorageKind::Vast,
                                   {{"cnodes", 0.75, 1.5, true},
                                    {"tcpSessionCap", 0.75, 1.5, false},
                                    {"gateway.linkBandwidth", 0.75, 1.5, false},
                                    {"fabricLinkBandwidth", 0.75, 1.5, false}});
  const ConfigGenerator lassenGpfs(Site::Lassen, StorageKind::Gpfs);
  const ConfigGenerator quartzLustre(Site::Quartz, StorageKind::Lustre);
  const ConfigGenerator wombatNvme(Site::Wombat, StorageKind::NvmeLocal);
  const auto vastDrill = [](std::uint64_t seed) { return chaosBase(seed, "vast"); };
  const EditSet randRead = {{"ior.access", "rand-read"}};
  const double GiB = static_cast<double>(units::GiB);
  const double TiB = static_cast<double>(units::TiB);
  const std::vector<Metric> runMetrics = {kBandwidth, kBytes, kElapsed, kOps, kP50, kP99};

  // name, experiment, kind, claim, base, base edits, variants, verdict
  return {
      // ---- VAST ----
      {"vast.random-read-tracks-sequential", "ior", RelationKind::Dominance,
       "Fig 2b: VAST random reads ~equal sequential reads (SCM/QLC + DNode cache)",
       ior(wombatVast, AccessPattern::SequentialRead), {}, {.edits = {{}, randRead}},
       ratio(0.7, 1.15, "rand-read vs seq-read on VAST")},
      {"vast.read-monotone-in-cnodes", "ior", RelationKind::Monotonic,
       "§V: read ceiling scales with CNode count until the fabric binds",
       ior(wombatVast, AccessPattern::SequentialRead), {},
       {.axis = "storageConfig.cnodes", .values = {2, 4, 8, 12}, .integer = true},
       monotone(kBandwidth, 0.02)},
      {"vast.write-monotone-in-nconnect", "ior", RelationKind::Monotonic,
       "§VII: nconnect multiplies NFS sessions; more sessions never slow writes",
       ior(wombatVast, AccessPattern::SequentialWrite), {},
       {.axis = "storageConfig.nconnect", .values = {1, 2, 4, 16}, .integer = true},
       monotone(kBandwidth, 0.02)},
      {"vast.tcp-gateway-caps-aggregate", "ior", RelationKind::Conservation,
       "Fig 2a: aggregate TCP bandwidth never beats the gateway pool or the sessions",
       ior(lassenVast, AccessPattern::SequentialRead), {}, {.edits = {{}}}, tcpCeiling},
      {"vast.determinism-under-reseed", "ior", RelationKind::Determinism,
       "identical configs reproduce bit-identically; with noise off the seed is inert",
       ior(wombatVast, AccessPattern::SequentialRead), {},
       {.edits = {{}, {}, {{"ior.seed", {}, reseeded}}}}, reseedInert()},
      // ---- GPFS ----
      // The collapse is a scale phenomenon: the working set must dwarf the
      // servers' resident cache core (the paper measures it at the top of
      // Fig 2a's range). The base pins cache-defeating geometry; the
      // storage knobs stay free.
      {"gpfs.sequential-dominates-random-read", "ior", RelationKind::Dominance,
       "§VII: GPFS loses ~90% of read bandwidth from sequential to random",
       ior(lassenGpfs, AccessPattern::SequentialRead),
       {{"ior.nodes", {}, collapseNodes}, {"ior.procsPerNode", 44}, {"ior.segments", 3000}},
       {.edits = {{}, randRead}}, ratio(0.0, 0.5, "rand-read vs seq-read on GPFS (must collapse)")},
      {"gpfs.random-read-monotone-in-pagepool", "ior", RelationKind::Monotonic,
       "§V: a bigger pagepool keeps a bigger resident core; hit ratio only grows",
       ior(lassenGpfs, AccessPattern::RandomRead), {},
       {.axis = "storageConfig.serverCacheBytes",
        .values = {128 * GiB, 512 * GiB, 2 * TiB, 8 * TiB}},
       monotone(kBandwidth, 0.02)},
      {"gpfs.write-scale-invariant-in-segments", "ior", RelationKind::ScaleInvariant,
       "steady-state bandwidth is volume-invariant: doubling segments moves nothing",
       ior(lassenGpfs, AccessPattern::SequentialWrite), {},
       {.edits = {{}, {{"ior.segments", {}, doubledSegments}}}},
       ratio(0.9, 1.1, "seq-write bandwidth at 2x segments")},
      {"gpfs.determinism", "ior", RelationKind::Determinism,
       "identical configs reproduce bit-identically",
       ior(lassenGpfs, AccessPattern::SequentialRead), {}, {.edits = {{}, {}}},
       identical({kBandwidth, kElapsed, kBytes}, "two runs of the identical config disagree")},
      // ---- Lustre ----
      {"lustre.read-monotone-in-stripe-count", "ior", RelationKind::Monotonic,
       "Fig 3b/3c: striping over more OSTs never reduces bandwidth",
       ior(quartzLustre, AccessPattern::SequentialRead), {},
       {.axis = "storageConfig.stripeCount", .values = {1, 2, 4, 8}, .integer = true},
       monotone(kBandwidth, 0.02)},
      {"lustre.read-monotone-in-oss-count", "ior", RelationKind::Monotonic,
       "§IV-B: a bigger OSS pool never serves reads slower",
       ior(quartzLustre, AccessPattern::SequentialRead), {},
       {.axis = "storageConfig.ossCount", .values = {9, 18, 36}, .integer = true},
       monotone(kBandwidth, 0.02)},
      {"lustre.bytes-conserved", "ior", RelationKind::Conservation,
       "every configured byte is moved exactly once: segments x block x ranks",
       ior(quartzLustre, AccessPattern::SequentialWrite), {}, {.edits = {{}}}, bytesConserved},
      {"lustre.determinism", "ior", RelationKind::Determinism,
       "identical configs reproduce bit-identically",
       ior(quartzLustre, AccessPattern::SequentialRead), {}, {.edits = {{}, {}}},
       identical({kBandwidth, kElapsed, kBytes}, "two runs of the identical config disagree")},
      // ---- node-local NVMe ----
      {"nvme.read-monotone-in-queue-depth", "ior", RelationKind::Monotonic,
       "more concurrent readers never reduce aggregate local bandwidth",
       ior(wombatNvme, AccessPattern::SequentialRead), {},
       {.axis = "ior.procsPerNode", .values = {1, 2, 4, 8, 16, 32}, .integer = true},
       monotone(kBandwidth, 0.02)},
      {"nvme.reads-saturate-at-device-pool", "ior", RelationKind::Conservation,
       "Fig 2b: deep queues saturate near (and never beat) the per-node drive pool",
       ior(wombatNvme, AccessPattern::SequentialRead), {{"ior.procsPerNode", 32}},
       {.edits = {{}}}, drivePool},
      {"nvme.per-node-invariant-in-nodes", "ior", RelationKind::ScaleInvariant,
       "Fig 2b: node-local I/O never crosses the network; per-node bandwidth is flat",
       ior(wombatNvme, AccessPattern::SequentialRead), {{"ior.nodes", 1}},
       {.edits = {{}, {{"ior.nodes", 4}}}},
       ratio(3.8, 4.2, "bandwidth at 4 nodes vs 1 node (4x is flat per node)")},
      {"nvme.determinism", "ior", RelationKind::Determinism,
       "identical configs reproduce bit-identically",
       ior(wombatNvme, AccessPattern::SequentialRead), {}, {.edits = {{}, {}}},
       identical({kBandwidth, kElapsed, kBytes}, "two runs of the identical config disagree")},
      // ---- chaos (fault scenarios on VAST) ----
      {"chaos.empty-schedule-steady", "chaos", RelationKind::Determinism,
       "an empty fault schedule is a no-op: two identical event-free scenario runs agree "
       "bit-for-bit, so the chaos layer costs nothing until a fault actually fires",
       vastDrill, {}, {.edits = {{}, {}}},
       identical({kBandwidth, kWorstSlice, kBestSlice, kBytes},
                 "identical event-free scenarios disagree")},
      {"chaos.restore-converges", "chaos", RelationKind::Dominance,
       "fail-then-restore converges: after the failed CNode comes back the best timeline "
       "slice returns to within 3% of the healthy run's mean, while the outage slice shows "
       "a real dip",
       vastDrill, {}, {.edits = {{}, failThenRestore("cnode")}}, recoversAfterRestore},
      // The severity lives inside the events array, which jsonPathSet
      // cannot reach, so the cases carry no axis and the shrinker skips
      // this one.
      {"chaos.fail-slow-monotone-in-severity", "chaos", RelationKind::Monotonic,
       "a deeper fail-slow is monotonically worse: timeline mean bandwidth is "
       "non-decreasing in the slowed CNode's remaining health fraction",
       vastDrill, {},
       {.values = {0.25, 0.5, 0.75}, .edits = {failSlow(0.25), failSlow(0.5), failSlow(0.75)}},
       monotone(kBandwidth, 0.02)},
      // ---- workload generators ----
      {"workload.grammar-seed-determinism", "workload", RelationKind::Determinism,
       "a grammar workload is a pure function of its spec: two runs of the same expanded "
       "grammar at the same seed agree bit-for-bit, down to the per-op latency percentiles",
       grammarBase, {}, {.edits = {{}, {}}},
       identical(runMetrics, "identical grammar specs disagree")},
      {"workload.openloop-rate-monotone", "workload", RelationKind::Monotonic,
       "open-loop arrivals are demand-driven: raising the per-client arrival rate over a "
       "fixed horizon moves at least as many bytes (queues may grow, but completed work "
       "cannot shrink)",
       openloopBase, {}, {.axis = "workload.ratePerClientHz", .values = {10.0, 25.0, 50.0}},
       monotone(kBytes, 0.05)},
      {"workload.io500-scale-invariant", "workload", RelationKind::Dominance,
       "io500 'scale' grows per-rank op counts without changing per-op geometry, so "
       "steady-state bandwidth is scale-invariant: doubling the working set leaves GB/s "
       "within a tight band",
       io500Base, {}, {.edits = {{}, {{"workload.scale", 2.0}}}},
       ratio(0.7, 1.4, "io500 bandwidth at scale 2 vs scale 1")},
      // ---- flow-class scale ----
      {"scale.class-partition-invariance", "workload", RelationKind::Determinism,
       "a flow class is a pure aggregation: splitting a shared-stream class of 2N members "
       "into two classes of N (same total population, same arrival draws) changes no "
       "metric, down to the per-op latency percentiles",
       scaleOpenloopBase, {}, {.edits = {asClasses(1), asClasses(2), asClasses(4)}},
       identical(runMetrics, "partitioning the population into classes changed the run")},
      {"scale.client-count-monotone", "workload", RelationKind::Monotonic,
       "adding clients to a class never shrinks the system: aggregate goodput is "
       "non-decreasing in the member count (it saturates at capacity), while the "
       "per-client share is non-increasing (fair shares dilute, they are never minted)",
       scaleOpenloopBase, {{"workload.clients", 4.0}, {"workload.clientsPerNode", 4.0}},
       {.axis = "workload.clientsPerRank", .values = {2.0, 8.0, 32.0, 128.0}, .integer = true},
       goodputAndShare()},
      // ---- transport (NIC/endpoint fabric, exercised through DAOS) ----
      // streams >= lanes on every variant, so each added lane is usable.
      {"transport.nconnect-monotone", "ior", RelationKind::Monotonic,
       "§VII nconnect: more TCP connection lanes never slow an endpoint-bound client — "
       "each lane adds an independent ~1.15 GB/s stream until another resource binds",
       transportIorBase, {{"ior.procsPerNode", 8.0}, {"transport.kind", "tcp"}},
       {.axis = "transport.lanes", .values = {1.0, 2.0, 4.0, 8.0}, .integer = true},
       monotone(kBandwidth, 0.02)},
      {"transport.rdma-dominates-tcp", "ior", RelationKind::Dominance,
       "Fig 1/§V: the full RDMA endpoint beats the single NFS/TCP session by ~8x at 4 "
       "procs/node (4 usable QPs x ~2.5 GB/s vs one ~1.15 GB/s stream) — the gap emerges "
       "from per-op costs and lane counts, it is not a configured ratio",
       transportIorBase, {},
       {.edits = {{{"transport.kind", "tcp"}}, {{"transport.kind", "rdma"}}}},
       ratio(6.4, 9.6, "rdma vs tcp endpoint preset on DAOS")},
      // ---- DAOS ----
      {"daos.empty-transport-identity", "ior", RelationKind::Determinism,
       "an empty \"transport\" section is the identity: it overrides nothing on the "
       "model's declared RDMA profile, so the run with {} agrees bit-for-bit with the run "
       "with no section at all",
       transportIorBase, {}, {.edits = {{}, {{"transport", JsonObject{}}}}},
       identical({kBandwidth, kWorstSlice, kBestSlice, kElapsed, kBytes},
                 "an empty transport section changed the run")},
      {"daos.restore-converges", "chaos", RelationKind::Dominance,
       "fail-then-restore on a DAOS target converges: after the target rejoins placement "
       "the best timeline slice returns to within 3% of the healthy run's mean, while the "
       "outage slice shows a real dip from the stalled bulk transfers and lost capacity",
       [](std::uint64_t seed) { return chaosBase(seed, "daos"); }, {},
       {.edits = {{}, failThenRestore("target")}}, recoversAfterRestore},
  };
}

}  // namespace

const RelationRegistry& RelationRegistry::builtin() {
  static const RelationRegistry registry = [] {
    RelationRegistry reg;
    for (Row& row : rows()) reg.add(compile(std::move(row)));
    return reg;
  }();
  return registry;
}

}  // namespace hcsim::oracle
