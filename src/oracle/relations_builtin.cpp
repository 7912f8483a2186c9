// The built-in metamorphic catalog: the paper's relative claims — VAST
// random~=sequential, GPFS cache cliffs, Lustre striping scaling, NVMe
// locality — stated as relations over seeded config generators. Every
// relation must keep holding as the models are refactored; a violated
// one names its axis and shrinks to the minimal failing config.

#include <cmath>
#include <sstream>

#include "config/paths.hpp"
#include "oracle/generator.hpp"
#include "oracle/relation.hpp"
#include "sweep/sweep_spec.hpp"
#include "util/random.hpp"
#include "util/units.hpp"

namespace hcsim::oracle {

namespace {

using sweep::TrialMetrics;

/// Effective value of a knob for a trial: the storageConfig override
/// when present, else the site preset's serialized value.
double effective(const JsonValue& config, const JsonValue& preset, const std::string& knob) {
  return numberAtPath(config, "storageConfig." + knob, numberAtPath(preset, knob, 0.0));
}

RelationCase axisCase(const ConfigGenerator& gen, std::uint64_t seed, AccessPattern access,
                      const std::string& axis, std::vector<double> values) {
  RelationCase c;
  c.base = gen.makeBase(seed, access);
  c.axis = axis;
  c.axisValues = std::move(values);
  for (double v : c.axisValues) {
    JsonValue cfg = sweep::deepCopy(c.base);
    sweep::jsonPathSet(cfg, axis, JsonValue(v));
    c.variants.push_back(std::move(cfg));
  }
  return c;
}

CaseVerdict monotoneVerdict(const RelationCase& c, const std::vector<TrialMetrics>& m,
                            double slack) {
  for (std::size_t i = 0; i + 1 < m.size(); ++i) {
    if (m[i + 1].meanGBs < m[i].meanGBs * (1.0 - slack)) {
      std::ostringstream os;
      os << "bandwidth drops along '" << c.axis << "': " << m[i].meanGBs << " GB/s at "
         << c.axisValues[i] << " -> " << m[i + 1].meanGBs << " GB/s at " << c.axisValues[i + 1];
      return {false, os.str()};
    }
  }
  return {};
}

CaseVerdict ratioVerdict(double num, double den, double lo, double hi, const std::string& what) {
  const double ratio = den > 0.0 ? num / den : 0.0;
  if (ratio >= lo && ratio <= hi) return {};
  std::ostringstream os;
  os << what << ": ratio " << ratio << " outside [" << lo << ", " << hi << "] (" << num
     << " vs " << den << " GB/s)";
  return {false, os.str()};
}

MetamorphicRelation makeMonotonic(std::string name, std::string storage, ConfigGenerator gen,
                                  AccessPattern access, std::string axis, bool integerAxis,
                                  std::vector<double> values, double slack, std::string claim) {
  MetamorphicRelation r;
  r.name = std::move(name);
  r.storage = std::move(storage);
  r.kind = RelationKind::Monotonic;
  r.axis = axis;
  r.integerAxis = integerAxis;
  r.slack = slack;
  r.claim = std::move(claim);
  r.generate = [gen = std::move(gen), access, axis = std::move(axis),
                values = std::move(values)](std::uint64_t seed) {
    return axisCase(gen, seed, access, axis, values);
  };
  r.verdict = [slack](const RelationCase& c, const std::vector<TrialMetrics>& m) {
    return monotoneVerdict(c, m, slack);
  };
  return r;
}

// ---- VAST ----

void addVastRelations(RelationRegistry& reg) {
  // Knobs that are pattern-agnostic: perturbing them must not open a
  // random-vs-sequential gap.
  const ConfigGenerator wombat(Site::Wombat, StorageKind::Vast,
                               {{"cnodes", 0.75, 1.5, true},
                                {"nconnect", 0.5, 1.5, true},
                                {"rdmaSessionCap", 0.75, 1.5, false},
                                {"fabricLinkBandwidth", 0.75, 1.5, false}});

  {
    MetamorphicRelation r;
    r.name = "vast.random-read-tracks-sequential";
    r.storage = "vast";
    r.kind = RelationKind::Dominance;
    r.claim = "Fig 2b: VAST random reads ~equal sequential reads (SCM/QLC + DNode cache)";
    r.generate = [wombat](std::uint64_t seed) {
      RelationCase c;
      c.base = wombat.makeBase(seed, AccessPattern::SequentialRead);
      c.variants.push_back(sweep::deepCopy(c.base));
      JsonValue rand = sweep::deepCopy(c.base);
      sweep::jsonPathSet(rand, "ior.access", JsonValue("rand-read"));
      c.variants.push_back(std::move(rand));
      return c;
    };
    r.verdict = [](const RelationCase&, const std::vector<TrialMetrics>& m) {
      return ratioVerdict(m[1].meanGBs, m[0].meanGBs, 0.7, 1.15,
                          "rand-read vs seq-read on VAST");
    };
    reg.add(std::move(r));
  }

  reg.add(makeMonotonic(
      "vast.read-monotone-in-cnodes", "vast", wombat, AccessPattern::SequentialRead,
      "storageConfig.cnodes", true, {2, 4, 8, 12}, 0.02,
      "§V: read ceiling scales with CNode count until the fabric binds"));

  reg.add(makeMonotonic(
      "vast.write-monotone-in-nconnect", "vast", wombat, AccessPattern::SequentialWrite,
      "storageConfig.nconnect", true, {1, 2, 4, 16}, 0.02,
      "§VII: nconnect multiplies NFS sessions; more sessions never slow writes"));

  {
    const ConfigGenerator lassen(Site::Lassen, StorageKind::Vast,
                                 {{"cnodes", 0.75, 1.5, true},
                                  {"tcpSessionCap", 0.75, 1.5, false},
                                  {"gateway.linkBandwidth", 0.75, 1.5, false},
                                  {"fabricLinkBandwidth", 0.75, 1.5, false}});
    MetamorphicRelation r;
    r.name = "vast.tcp-gateway-caps-aggregate";
    r.storage = "vast";
    r.kind = RelationKind::Conservation;
    r.claim = "Fig 2a: aggregate TCP bandwidth never beats the gateway pool or the sessions";
    r.generate = [lassen](std::uint64_t seed) {
      RelationCase c;
      c.base = lassen.makeBase(seed, AccessPattern::SequentialRead);
      c.variants.push_back(sweep::deepCopy(c.base));
      return c;
    };
    const JsonValue preset = presetJson(Site::Lassen, StorageKind::Vast);
    r.verdict = [preset](const RelationCase& c, const std::vector<TrialMetrics>& m) {
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
    };
    reg.add(std::move(r));
  }

  {
    MetamorphicRelation r;
    r.name = "vast.determinism-under-reseed";
    r.storage = "vast";
    r.kind = RelationKind::Determinism;
    r.claim = "identical configs reproduce bit-identically; with noise off the seed is inert";
    r.generate = [wombat](std::uint64_t seed) {
      RelationCase c;
      c.base = wombat.makeBase(seed, AccessPattern::SequentialRead);
      c.variants.push_back(sweep::deepCopy(c.base));
      c.variants.push_back(sweep::deepCopy(c.base));
      JsonValue reseeded = sweep::deepCopy(c.base);
      sweep::jsonPathSet(reseeded, "ior.seed",
                         JsonValue(numberAtPath(c.base, "ior.seed", 1.0) + 7919.0));
      c.variants.push_back(std::move(reseeded));
      return c;
    };
    r.verdict = [](const RelationCase&, const std::vector<TrialMetrics>& m) {
      if (m[0].meanGBs != m[1].meanGBs || m[0].elapsedSec != m[1].elapsedSec ||
          m[0].bytesMoved != m[1].bytesMoved) {
        return CaseVerdict{false, "two runs of the identical config disagree"};
      }
      const double rel = std::abs(m[2].meanGBs - m[0].meanGBs) / std::max(m[0].meanGBs, 1e-12);
      if (rel > 1e-9) {
        std::ostringstream os;
        os << "reseeding with noiseStdDevFrac=0 moved bandwidth by " << rel * 100 << "%";
        return CaseVerdict{false, os.str()};
      }
      return CaseVerdict{};
    };
    reg.add(std::move(r));
  }
}

// ---- GPFS ----

void addGpfsRelations(RelationRegistry& reg) {
  const ConfigGenerator lassen(Site::Lassen, StorageKind::Gpfs);

  {
    MetamorphicRelation r;
    r.name = "gpfs.sequential-dominates-random-read";
    r.storage = "gpfs";
    r.kind = RelationKind::Dominance;
    r.claim = "§VII: GPFS loses ~90% of read bandwidth from sequential to random";
    r.generate = [lassen](std::uint64_t seed) {
      RelationCase c;
      c.base = lassen.makeBase(seed, AccessPattern::SequentialRead);
      // The collapse is a scale phenomenon: the working set must dwarf
      // the servers' resident cache core (the paper measures it at the
      // top of Fig 2a's range). Pin cache-defeating geometry; the
      // storage knobs stay free.
      Rng rng(seed ^ 0x5dd1e5u);
      sweep::jsonPathSet(c.base, "ior.nodes", JsonValue(32.0 * (1 + rng.uniformInt(2))));
      sweep::jsonPathSet(c.base, "ior.procsPerNode", JsonValue(44));
      sweep::jsonPathSet(c.base, "ior.segments", JsonValue(3000));
      c.variants.push_back(sweep::deepCopy(c.base));
      JsonValue rand = sweep::deepCopy(c.base);
      sweep::jsonPathSet(rand, "ior.access", JsonValue("rand-read"));
      c.variants.push_back(std::move(rand));
      return c;
    };
    r.verdict = [](const RelationCase&, const std::vector<TrialMetrics>& m) {
      return ratioVerdict(m[1].meanGBs, m[0].meanGBs, 0.0, 0.5,
                          "rand-read vs seq-read on GPFS (must collapse)");
    };
    reg.add(std::move(r));
  }

  reg.add(makeMonotonic(
      "gpfs.random-read-monotone-in-pagepool", "gpfs", lassen, AccessPattern::RandomRead,
      "storageConfig.serverCacheBytes", false,
      {static_cast<double>(128 * units::GiB), static_cast<double>(512 * units::GiB),
       static_cast<double>(2 * units::TiB), static_cast<double>(8 * units::TiB)},
      0.02, "§V: a bigger pagepool keeps a bigger resident core; hit ratio only grows"));

  {
    MetamorphicRelation r;
    r.name = "gpfs.write-scale-invariant-in-segments";
    r.storage = "gpfs";
    r.kind = RelationKind::ScaleInvariant;
    r.claim = "steady-state bandwidth is volume-invariant: doubling segments moves nothing";
    r.generate = [lassen](std::uint64_t seed) {
      RelationCase c;
      c.base = lassen.makeBase(seed, AccessPattern::SequentialWrite);
      c.variants.push_back(sweep::deepCopy(c.base));
      JsonValue doubled = sweep::deepCopy(c.base);
      sweep::jsonPathSet(doubled, "ior.segments",
                         JsonValue(numberAtPath(c.base, "ior.segments", 1000.0) * 2.0));
      c.variants.push_back(std::move(doubled));
      return c;
    };
    r.verdict = [](const RelationCase&, const std::vector<TrialMetrics>& m) {
      return ratioVerdict(m[1].meanGBs, m[0].meanGBs, 0.9, 1.1,
                          "seq-write bandwidth at 2x segments");
    };
    reg.add(std::move(r));
  }
}

// ---- Lustre ----

void addLustreRelations(RelationRegistry& reg) {
  const ConfigGenerator quartz(Site::Quartz, StorageKind::Lustre);

  reg.add(makeMonotonic(
      "lustre.read-monotone-in-stripe-count", "lustre", quartz, AccessPattern::SequentialRead,
      "storageConfig.stripeCount", true, {1, 2, 4, 8}, 0.02,
      "Fig 3b/3c: striping over more OSTs never reduces bandwidth"));

  reg.add(makeMonotonic(
      "lustre.read-monotone-in-oss-count", "lustre", quartz, AccessPattern::SequentialRead,
      "storageConfig.ossCount", true, {9, 18, 36}, 0.02,
      "§IV-B: a bigger OSS pool never serves reads slower"));

  {
    MetamorphicRelation r;
    r.name = "lustre.bytes-conserved";
    r.storage = "lustre";
    r.kind = RelationKind::Conservation;
    r.claim = "every configured byte is moved exactly once: segments x block x ranks";
    r.generate = [quartz](std::uint64_t seed) {
      RelationCase c;
      c.base = quartz.makeBase(seed, AccessPattern::SequentialWrite);
      c.variants.push_back(sweep::deepCopy(c.base));
      return c;
    };
    r.verdict = [](const RelationCase& c, const std::vector<TrialMetrics>& m) {
      const JsonValue& cfg = c.variants[0];
      const double expected = numberAtPath(cfg, "ior.segments", 0.0) *
                              numberAtPath(cfg, "ior.blockSize", static_cast<double>(units::MiB)) *
                              numberAtPath(cfg, "ior.nodes", 1.0) *
                              numberAtPath(cfg, "ior.procsPerNode", 1.0);
      if (std::abs(m[0].bytesMoved - expected) <= expected * 1e-9) return CaseVerdict{};
      std::ostringstream os;
      os << "moved " << m[0].bytesMoved << " bytes, config demands " << expected;
      return CaseVerdict{false, os.str()};
    };
    reg.add(std::move(r));
  }
}

// ---- node-local NVMe ----

void addNvmeRelations(RelationRegistry& reg) {
  const ConfigGenerator wombat(Site::Wombat, StorageKind::NvmeLocal);

  reg.add(makeMonotonic(
      "nvme.read-monotone-in-queue-depth", "nvme", wombat, AccessPattern::SequentialRead,
      "ior.procsPerNode", true, {1, 2, 4, 8, 16, 32}, 0.02,
      "more concurrent readers never reduce aggregate local bandwidth"));

  {
    MetamorphicRelation r;
    r.name = "nvme.reads-saturate-at-device-pool";
    r.storage = "nvme";
    r.kind = RelationKind::Conservation;
    r.claim = "Fig 2b: deep queues saturate near (and never beat) the per-node drive pool";
    r.generate = [wombat](std::uint64_t seed) {
      RelationCase c;
      c.base = wombat.makeBase(seed, AccessPattern::SequentialRead);
      sweep::jsonPathSet(c.base, "ior.procsPerNode", JsonValue(32));
      c.variants.push_back(sweep::deepCopy(c.base));
      return c;
    };
    const JsonValue preset = presetJson(Site::Wombat, StorageKind::NvmeLocal);
    r.verdict = [preset](const RelationCase& c, const std::vector<TrialMetrics>& m) {
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
    };
    reg.add(std::move(r));
  }

  {
    MetamorphicRelation r;
    r.name = "nvme.per-node-invariant-in-nodes";
    r.storage = "nvme";
    r.kind = RelationKind::ScaleInvariant;
    r.claim = "Fig 2b: node-local I/O never crosses the network; per-node bandwidth is flat";
    r.generate = [wombat](std::uint64_t seed) {
      RelationCase c;
      c.base = wombat.makeBase(seed, AccessPattern::SequentialRead);
      sweep::jsonPathSet(c.base, "ior.nodes", JsonValue(1));
      c.variants.push_back(sweep::deepCopy(c.base));
      JsonValue scaled = sweep::deepCopy(c.base);
      sweep::jsonPathSet(scaled, "ior.nodes", JsonValue(4));
      c.variants.push_back(std::move(scaled));
      return c;
    };
    r.verdict = [](const RelationCase&, const std::vector<TrialMetrics>& m) {
      return ratioVerdict(m[1].meanGBs / 4.0, m[0].meanGBs, 0.95, 1.05,
                          "per-node bandwidth at 4 nodes vs 1 node");
    };
    reg.add(std::move(r));
  }
}

// ---- chaos (fault scenarios on VAST) ----

/// A small saturated chaos scenario: 4 Lassen CNodes serving a 4-node
/// seq-write that demands ~4.6 GB/s, so the CNode write aggregate is the
/// binding constraint and any CNode fault moves the timeline.
JsonValue chaosBase(std::uint64_t seed) {
  JsonObject workload;
  workload["nodes"] = 4.0;
  workload["procsPerNode"] = seed % 2 == 0 ? 8.0 : 6.0;
  workload["access"] = "seq-write";
  workload["requestBytes"] = seed % 3 == 0 ? 8.0 * 1024 * 1024 : 16.0 * 1024 * 1024;
  JsonObject storageConfig;
  storageConfig["cnodes"] = 4.0;
  JsonObject retry;
  retry["timeoutSec"] = 5.0;
  JsonObject root;
  root["name"] = "oracle-chaos";
  root["site"] = "lassen";
  root["storage"] = "vast";
  root["storageConfig"] = JsonValue(std::move(storageConfig));
  root["workload"] = JsonValue(std::move(workload));
  root["horizonSec"] = 20.0;
  root["intervalSec"] = 2.0;
  root["retry"] = JsonValue(std::move(retry));
  return JsonValue(std::move(root));
}

JsonValue chaosEvent(double at, const std::string& action, double severity = 1.0) {
  JsonObject ev;
  ev["atSec"] = at;
  ev["action"] = action;
  ev["component"] = "cnode";
  ev["index"] = 0.0;
  if (action == "fail-slow") ev["severity"] = severity;
  return JsonValue(std::move(ev));
}

JsonValue withChaosEvents(const JsonValue& base, JsonArray events) {
  JsonValue cfg = sweep::deepCopy(base);
  (*cfg.object())["events"] = JsonValue(std::move(events));
  return cfg;
}

void addChaosRelations(RelationRegistry& reg) {
  {
    MetamorphicRelation r;
    r.name = "chaos.empty-schedule-steady";
    r.storage = "vast";
    r.experiment = "chaos";
    r.kind = RelationKind::Determinism;
    r.claim = "an empty fault schedule is a no-op: two identical event-free "
              "scenario runs agree bit-for-bit, so the chaos layer costs nothing "
              "until a fault actually fires";
    r.generate = [](std::uint64_t seed) {
      RelationCase c;
      c.base = chaosBase(seed);
      c.variants.push_back(sweep::deepCopy(c.base));
      c.variants.push_back(sweep::deepCopy(c.base));
      return c;
    };
    r.verdict = [](const RelationCase&, const std::vector<TrialMetrics>& m) {
      if (m[0].meanGBs == m[1].meanGBs && m[0].minGBs == m[1].minGBs &&
          m[0].maxGBs == m[1].maxGBs && m[0].bytesMoved == m[1].bytesMoved) {
        return CaseVerdict{};
      }
      std::ostringstream os;
      os << "identical event-free scenarios disagree: " << m[0].meanGBs << " vs " << m[1].meanGBs
         << " GB/s (bytes " << m[0].bytesMoved << " vs " << m[1].bytesMoved << ")";
      return CaseVerdict{false, os.str()};
    };
    reg.add(std::move(r));
  }
  {
    MetamorphicRelation r;
    r.name = "chaos.restore-converges";
    r.storage = "vast";
    r.experiment = "chaos";
    r.kind = RelationKind::Dominance;
    r.claim = "fail-then-restore converges: after the failed CNode comes back the "
              "best timeline slice returns to within 3% of the healthy run's mean, "
              "while the outage slice shows a real dip";
    r.generate = [](std::uint64_t seed) {
      RelationCase c;
      c.base = chaosBase(seed);
      c.variants.push_back(sweep::deepCopy(c.base));
      JsonArray events;
      events.push_back(chaosEvent(2.0, "fail"));
      events.push_back(chaosEvent(10.0, "restore"));
      c.variants.push_back(withChaosEvents(c.base, std::move(events)));
      return c;
    };
    r.verdict = [](const RelationCase&, const std::vector<TrialMetrics>& m) {
      const double healthy = m[0].meanGBs;
      if (healthy <= 0.0) return CaseVerdict{false, "healthy run produced no bandwidth"};
      if (m[1].maxGBs < healthy * 0.97) {
        std::ostringstream os;
        os << "no recovery: best slice after restore " << m[1].maxGBs
           << " GB/s vs healthy mean " << healthy;
        return CaseVerdict{false, os.str()};
      }
      if (m[1].minGBs > healthy * 0.9) {
        std::ostringstream os;
        os << "no dip: worst slice " << m[1].minGBs << " GB/s vs healthy mean " << healthy
           << " — the fault did not bite";
        return CaseVerdict{false, os.str()};
      }
      return CaseVerdict{};
    };
    reg.add(std::move(r));
  }
  {
    MetamorphicRelation r;
    r.name = "chaos.fail-slow-monotone-in-severity";
    r.storage = "vast";
    r.experiment = "chaos";
    r.kind = RelationKind::Monotonic;
    // axis stays empty: the severity lives inside the events array, which
    // jsonPathSet cannot reach, so the shrinker correctly skips this one.
    r.slack = 0.02;
    r.claim = "a deeper fail-slow is monotonically worse: timeline mean bandwidth "
              "is non-decreasing in the slowed CNode's remaining health fraction";
    r.generate = [](std::uint64_t seed) {
      RelationCase c;
      c.base = chaosBase(seed);
      c.axisValues = {0.25, 0.5, 0.75};
      for (double severity : c.axisValues) {
        JsonArray events;
        events.push_back(chaosEvent(2.0, "fail-slow", severity));
        c.variants.push_back(withChaosEvents(c.base, std::move(events)));
      }
      return c;
    };
    r.verdict = [](const RelationCase& c, const std::vector<TrialMetrics>& m) {
      return monotoneVerdict(c, m, 0.02);
    };
    reg.add(std::move(r));
  }
}

// ---- workload generators ----

/// A small grammar-generator run spec: two bursts of writes with a
/// compute gap and a random-read drain — enough structure to exercise
/// expansion, per-rank rng state and the op-latency path, small enough
/// to stay fast at oracle case counts.
JsonValue grammarBase(std::uint64_t seed) {
  JsonObject burst;
  burst["op"] = "write";
  burst["bytes"] = seed % 3 == 0 ? 2.0 * 1024 * 1024 : 1024.0 * 1024;
  burst["count"] = 6.0;
  burst["pattern"] = "seq";
  JsonObject drain;
  drain["op"] = "read";
  drain["bytes"] = 1024.0 * 1024;
  drain["count"] = 4.0;
  drain["pattern"] = "random";
  JsonObject epochRef;
  epochRef["rule"] = "epoch";
  epochRef["repeat"] = 2.0;
  JsonObject compute;
  compute["compute"] = 0.01;
  JsonArray main;
  main.push_back(JsonValue(std::move(epochRef)));
  JsonArray epoch;
  epoch.push_back(JsonValue("burst"));
  epoch.push_back(JsonValue(std::move(compute)));
  epoch.push_back(JsonValue("drain"));
  JsonArray burstRule;
  burstRule.push_back(JsonValue(std::move(burst)));
  JsonArray drainRule;
  drainRule.push_back(JsonValue(std::move(drain)));
  JsonObject rules;
  rules["main"] = JsonValue(std::move(main));
  rules["epoch"] = JsonValue(std::move(epoch));
  rules["burst"] = JsonValue(std::move(burstRule));
  rules["drain"] = JsonValue(std::move(drainRule));
  JsonObject w;
  w["generator"] = "grammar";
  w["nodes"] = 1.0;
  w["procsPerNode"] = seed % 2 == 0 ? 4.0 : 2.0;
  w["seed"] = static_cast<double>(seed % 1000);
  w["fileBytes"] = 64.0 * 1024 * 1024;
  w["rules"] = JsonValue(std::move(rules));
  JsonObject root;
  root["name"] = "oracle-grammar";
  root["site"] = "lassen";
  root["storage"] = "vast";
  root["workload"] = JsonValue(std::move(w));
  return JsonValue(std::move(root));
}

JsonValue openloopBase(std::uint64_t seed) {
  JsonObject w;
  w["generator"] = "openloop";
  w["clients"] = 4.0;
  w["clientsPerNode"] = 2.0;
  w["ratePerClientHz"] = 10.0;
  w["horizonSec"] = 4.0;
  w["objects"] = 128.0;
  w["zipfTheta"] = seed % 2 == 0 ? 0.99 : 0.6;
  w["objectBytes"] = 4.0 * 1024 * 1024;
  w["requestBytes"] = 128.0 * 1024;
  w["readFraction"] = 0.9;
  w["seed"] = static_cast<double>(seed % 1000);
  JsonObject root;
  root["name"] = "oracle-openloop";
  root["site"] = "lassen";
  root["storage"] = "vast";
  root["workload"] = JsonValue(std::move(w));
  return JsonValue(std::move(root));
}

JsonValue io500Base(std::uint64_t seed) {
  JsonObject w;
  w["generator"] = "io500";
  w["nodes"] = 1.0;
  w["procsPerNode"] = seed % 2 == 0 ? 4.0 : 2.0;
  w["scale"] = 1.0;
  w["easyOpsMedian"] = 8.0;
  w["hardOpsMedian"] = 16.0;
  w["seed"] = static_cast<double>(seed % 1000);
  JsonObject root;
  root["name"] = "oracle-io500";
  root["site"] = "lassen";
  root["storage"] = "vast";
  root["workload"] = JsonValue(std::move(w));
  return JsonValue(std::move(root));
}

void addWorkloadRelations(RelationRegistry& reg) {
  {
    MetamorphicRelation r;
    r.name = "workload.grammar-seed-determinism";
    r.storage = "vast";
    r.experiment = "workload";
    r.kind = RelationKind::Determinism;
    r.claim = "a grammar workload is a pure function of its spec: two runs of the "
              "same expanded grammar at the same seed agree bit-for-bit, down to "
              "the per-op latency percentiles";
    r.generate = [](std::uint64_t seed) {
      RelationCase c;
      c.base = grammarBase(seed);
      c.variants.push_back(sweep::deepCopy(c.base));
      c.variants.push_back(sweep::deepCopy(c.base));
      return c;
    };
    r.verdict = [](const RelationCase&, const std::vector<TrialMetrics>& m) {
      if (m[0].meanGBs == m[1].meanGBs && m[0].bytesMoved == m[1].bytesMoved &&
          m[0].elapsedSec == m[1].elapsedSec && m[0].opCount == m[1].opCount &&
          m[0].opP50 == m[1].opP50 && m[0].opP99 == m[1].opP99) {
        return CaseVerdict{};
      }
      std::ostringstream os;
      os << "identical grammar specs disagree: " << m[0].meanGBs << " vs " << m[1].meanGBs
         << " GB/s (bytes " << m[0].bytesMoved << " vs " << m[1].bytesMoved << ", p50 "
         << m[0].opP50 << " vs " << m[1].opP50 << ")";
      return CaseVerdict{false, os.str()};
    };
    reg.add(std::move(r));
  }
  {
    MetamorphicRelation r;
    r.name = "workload.openloop-rate-monotone";
    r.storage = "vast";
    r.experiment = "workload";
    r.kind = RelationKind::Monotonic;
    r.axis = "workload.ratePerClientHz";
    r.slack = 0.05;
    r.claim = "open-loop arrivals are demand-driven: raising the per-client "
              "arrival rate over a fixed horizon moves at least as many bytes "
              "(queues may grow, but completed work cannot shrink)";
    r.generate = [](std::uint64_t seed) {
      RelationCase c;
      c.base = openloopBase(seed);
      c.axis = "workload.ratePerClientHz";
      c.axisValues = {10.0, 25.0, 50.0};
      for (double rate : c.axisValues) {
        JsonValue cfg = sweep::deepCopy(c.base);
        sweep::jsonPathSet(cfg, "workload.ratePerClientHz", JsonValue(rate));
        c.variants.push_back(std::move(cfg));
      }
      return c;
    };
    r.verdict = [](const RelationCase& c, const std::vector<TrialMetrics>& m) {
      for (std::size_t i = 0; i + 1 < m.size(); ++i) {
        if (m[i + 1].bytesMoved < m[i].bytesMoved * 0.95) {
          std::ostringstream os;
          os << "completed bytes drop along '" << c.axis << "': " << m[i].bytesMoved << " at "
             << c.axisValues[i] << " Hz -> " << m[i + 1].bytesMoved << " at "
             << c.axisValues[i + 1] << " Hz";
          return CaseVerdict{false, os.str()};
        }
      }
      return CaseVerdict{};
    };
    reg.add(std::move(r));
  }
  {
    MetamorphicRelation r;
    r.name = "workload.io500-scale-invariant";
    r.storage = "vast";
    r.experiment = "workload";
    r.kind = RelationKind::Dominance;
    r.axis = "workload.scale";
    r.claim = "io500 'scale' grows per-rank op counts without changing per-op "
              "geometry, so steady-state bandwidth is scale-invariant: doubling "
              "the working set leaves GB/s within a tight band";
    r.generate = [](std::uint64_t seed) {
      RelationCase c;
      c.base = io500Base(seed);
      c.variants.push_back(sweep::deepCopy(c.base));
      JsonValue doubled = sweep::deepCopy(c.base);
      sweep::jsonPathSet(doubled, "workload.scale", JsonValue(2.0));
      c.variants.push_back(std::move(doubled));
      return c;
    };
    r.verdict = [](const RelationCase&, const std::vector<TrialMetrics>& m) {
      return ratioVerdict(m[1].meanGBs, m[0].meanGBs, 0.7, 1.4,
                          "io500 bandwidth at scale 2 vs scale 1");
    };
    reg.add(std::move(r));
  }
}

/// Base config for the scale relations: an open-loop population on
/// Lassen/VAST expressed as flow classes. nconnect is pinned to 1 so
/// every rank mounts over the same session path — the precondition for
/// partition invariance to be byte-exact (procs otherwise hash to
/// different CNode routes). clientsPerRank > 1 on every variant keeps
/// VAST reads on the deterministic fractional cache split.
JsonValue scaleOpenloopBase(std::uint64_t seed) {
  JsonObject w;
  w["generator"] = "openloop";
  w["clients"] = 1.0;
  w["clientsPerNode"] = 1.0;
  w["clientsPerRank"] = 12.0;
  w["sharedStream"] = true;
  w["ratePerClientHz"] = 10.0;
  w["horizonSec"] = 3.0;
  w["objects"] = 128.0;
  w["zipfTheta"] = seed % 2 == 0 ? 0.99 : 0.6;
  w["objectBytes"] = 4.0 * 1024 * 1024;
  w["requestBytes"] = 128.0 * 1024;
  w["readFraction"] = 0.9;
  w["seed"] = static_cast<double>(seed % 1000);
  JsonObject storage;
  storage["nconnect"] = 1.0;
  JsonObject root;
  root["name"] = "oracle-scale";
  root["site"] = "lassen";
  root["storage"] = "vast";
  root["storageConfig"] = JsonValue(std::move(storage));
  root["workload"] = JsonValue(std::move(w));
  return JsonValue(std::move(root));
}

void addScaleRelations(RelationRegistry& reg) {
  {
    MetamorphicRelation r;
    r.name = "scale.class-partition-invariance";
    r.storage = "vast";
    r.experiment = "workload";
    r.kind = RelationKind::Determinism;
    r.claim = "a flow class is a pure aggregation: splitting a shared-stream "
              "class of 2N members into two classes of N (same total "
              "population, same arrival draws) changes no metric, down to the "
              "per-op latency percentiles";
    r.generate = [](std::uint64_t seed) {
      // The same 12- or 24-client population expressed as 1, 2 and 4
      // classes. clientsPerNode tracks clients so every variant keeps
      // one node and an identical phase population (clientsPerNode *
      // clientsPerRank is constant).
      const double total = seed % 2 == 0 ? 12.0 : 24.0;
      RelationCase c;
      c.base = scaleOpenloopBase(seed);
      for (double classes : {1.0, 2.0, 4.0}) {
        JsonValue cfg = sweep::deepCopy(c.base);
        sweep::jsonPathSet(cfg, "workload.clients", JsonValue(classes));
        sweep::jsonPathSet(cfg, "workload.clientsPerNode", JsonValue(classes));
        sweep::jsonPathSet(cfg, "workload.clientsPerRank", JsonValue(total / classes));
        c.variants.push_back(std::move(cfg));
      }
      return c;
    };
    r.verdict = [](const RelationCase&, const std::vector<TrialMetrics>& m) {
      for (std::size_t i = 1; i < m.size(); ++i) {
        if (m[i].meanGBs == m[0].meanGBs && m[i].bytesMoved == m[0].bytesMoved &&
            m[i].elapsedSec == m[0].elapsedSec && m[i].opCount == m[0].opCount &&
            m[i].opP50 == m[0].opP50 && m[i].opP99 == m[0].opP99) {
          continue;
        }
        std::ostringstream os;
        os << "partitioning the population into " << (i == 1 ? 2 : 4)
           << " classes changed the run: " << m[0].meanGBs << " vs " << m[i].meanGBs
           << " GB/s (bytes " << m[0].bytesMoved << " vs " << m[i].bytesMoved << ", p50 "
           << m[0].opP50 << " vs " << m[i].opP50 << ")";
        return CaseVerdict{false, os.str()};
      }
      return CaseVerdict{};
    };
    reg.add(std::move(r));
  }
  {
    MetamorphicRelation r;
    r.name = "scale.client-count-monotone";
    r.storage = "vast";
    r.experiment = "workload";
    r.kind = RelationKind::Monotonic;
    r.axis = "workload.clientsPerRank";
    r.integerAxis = true;
    r.slack = 0.07;
    r.claim = "adding clients to a class never shrinks the system: aggregate "
              "goodput is non-decreasing in the member count (it saturates at "
              "capacity), while the per-client share is non-increasing (fair "
              "shares dilute, they are never minted)";
    r.generate = [](std::uint64_t seed) {
      RelationCase c;
      c.base = scaleOpenloopBase(seed);
      sweep::jsonPathSet(c.base, "workload.clients", JsonValue(4.0));
      sweep::jsonPathSet(c.base, "workload.clientsPerNode", JsonValue(4.0));
      c.axis = "workload.clientsPerRank";
      c.axisValues = {2.0, 8.0, 32.0, 128.0};
      for (double members : c.axisValues) {
        JsonValue cfg = sweep::deepCopy(c.base);
        sweep::jsonPathSet(cfg, "workload.clientsPerRank", JsonValue(members));
        c.variants.push_back(std::move(cfg));
      }
      return c;
    };
    r.verdict = [](const RelationCase& c, const std::vector<TrialMetrics>& m) {
      for (std::size_t i = 0; i + 1 < m.size(); ++i) {
        if (m[i + 1].meanGBs < m[i].meanGBs * (1.0 - 0.07)) {
          std::ostringstream os;
          os << "aggregate goodput drops along '" << c.axis << "': " << m[i].meanGBs
             << " GB/s at " << c.axisValues[i] << " members -> " << m[i + 1].meanGBs
             << " GB/s at " << c.axisValues[i + 1];
          return CaseVerdict{false, os.str()};
        }
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
    reg.add(std::move(r));
  }
}

// ---- transport (NIC/endpoint fabric, exercised through DAOS) ----

/// IOR-on-DAOS base for the transport relations. DAOS is the backend
/// whose data path always rides the fabric, and its 8 x 6 GB/s target
/// pool is fat enough that the *endpoint profile* is the binding
/// constraint — on VAST the legacy NFS-frontend session caps bind first
/// and would mask the fabric. seq-read keeps the RF-2 write fan-out out
/// of the picture so the measured rate is one class per node.
JsonValue transportIorBase(std::uint64_t seed) {
  JsonObject ior;
  ior["access"] = "seq-read";
  ior["nodes"] = 2.0;
  ior["procsPerNode"] = 4.0;
  ior["segments"] = seed % 3 == 0 ? 100.0 : 200.0;
  ior["repetitions"] = 1.0;
  JsonObject root;
  root["site"] = "lassen";
  root["storage"] = "daos";
  root["ior"] = JsonValue(std::move(ior));
  return JsonValue(std::move(root));
}

JsonValue withTransport(const JsonValue& base, JsonObject section) {
  JsonValue cfg = sweep::deepCopy(base);
  (*cfg.object())["transport"] = JsonValue(std::move(section));
  return cfg;
}

void addTransportRelations(RelationRegistry& reg) {
  {
    MetamorphicRelation r;
    r.name = "transport.nconnect-monotone";
    r.storage = "daos";
    r.kind = RelationKind::Monotonic;
    r.axis = "transport.lanes";
    r.integerAxis = true;
    r.slack = 0.02;
    r.claim = "§VII nconnect: more TCP connection lanes never slow an "
              "endpoint-bound client — each lane adds an independent "
              "~1.15 GB/s stream until another resource binds";
    r.generate = [](std::uint64_t seed) {
      RelationCase c;
      c.base = transportIorBase(seed);
      // streams >= lanes on every variant, so each added lane is usable.
      sweep::jsonPathSet(c.base, "ior.procsPerNode", JsonValue(8.0));
      sweep::jsonPathSet(c.base, "transport.kind", JsonValue("tcp"));
      c.axis = "transport.lanes";
      c.axisValues = {1.0, 2.0, 4.0, 8.0};
      for (double lanes : c.axisValues) {
        JsonValue cfg = sweep::deepCopy(c.base);
        sweep::jsonPathSet(cfg, "transport.lanes", JsonValue(lanes));
        c.variants.push_back(std::move(cfg));
      }
      return c;
    };
    r.verdict = [](const RelationCase& c, const std::vector<TrialMetrics>& m) {
      return monotoneVerdict(c, m, 0.02);
    };
    reg.add(std::move(r));
  }
  {
    MetamorphicRelation r;
    r.name = "transport.rdma-dominates-tcp";
    r.storage = "daos";
    r.kind = RelationKind::Dominance;
    r.claim = "Fig 1/§V: the full RDMA endpoint beats the single NFS/TCP "
              "session by ~8x at 4 procs/node (4 usable QPs x ~2.5 GB/s vs "
              "one ~1.15 GB/s stream) — the gap emerges from per-op costs "
              "and lane counts, it is not a configured ratio";
    r.generate = [](std::uint64_t seed) {
      RelationCase c;
      c.base = transportIorBase(seed);
      JsonObject tcp;
      tcp["kind"] = std::string("tcp");
      c.variants.push_back(withTransport(c.base, std::move(tcp)));
      JsonObject rdma;
      rdma["kind"] = std::string("rdma");
      c.variants.push_back(withTransport(c.base, std::move(rdma)));
      return c;
    };
    r.verdict = [](const RelationCase&, const std::vector<TrialMetrics>& m) {
      return ratioVerdict(m[1].meanGBs, m[0].meanGBs, 6.4, 9.6,
                          "rdma vs tcp endpoint preset on DAOS");
    };
    reg.add(std::move(r));
  }
}

// ---- DAOS ----

/// A saturated DAOS chaos scenario: a 4-node seq-write against the 8
/// targets, hot enough that failing one target both stalls its in-flight
/// bulk transfers and removes visible capacity.
JsonValue daosChaosBase(std::uint64_t seed) {
  JsonObject workload;
  workload["nodes"] = 4.0;
  // Stay at >= 8 procs/node: a cooler population leaves enough slack in
  // the 8-target pool that a single-target outage barely registers.
  workload["procsPerNode"] = seed % 2 == 0 ? 8.0 : 10.0;
  workload["access"] = "seq-write";
  workload["requestBytes"] = seed % 3 == 0 ? 8.0 * 1024 * 1024 : 16.0 * 1024 * 1024;
  JsonObject retry;
  retry["timeoutSec"] = 5.0;
  JsonObject root;
  root["name"] = "oracle-daos-chaos";
  root["site"] = "lassen";
  root["storage"] = "daos";
  root["workload"] = JsonValue(std::move(workload));
  root["horizonSec"] = 20.0;
  root["intervalSec"] = 2.0;
  root["retry"] = JsonValue(std::move(retry));
  return JsonValue(std::move(root));
}

JsonValue daosTargetEvent(double at, const std::string& action) {
  JsonObject ev;
  ev["atSec"] = at;
  ev["action"] = action;
  ev["component"] = "target";
  ev["index"] = 0.0;
  return JsonValue(std::move(ev));
}

void addDaosRelations(RelationRegistry& reg) {
  {
    MetamorphicRelation r;
    r.name = "daos.empty-transport-identity";
    r.storage = "daos";
    r.kind = RelationKind::Determinism;
    r.claim = "an empty \"transport\" section is the identity: it overrides "
              "nothing on the model's declared RDMA profile, so the run with "
              "{} agrees bit-for-bit with the run with no section at all";
    r.generate = [](std::uint64_t seed) {
      RelationCase c;
      c.base = transportIorBase(seed);
      c.variants.push_back(sweep::deepCopy(c.base));
      c.variants.push_back(withTransport(c.base, JsonObject{}));
      return c;
    };
    r.verdict = [](const RelationCase&, const std::vector<TrialMetrics>& m) {
      if (m[0].meanGBs == m[1].meanGBs && m[0].minGBs == m[1].minGBs &&
          m[0].maxGBs == m[1].maxGBs && m[0].elapsedSec == m[1].elapsedSec &&
          m[0].bytesMoved == m[1].bytesMoved) {
        return CaseVerdict{};
      }
      std::ostringstream os;
      os << "an empty transport section changed the run: " << m[0].meanGBs << " vs "
         << m[1].meanGBs << " GB/s (elapsed " << m[0].elapsedSec << " vs " << m[1].elapsedSec
         << " s)";
      return CaseVerdict{false, os.str()};
    };
    reg.add(std::move(r));
  }
  {
    MetamorphicRelation r;
    r.name = "daos.restore-converges";
    r.storage = "daos";
    r.experiment = "chaos";
    r.kind = RelationKind::Dominance;
    r.claim = "fail-then-restore on a DAOS target converges: after the target "
              "rejoins placement the best timeline slice returns to within 3% "
              "of the healthy run's mean, while the outage slice shows a real "
              "dip from the stalled bulk transfers and lost capacity";
    r.generate = [](std::uint64_t seed) {
      RelationCase c;
      c.base = daosChaosBase(seed);
      c.variants.push_back(sweep::deepCopy(c.base));
      JsonValue faulty = sweep::deepCopy(c.base);
      JsonArray events;
      events.push_back(daosTargetEvent(2.0, "fail"));
      events.push_back(daosTargetEvent(10.0, "restore"));
      (*faulty.object())["events"] = JsonValue(std::move(events));
      c.variants.push_back(std::move(faulty));
      return c;
    };
    r.verdict = [](const RelationCase&, const std::vector<TrialMetrics>& m) {
      const double healthy = m[0].meanGBs;
      if (healthy <= 0.0) return CaseVerdict{false, "healthy run produced no bandwidth"};
      if (m[1].maxGBs < healthy * 0.97) {
        std::ostringstream os;
        os << "no recovery: best slice after restore " << m[1].maxGBs
           << " GB/s vs healthy mean " << healthy;
        return CaseVerdict{false, os.str()};
      }
      if (m[1].minGBs > healthy * 0.9) {
        std::ostringstream os;
        os << "no dip: worst slice " << m[1].minGBs << " GB/s vs healthy mean " << healthy
           << " — the target fault did not bite";
        return CaseVerdict{false, os.str()};
      }
      return CaseVerdict{};
    };
    reg.add(std::move(r));
  }
}

}  // namespace

const RelationRegistry& RelationRegistry::builtin() {
  static const RelationRegistry registry = [] {
    RelationRegistry reg;
    addVastRelations(reg);
    addGpfsRelations(reg);
    addLustreRelations(reg);
    addNvmeRelations(reg);
    addChaosRelations(reg);
    addWorkloadRelations(reg);
    addScaleRelations(reg);
    addTransportRelations(reg);
    addDaosRelations(reg);
    return reg;
  }();
  return registry;
}

}  // namespace hcsim::oracle
