// hcsim::oracle — relation registry, config generators, counterexample
// shrinking, golden snapshot round-trip and tolerance math, plus the
// CLI surface (byte-determinism across job counts).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>

#include "cli/args.hpp"
#include "cli/commands.hpp"
#include "config/paths.hpp"
#include "oracle/generator.hpp"
#include "oracle/golden.hpp"
#include "oracle/relation.hpp"
#include "oracle/shrink.hpp"
#include "sweep/sweep_spec.hpp"

namespace hcsim {
namespace {

using oracle::RelationRegistry;

// ---------- config path enumeration ----------

TEST(JsonPaths, EnumeratesSerializerLeavesInOrder) {
  const JsonValue preset = presetJson(Site::Lassen, StorageKind::Vast);
  const auto paths = enumerateJsonPaths(preset);
  ASSERT_FALSE(paths.empty());
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_LT(paths[i - 1].path, paths[i].path) << "paths must be lexicographic";
  }
  std::set<std::string> names;
  for (const auto& p : paths) names.insert(p.path);
  EXPECT_TRUE(names.count("cnodes"));
  EXPECT_TRUE(names.count("gateway.linkBandwidth")) << "nested paths use dots";
  EXPECT_TRUE(names.count("nconnect"));
}

TEST(JsonPaths, NumericPathLookup) {
  const JsonValue preset = presetJson(Site::Wombat, StorageKind::NvmeLocal);
  EXPECT_TRUE(hasNumericPath(preset, "drivesPerNode"));
  EXPECT_TRUE(hasNumericPath(preset, "drive.readBandwidth"));
  EXPECT_FALSE(hasNumericPath(preset, "noSuchKnob"));
  EXPECT_GT(numberAtPath(preset, "drivesPerNode", 0.0), 0.0);
  EXPECT_DOUBLE_EQ(numberAtPath(preset, "noSuchKnob", 42.0), 42.0);
}

// ---------- seeded config generators ----------

TEST(ConfigGenerator, DeterministicInSeed) {
  const oracle::ConfigGenerator gen(Site::Quartz, StorageKind::Lustre);
  const JsonValue a = gen.makeBase(7, AccessPattern::SequentialRead);
  const JsonValue b = gen.makeBase(7, AccessPattern::SequentialRead);
  EXPECT_EQ(writeJson(a), writeJson(b));
  // Different seeds must explore: some pair among a handful differs.
  std::set<std::string> distinct;
  for (std::uint64_t s = 0; s < 8; ++s) {
    distinct.insert(writeJson(gen.makeBase(s, AccessPattern::SequentialRead)));
  }
  EXPECT_GT(distinct.size(), 1u);
}

TEST(ConfigGenerator, EmitsRunnableTrialShape) {
  const oracle::ConfigGenerator gen(Site::Wombat, StorageKind::Vast);
  const JsonValue base = gen.makeBase(3, AccessPattern::RandomRead);
  EXPECT_EQ(base.stringOr("site", ""), "wombat");
  EXPECT_EQ(base.stringOr("storage", ""), "vast");
  EXPECT_TRUE(hasNumericPath(base, "ior.nodes"));
  EXPECT_TRUE(hasNumericPath(base, "ior.segments"));
  EXPECT_DOUBLE_EQ(numberAtPath(base, "ior.noiseStdDevFrac", -1.0), 0.0)
      << "metamorphic trials must be noise-free";
}

TEST(ConfigGenerator, RejectsKnobsTheSerializerDoesNotEmit) {
  EXPECT_THROW(oracle::ConfigGenerator(Site::Lassen, StorageKind::Gpfs,
                                       {{"pagepoolBytez", 0.5, 2.0, false}}),
               std::logic_error);
}

// ---------- relation registry ----------

TEST(RelationRegistry, BuiltinCatalogCoversAllFiveModels) {
  const RelationRegistry& reg = RelationRegistry::builtin();
  EXPECT_GE(reg.all().size(), 12u);
  std::set<std::string> storages;
  std::set<oracle::RelationKind> kinds;
  for (const auto& r : reg.all()) {
    storages.insert(r.storage);
    kinds.insert(r.kind);
    EXPECT_FALSE(r.claim.empty()) << r.name << " must cite its paper claim";
    ASSERT_TRUE(r.generate) << r.name;
    ASSERT_TRUE(r.verdict) << r.name;
  }
  EXPECT_EQ(storages,
            (std::set<std::string>{"vast", "gpfs", "lustre", "nvme", "daos"}));
  EXPECT_EQ(kinds.size(), 5u) << "all five relation kinds must be exercised";
}

/// `m` with every headline metric multiplied by `factor`.
sweep::TrialMetrics scaledMetrics(sweep::TrialMetrics m, double factor) {
  for (double* v : {&m.meanGBs, &m.minGBs, &m.maxGBs, &m.elapsedSec, &m.bytesMoved, &m.opCount,
                    &m.opP50, &m.opP95, &m.opP99}) {
    *v *= factor;
  }
  return m;
}

TEST(RelationRegistry, EveryVerdictPassesOnRealMetricsAndFailsWhenTheyMove) {
  // A verdict that always passes, or a relation given the wrong shape,
  // would let every other test pass. Each built-in verdict must accept
  // the model's own metrics and reject them once the last variant is
  // scaled two orders of magnitude off.
  for (const oracle::MetamorphicRelation& rel : RelationRegistry::builtin().all()) {
    const oracle::RelationCase c = rel.generate(0);
    const std::vector<sweep::TrialMetrics> m =
        sweep::runTrialBatch(rel.experiment, c.variants, 2);
    for (const sweep::TrialMetrics& t : m) ASSERT_TRUE(t.ok) << rel.name << ": " << t.error;
    const oracle::CaseVerdict real = rel.verdict(c, m);
    EXPECT_TRUE(real.pass) << rel.name << ": " << real.detail;
    bool bites = false;
    for (double factor : {0.01, 100.0}) {
      std::vector<sweep::TrialMetrics> moved = m;
      moved.back() = scaledMetrics(moved.back(), factor);
      bites = bites || !rel.verdict(c, moved).pass;
    }
    EXPECT_TRUE(bites) << rel.name << " passes with its last variant scaled by 0.01 and by 100";
  }
}

TEST(RelationRegistry, FindAndDuplicateRejection) {
  const RelationRegistry& reg = RelationRegistry::builtin();
  EXPECT_NE(reg.find("lustre.read-monotone-in-stripe-count"), nullptr);
  EXPECT_EQ(reg.find("no.such.relation"), nullptr);
  RelationRegistry mine;
  oracle::MetamorphicRelation r;
  r.name = "dup";
  mine.add(r);
  EXPECT_THROW(mine.add(r), std::invalid_argument);
}

// ---------- counterexample shrinking ----------

TEST(Shrink, BisectsIntegerAxisToTheCliff) {
  // Synthetic cliff: the relation fails between any pair spanning 6|7.
  JsonValue base(JsonObject{});
  std::size_t calls = 0;
  const auto pairFails = [&](double lo, double hi) {
    ++calls;
    return lo <= 6.0 && hi >= 7.0;
  };
  const oracle::ShrinkResult s = oracle::bisectAxis(base, "storageConfig.x", 1, 64, true,
                                                    pairFails);
  EXPECT_DOUBLE_EQ(s.lo, 6.0);
  EXPECT_DOUBLE_EQ(s.hi, 7.0);
  EXPECT_FALSE(s.spanning);
  EXPECT_EQ(s.probes, calls);
  EXPECT_DOUBLE_EQ(numberAtPath(s.minimalConfig, "storageConfig.x", 0.0), 7.0);
  EXPECT_NE(s.summary.find("storageConfig.x"), std::string::npos);
}

TEST(Shrink, ReportsSpanningViolations) {
  // Fails only across the full interval: no single half reproduces it.
  JsonValue base(JsonObject{});
  const auto pairFails = [](double lo, double hi) { return lo <= 1.0 && hi >= 64.0; };
  const oracle::ShrinkResult s = oracle::bisectAxis(base, "x", 1, 64, true, pairFails);
  EXPECT_TRUE(s.spanning);
  EXPECT_DOUBLE_EQ(s.lo, 1.0);
  EXPECT_DOUBLE_EQ(s.hi, 64.0);
}

TEST(Shrink, BisectsADescendingAxis) {
  // The same cliff walked from 64 down to 1: lo and hi stay in axis order.
  JsonValue base(JsonObject{});
  const auto pairFails = [](double lo, double hi) { return lo >= 7.0 && hi <= 6.0; };
  const oracle::ShrinkResult s = oracle::bisectAxis(base, "x", 64, 1, true, pairFails);
  EXPECT_DOUBLE_EQ(s.lo, 7.0);
  EXPECT_DOUBLE_EQ(s.hi, 6.0);
  EXPECT_FALSE(s.spanning);
}

TEST(Shrink, RealAxisStopsAfterMaxSteps) {
  JsonValue base(JsonObject{});
  const auto alwaysLowHalf = [](double lo, double hi) {
    (void)hi;
    return lo <= 1.0;  // keeps halving toward the left edge
  };
  const oracle::ShrinkResult s = oracle::bisectAxis(base, "x", 1.0, 2.0, false,
                                                    alwaysLowHalf, 5);
  EXPECT_LE(s.hi - s.lo, (2.0 - 1.0) / 32.0 + 1e-12);
}

// ---------- relation execution ----------

oracle::SuiteOptions fastOptions(std::size_t cases) {
  oracle::SuiteOptions o;
  o.casesPerRelation = cases;
  o.jobs = 2;
  return o;
}

TEST(RunRelation, ReportsPassAndCountsTrials) {
  const auto* rel = RelationRegistry::builtin().find("lustre.bytes-conserved");
  ASSERT_NE(rel, nullptr);
  const oracle::RelationReport rep = oracle::runRelation(*rel, fastOptions(5));
  EXPECT_TRUE(rep.pass());
  EXPECT_EQ(rep.cases, 5u);
  EXPECT_EQ(rep.trials, 5u) << "conservation cases run one variant each";
}

TEST(RunRelation, PerturbedModelConstantBreaksTheGpfsCollapse) {
  // Zeroing the random-read penalty is the config-space equivalent of a
  // regression in the model constant: the seq-vs-random collapse the
  // paper reports disappears, and the relation must catch it.
  const auto* builtin = RelationRegistry::builtin().find("gpfs.sequential-dominates-random-read");
  ASSERT_NE(builtin, nullptr);
  oracle::MetamorphicRelation sabotaged = *builtin;
  const auto inner = builtin->generate;
  sabotaged.generate = [inner](std::uint64_t seed) {
    oracle::RelationCase c = inner(seed);
    for (JsonValue& v : c.variants) {
      sweep::jsonPathSet(v, "storageConfig.randomReadPenalty", JsonValue(0.0));
      sweep::jsonPathSet(v, "storageConfig.randomCacheResidencyFactor", JsonValue(1.0));
    }
    return c;
  };
  const oracle::RelationReport rep = oracle::runRelation(sabotaged, fastOptions(3));
  EXPECT_FALSE(rep.pass());
  ASSERT_FALSE(rep.failureDetails.empty());
  EXPECT_NE(rep.failureDetails[0].detail.find("rand-read vs seq-read"), std::string::npos)
      << "the failure must name the violated comparison";
}

TEST(RunRelation, MonotonicFailureShrinksAndNamesTheAxis) {
  // A deliberately false claim — GPFS random reads monotone in segment
  // count — fails against the real model (bigger working sets defeat the
  // server cache), and the shrinker must bisect the segments axis.
  const oracle::ConfigGenerator gen(Site::Lassen, StorageKind::Gpfs, {});
  oracle::MetamorphicRelation wrong;
  wrong.name = "test.gpfs-rand-monotone-in-segments";
  wrong.storage = "gpfs";
  wrong.kind = oracle::RelationKind::Monotonic;
  wrong.integerAxis = true;
  wrong.claim = "deliberately false: random reads speed up with volume";
  wrong.generate = [gen](std::uint64_t seed) {
    oracle::RelationCase c;
    c.base = gen.makeBase(seed, AccessPattern::RandomRead);
    sweep::jsonPathSet(c.base, "ior.nodes", JsonValue(32));
    sweep::jsonPathSet(c.base, "ior.procsPerNode", JsonValue(44));
    c.axis = "ior.segments";
    c.axisValues = {250, 2000};
    for (double v : c.axisValues) {
      JsonValue cfg = sweep::deepCopy(c.base);
      sweep::jsonPathSet(cfg, "ior.segments", JsonValue(v));
      c.variants.push_back(std::move(cfg));
    }
    return c;
  };
  wrong.verdict = [](const oracle::RelationCase& c,
                     const std::vector<sweep::TrialMetrics>& m) {
    oracle::CaseVerdict v;
    if (m[1].meanGBs < m[0].meanGBs * 0.98) {
      v.pass = false;
      v.detail = "bandwidth drops along '" + c.axis + "'";
    }
    return v;
  };
  const oracle::RelationReport rep = oracle::runRelation(wrong, fastOptions(2));
  EXPECT_FALSE(rep.pass());
  ASSERT_FALSE(rep.failureDetails.empty());
  const oracle::CaseFailure& f = rep.failureDetails[0];
  EXPECT_NE(f.shrinkSummary.find("ior.segments"), std::string::npos)
      << "shrink output must name the offending axis";
  // The minimal failing config pins the axis inside the original span.
  const double at = numberAtPath(f.minimalConfig, "ior.segments", -1.0);
  EXPECT_GT(at, 250.0);
  EXPECT_LE(at, 2000.0);
  EXPECT_GT(rep.trials, 4u) << "shrink probes must be accounted";
}

TEST(RunRelation, ShrinkerAsksTheRelationsOwnVerdict) {
  // openloop-rate-monotone judges completed bytes, not GB/s. Re-aimed at
  // a shrinking horizon its bytes fall while GB/s may rise, so a shrinker
  // with its own bandwidth check would find no pair to bisect.
  const auto* builtin = RelationRegistry::builtin().find("workload.openloop-rate-monotone");
  ASSERT_NE(builtin, nullptr);
  oracle::MetamorphicRelation reaimed = *builtin;
  const auto inner = builtin->generate;
  reaimed.generate = [inner](std::uint64_t seed) {
    oracle::RelationCase c = inner(seed);
    c.axis = "workload.horizonSec";
    c.axisValues = {4.0, 1.0};
    c.variants.clear();
    for (double v : c.axisValues) {
      JsonValue cfg = sweep::deepCopy(c.base);
      sweep::jsonPathSet(cfg, c.axis, JsonValue(v));
      c.variants.push_back(std::move(cfg));
    }
    return c;
  };
  const oracle::RelationReport rep = oracle::runRelation(reaimed, fastOptions(2));
  EXPECT_EQ(rep.failures, 2u);
  ASSERT_FALSE(rep.failureDetails.empty());
  for (const oracle::CaseFailure& f : rep.failureDetails) {
    EXPECT_NE(f.shrinkSummary.find("workload.horizonSec"), std::string::npos)
        << "case " << f.caseIndex << ": " << f.detail;
  }
  EXPECT_GT(rep.trials, 4u) << "shrink probes must be accounted";
}

TEST(SuiteReport, MarkdownIsDeterministicAndNamesEveryRelation) {
  const RelationRegistry& reg = RelationRegistry::builtin();
  oracle::SuiteOptions o = fastOptions(2);
  const auto a = oracle::runSuite(reg, o);
  o.jobs = 7;
  const auto b = oracle::runSuite(reg, o);
  EXPECT_EQ(oracle::toMarkdown(a), oracle::toMarkdown(b))
      << "suite output must be byte-identical whatever the job count";
  const std::string md = oracle::toMarkdown(a);
  for (const auto& r : reg.all()) {
    EXPECT_NE(md.find(r.name), std::string::npos) << r.name;
  }
}

// ---------- golden snapshots ----------

/// A deliberately small figure so golden tests stay fast.
oracle::GoldenFigure tinyFigure() {
  oracle::GoldenFigure fig;
  fig.name = "tinyfig";
  fig.spec.name = "golden-tinyfig";
  fig.spec.experiment = "ior";
  JsonObject ior;
  ior["access"] = "seq-read";
  ior["segments"] = 64.0;
  ior["procsPerNode"] = 4.0;
  ior["repetitions"] = 1.0;
  JsonObject base;
  base["site"] = "wombat";
  base["storage"] = "nvme";
  base["ior"] = JsonValue(std::move(ior));
  fig.spec.base = JsonValue(std::move(base));
  sweep::Axis nodes;
  nodes.path = "ior.nodes";
  nodes.values = {JsonValue(1.0), JsonValue(2.0)};
  fig.spec.axes.push_back(std::move(nodes));
  return fig;
}

/// Apply `edit` to every record of a snapshot.
void rewriteGolden(const std::string& path, const std::function<void(JsonValue&)>& edit) {
  std::ifstream in(path);
  ASSERT_TRUE(in);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    JsonValue j;
    ASSERT_TRUE(parseJson(line, j));
    edit(j);
    lines.push_back(writeJson(j));
  }
  in.close();
  std::ofstream out(path);
  for (const auto& l : lines) out << l << "\n";
}

/// Scale every recorded `metric` (a path under "metrics") by `factor`
/// (simulated drift).
void scaleGolden(const std::string& path, double factor, const std::string& metric = "meanGBs") {
  rewriteGolden(path, [&](JsonValue& j) {
    const std::string at = "metrics." + metric;
    const double v = numberAtPath(j, at, 0.0);
    ASSERT_NE(v, 0.0) << at;
    ASSERT_TRUE(sweep::jsonPathSet(j, at, JsonValue(v * factor)));
  });
}

/// A snapshot directory of the running test's own: ctest runs each test
/// in its own process, in parallel, and tests that rewrite one shared
/// snapshot file race on it.
std::string ownGoldenDir() {
  const std::string dir = ::testing::TempDir() + "golden-" +
                          ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(Golden, RecordCheckRoundTrip) {
  const std::string dir = ownGoldenDir();
  const oracle::GoldenFigure fig = tinyFigure();
  std::string error;
  ASSERT_TRUE(oracle::recordFigure(fig, dir, 2, error)) << error;
  const oracle::FigureCheck check = oracle::checkFigure(fig, dir, 2, 2.0);
  EXPECT_TRUE(check.pass()) << oracle::deltaTable(check, 2.0, true);
  EXPECT_EQ(check.cells, 2u);
  EXPECT_EQ(check.violations, 0u);
}

TEST(Golden, ToleranceBoundaryMath) {
  const std::string dir = ownGoldenDir();
  const oracle::GoldenFigure fig = tinyFigure();
  std::string error;
  ASSERT_TRUE(oracle::recordFigure(fig, dir, 2, error)) << error;

  // +1.9% drift sits inside a 2% band. current/golden = 1/1.019 etc., so
  // scale the snapshot rather than the run.
  scaleGolden(oracle::goldenPath(dir, fig.name), 1.0 / 1.019);
  EXPECT_TRUE(oracle::checkFigure(fig, dir, 2, 2.0).pass());

  ASSERT_TRUE(oracle::recordFigure(fig, dir, 2, error)) << error;
  scaleGolden(oracle::goldenPath(dir, fig.name), 1.0 / 1.021);
  const oracle::FigureCheck drifted = oracle::checkFigure(fig, dir, 2, 2.0);
  EXPECT_FALSE(drifted.pass()) << "+2.1% drift must violate a 2% tolerance";
  EXPECT_EQ(drifted.violations, drifted.cells);
}

TEST(Golden, PerturbedModelConstantFailsWithNamedCell) {
  const std::string dir = ownGoldenDir();
  const oracle::GoldenFigure fig = tinyFigure();
  std::string error;
  ASSERT_TRUE(oracle::recordFigure(fig, dir, 2, error)) << error;

  // Doubling the drive's read bandwidth stands in for a regressed model
  // constant; the check must flag the drift and name the cell.
  oracle::GoldenFigure perturbed = fig;
  perturbed.spec.base = sweep::deepCopy(fig.spec.base);
  ASSERT_TRUE(sweep::jsonPathSet(
      perturbed.spec.base, "storageConfig.drive.readBandwidth",
      JsonValue(2.0 * numberAtPath(presetJson(Site::Wombat, StorageKind::NvmeLocal),
                                   "drive.readBandwidth", 0.0))));
  const oracle::FigureCheck check = oracle::checkFigure(perturbed, dir, 2, 2.0);
  EXPECT_FALSE(check.pass());
  const std::string table = oracle::deltaTable(check, 2.0, false);
  EXPECT_NE(table.find("\"ior.nodes\":1"), std::string::npos)
      << "delta table must name the drifted cell:\n" << table;
  EXPECT_NE(table.find("FAIL"), std::string::npos);
}

TEST(Golden, EveryRecordedColumnIsChecked) {
  // One fig5 cell (VAST, 1 node): a dlio trial, whose dlio block holds
  // Figs 4-6's system throughput and I/O split beside meanGBs.
  std::vector<oracle::GoldenFigure> figures;
  std::string error;
  ASSERT_TRUE(oracle::loadFigures(HCSIM_PAPER_DIR, figures, error)) << error;
  const auto fig5 = std::find_if(figures.begin(), figures.end(),
                                 [](const oracle::GoldenFigure& f) { return f.name == "fig5"; });
  ASSERT_NE(fig5, figures.end());
  oracle::GoldenFigure fig = *fig5;
  for (sweep::Axis& axis : fig.spec.axes) axis.values.resize(1);
  const std::string dir = ownGoldenDir();
  const std::string path = oracle::goldenPath(dir, fig.name);
  ASSERT_TRUE(oracle::recordFigure(fig, dir, 1, error)) << error;

  // The application throughput holds while the recorded system
  // throughput has moved 5%: the cell fails, naming the column.
  scaleGolden(path, 1.0 / 1.05, "dlio.systemGBs");
  const oracle::FigureCheck moved = oracle::checkFigure(fig, dir, 1, 2.0);
  EXPECT_FALSE(moved.pass());
  ASSERT_EQ(moved.deltas.size(), 1u);
  EXPECT_EQ(moved.deltas[0].deltaPct, 0.0);
  const std::string table = oracle::deltaTable(moved, 2.0, false);
  EXPECT_NE(table.find("drifted: dlio.systemGBs"), std::string::npos) << table;
  EXPECT_EQ(table.find("dlio.computeSec"), std::string::npos) << "only drifted columns:\n"
                                                              << table;

  // A block the snapshot predates is not compared.
  ASSERT_TRUE(oracle::recordFigure(fig, dir, 1, error)) << error;
  rewriteGolden(path, [](JsonValue& j) { j.object()->at("metrics").object()->erase("dlio"); });
  const oracle::FigureCheck older = oracle::checkFigure(fig, dir, 1, 2.0);
  EXPECT_TRUE(older.pass()) << oracle::deltaTable(older, 2.0, true);
}

TEST(Golden, MissingSnapshotIsAnExplicitError) {
  const oracle::FigureCheck check =
      oracle::checkFigure(tinyFigure(), "/nonexistent-golden-dir", 1, 2.0);
  EXPECT_FALSE(check.pass());
  EXPECT_NE(check.error.find("oracle record"), std::string::npos)
      << "the error must tell the user how to create the snapshot";
}

TEST(Golden, LoadFiguresReadsEverySpecInNameOrder) {
  const std::string dir = ownGoldenDir();
  std::filesystem::remove(dir + "/c.json");  // left by an earlier run
  const auto write = [&dir](const std::string& file, const std::string& text) {
    std::ofstream(dir + "/" + file) << text;
  };
  write("b.json", R"({"name": "second", "experiment": "dlio"})");
  write("a.json", R"({"name": "first"})");
  write("a.jsonl", "not a spec: a snapshot sits beside its spec\n");
  std::vector<oracle::GoldenFigure> figures;
  std::string error;
  ASSERT_TRUE(oracle::loadFigures(dir, figures, error)) << error;
  ASSERT_EQ(figures.size(), 2u);
  EXPECT_EQ(figures[0].name, "a");
  EXPECT_EQ(figures[0].spec.name, "first");
  EXPECT_EQ(figures[1].name, "b");
  EXPECT_EQ(figures[1].spec.experiment, "dlio");

  // A spec the strict reader rejects fails the load, naming its file.
  write("c.json", R"({"name": "typo", "axis": []})");
  EXPECT_FALSE(oracle::loadFigures(dir, figures, error));
  EXPECT_NE(error.find("c.json"), std::string::npos) << error;
  EXPECT_NE(error.find("axis"), std::string::npos) << error;
  EXPECT_FALSE(oracle::loadFigures(dir + "/no-such-dir", figures, error));
}

// ---------- CLI surface ----------

int runCli(std::initializer_list<std::string> args, std::string& out, std::string& err) {
  ArgParser parser((std::vector<std::string>(args)));
  std::ostringstream o, e;
  const int rc = cli::run(parser, o, e);
  out = o.str();
  err = e.str();
  return rc;
}

/// A temporary directory holding copies of the named paper specs.
std::string specDir(const std::string& name, std::initializer_list<const char*> figures) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (const char* fig : figures) {
    std::filesystem::copy_file(std::string(HCSIM_PAPER_DIR) + "/" + fig + ".json",
                               dir + "/" + fig + ".json");
  }
  return dir;
}

TEST(OracleCli, ListNamesRelationsAndFigures) {
  std::string out, err;
  EXPECT_EQ(runCli({"oracle", "list", "--dir", HCSIM_PAPER_DIR}, out, err), 0) << err;
  EXPECT_NE(out.find("lustre.read-monotone-in-stripe-count"), std::string::npos);
  EXPECT_NE(out.find("fig2b"), std::string::npos);
}

TEST(OracleCli, RelationsByteIdenticalAcrossJobCounts) {
  std::string out1, out4, outAgain, err;
  EXPECT_EQ(runCli({"oracle", "relations", "--cases", "2", "--jobs", "1"}, out1, err), 0) << err;
  EXPECT_EQ(runCli({"oracle", "relations", "--cases", "2", "--jobs", "4"}, out4, err), 0) << err;
  EXPECT_EQ(runCli({"oracle", "relations", "--cases", "2", "--jobs", "4"}, outAgain, err), 0);
  EXPECT_EQ(out1, out4);
  EXPECT_EQ(out4, outAgain);
  EXPECT_NE(out1.find("oracle relations: PASS"), std::string::npos);
}

TEST(OracleCli, SingleRelationSelectionAndUnknownName) {
  std::string out, err;
  EXPECT_EQ(runCli({"oracle", "relations", "--cases", "2", "--relation",
                    "nvme.per-node-invariant-in-nodes"},
                   out, err),
            0)
      << err;
  EXPECT_NE(out.find("nvme.per-node-invariant-in-nodes"), std::string::npos);
  EXPECT_EQ(out.find("lustre."), std::string::npos) << "only the selected relation runs";
  EXPECT_EQ(runCli({"oracle", "relations", "--relation", "bogus"}, out, err), 2);
  EXPECT_NE(err.find("bogus"), std::string::npos);
}

TEST(OracleCli, RecordThenCheckByteIdenticalAcrossJobCounts) {
  const std::string dir = specDir("oracle-cli-golden", {"fig2b"});
  std::string out, err;
  ASSERT_EQ(runCli({"oracle", "record", "--dir", dir, "--figure", "fig2b", "--jobs", "4"}, out,
                   err),
            0)
      << err;
  std::string check1, check4;
  EXPECT_EQ(runCli({"oracle", "check", "--dir", dir, "--figure", "fig2b", "--jobs", "1"},
                   check1, err),
            0)
      << err;
  EXPECT_EQ(runCli({"oracle", "check", "--dir", dir, "--figure", "fig2b", "--jobs", "4"},
                   check4, err),
            0)
      << err;
  EXPECT_EQ(check1, check4);
  EXPECT_NE(check1.find("oracle golden check: PASS"), std::string::npos);
}

TEST(OracleCli, CheckWithoutSnapshotFails) {
  std::string out, err;
  const std::string dir = specDir("oracle-cli-empty", {"fig5"});
  EXPECT_EQ(runCli({"oracle", "check", "--dir", dir, "--figure", "fig5"}, out, err), 1);
  EXPECT_NE(out.find("ERROR"), std::string::npos);
  EXPECT_EQ(runCli({"oracle", "check", "--dir", dir, "--figure", "fig9"}, out, err), 2);
  EXPECT_NE(err.find("fig9"), std::string::npos);
}

/// fig2a and fig2b cut to the cells the takeaways read, with `fig2bBase`
/// as fig2b's base config.
std::string takeawayDir(const std::string& name, const std::string& fig2bBase) {
  const std::string dir = specDir(name, {});
  std::ofstream(dir + "/fig2a.json") << R"({"name": "fig2a-cut", "base": {"site": "lassen",
      "ior": {"procsPerNode": 44, "repetitions": 10, "noiseStdDevFrac": 0.03}},
    "axes": [{"path": "storage", "values": ["vast", "gpfs"]},
             {"path": "ior.access", "values": ["seq-write", "seq-read", "rand-read"]},
             {"path": "ior.nodes", "values": [1, 64]}]})";
  std::ofstream(dir + "/fig2b.json") << R"({"name": "fig2b-cut", "base": )" << fig2bBase << R"(,
    "axes": [{"path": "storage", "values": ["vast"]},
             {"path": "ior.access", "values": ["seq-write", "seq-read", "rand-read"]},
             {"path": "ior.nodes", "values": [1, 2]}]})";
  return dir;
}

TEST(OracleCli, FullCheckFailsOnATakeawayBandMiss) {
  const std::string fig2b =
      R"({"site": "wombat", "ior": {"procsPerNode": 48, "repetitions": 10,
          "noiseStdDevFrac": 0.03}})";
  std::string out, err;
  const std::string dir = takeawayDir("oracle-cli-takeaways", fig2b);
  ASSERT_EQ(runCli({"oracle", "record", "--dir", dir}, out, err), 0) << err;
  EXPECT_EQ(runCli({"oracle", "check", "--dir", dir}, out, err), 0) << out;
  EXPECT_NE(out.find("takeaways: 9 rows, 0 outside their paper band"), std::string::npos) << out;

  // Doubling the CNodes' read bandwidth lifts Wombat's per-node reads
  // past the paper's band. Recorded that way, no cell drifts, and the
  // takeaways alone fail the check.
  const double cnodeRead = numberAtPath(presetJson(Site::Wombat, StorageKind::Vast),
                                        "cnodeReadBandwidth", 0.0);
  ASSERT_GT(cnodeRead, 0.0);
  const std::string fast = takeawayDir(
      "oracle-cli-takeaways-miss",
      R"({"site": "wombat", "storageConfig": {"cnodeReadBandwidth": )" +
          writeJson(JsonValue(2.0 * cnodeRead)) +
          R"(}, "ior": {"procsPerNode": 48, "repetitions": 10, "noiseStdDevFrac": 0.03}})");
  ASSERT_EQ(runCli({"oracle", "record", "--dir", fast}, out, err), 0) << err;
  EXPECT_EQ(runCli({"oracle", "check", "--dir", fast}, out, err), 1) << out;
  EXPECT_NE(out.find("VAST seq read GB/s per node"), std::string::npos) << out;
  EXPECT_NE(out.find("MISS"), std::string::npos) << out;
  EXPECT_NE(out.find("oracle golden check: FAIL"), std::string::npos) << out;
  EXPECT_EQ(out.find("| FAIL"), std::string::npos) << "no cell drifted:\n" << out;

  // `hcsim takeaways` reads the same cells and exits 1 on the miss.
  EXPECT_EQ(runCli({"takeaways", "--dir", fast}, out, err), 1) << err;
  EXPECT_NE(out.find("MISS"), std::string::npos) << out;
  EXPECT_EQ(runCli({"takeaways", "--dir", dir}, out, err), 0) << out;
}

TEST(OracleCli, UnknownSubcommandRejected) {
  std::string out, err;
  EXPECT_EQ(runCli({"oracle", "frobnicate"}, out, err), 2);
  EXPECT_NE(err.find("list|relations|record|check"), std::string::npos);
}

}  // namespace
}  // namespace hcsim
