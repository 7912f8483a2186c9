#include "oracle/relation.hpp"

#include <sstream>
#include <stdexcept>

#include "oracle/shrink.hpp"
#include "sweep/sweep_spec.hpp"
#include "sweep/trial_cache.hpp"
#include "util/random.hpp"

namespace hcsim::oracle {

const char* toString(RelationKind k) {
  switch (k) {
    case RelationKind::Monotonic: return "monotonic";
    case RelationKind::ScaleInvariant: return "scale-invariant";
    case RelationKind::Conservation: return "conservation";
    case RelationKind::Determinism: return "determinism";
    case RelationKind::Dominance: return "dominance";
  }
  return "?";
}

void RelationRegistry::add(MetamorphicRelation r) {
  if (find(r.name)) throw std::invalid_argument("oracle: duplicate relation '" + r.name + "'");
  relations_.push_back(std::move(r));
}

const MetamorphicRelation* RelationRegistry::find(const std::string& name) const {
  for (const MetamorphicRelation& r : relations_) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

namespace {

/// Deterministic per-case seed: independent of job count and of every
/// other relation in the suite.
std::uint64_t caseSeed(const std::string& relationName, std::uint64_t suiteSeed,
                       std::size_t index) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the name
  for (char c : relationName) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  SplitMix64 sm(h ^ (suiteSeed * 0x9e3779b97f4a7c15ull));
  std::uint64_t s = sm.next();
  return s + index * 0x9e3779b97f4a7c15ull;
}

/// Does the relation's own verdict fail on the two-variant case of `c`
/// with the axis at lo and then hi?
bool pairFails(const MetamorphicRelation& rel, const RelationCase& c, double lo, double hi,
               JsonValue cfgLo, JsonValue cfgHi, const sweep::TrialMetrics& mLo,
               const sweep::TrialMetrics& mHi) {
  if (!mLo.ok || !mHi.ok) return false;
  RelationCase pair;
  pair.base = c.base;
  pair.axis = c.axis;
  pair.axisValues = {lo, hi};
  pair.variants = {std::move(cfgLo), std::move(cfgHi)};
  return !rel.verdict(pair, {mLo, mHi}).pass;
}

/// Shrink a failed monotonic case: find the first adjacent pair the
/// verdict rejects, then bisect that axis interval with fresh trials.
void shrinkMonotonic(const MetamorphicRelation& rel, const RelationCase& c,
                     const std::vector<sweep::TrialMetrics>& metrics, CaseFailure& failure,
                     std::size_t& trialsSpent) {
  std::size_t bad = c.axisValues.size();
  for (std::size_t i = 0; i + 1 < c.axisValues.size(); ++i) {
    if (pairFails(rel, c, c.axisValues[i], c.axisValues[i + 1], c.variants[i],
                  c.variants[i + 1], metrics[i], metrics[i + 1])) {
      bad = i;
      break;
    }
  }
  if (bad == c.axisValues.size()) return;  // no adjacent pair fails on its own

  std::size_t probesSpent = 0;
  const auto probe = [&](double lo, double hi) {
    JsonValue cfgLo = sweep::deepCopy(c.base);
    JsonValue cfgHi = sweep::deepCopy(c.base);
    sweep::jsonPathSet(cfgLo, c.axis, JsonValue(lo));
    sweep::jsonPathSet(cfgHi, c.axis, JsonValue(hi));
    const sweep::TrialMetrics mLo = sweep::runTrial(rel.experiment, cfgLo);
    const sweep::TrialMetrics mHi = sweep::runTrial(rel.experiment, cfgHi);
    probesSpent += 2;
    return pairFails(rel, c, lo, hi, std::move(cfgLo), std::move(cfgHi), mLo, mHi);
  };
  const ShrinkResult s = bisectAxis(c.base, c.axis, c.axisValues[bad], c.axisValues[bad + 1],
                                    rel.integerAxis, probe);
  trialsSpent += probesSpent;
  failure.minimalConfig = s.minimalConfig;
  failure.shrinkSummary = s.summary;
}

}  // namespace

RelationReport runRelation(const MetamorphicRelation& rel, const SuiteOptions& options) {
  RelationReport report;
  report.relation = rel.name;
  report.storage = rel.storage;
  report.kind = rel.kind;
  report.cases = options.casesPerRelation;

  // Expand every case up front (deterministic, cheap), flatten the
  // variants into one batch, and run them all on the pool at once.
  std::vector<RelationCase> cases;
  cases.reserve(options.casesPerRelation);
  std::vector<JsonValue> configs;
  for (std::size_t i = 0; i < options.casesPerRelation; ++i) {
    cases.push_back(rel.generate(caseSeed(rel.name, options.seed, i)));
    for (const JsonValue& v : cases.back().variants) configs.push_back(v);
  }
  const std::vector<sweep::TrialMetrics> metrics =
      sweep::runTrialBatch(rel.experiment, configs, options.jobs, options.cache);
  report.trials = metrics.size();

  std::size_t offset = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const RelationCase& c = cases[i];
    const std::vector<sweep::TrialMetrics> slice(metrics.begin() + offset,
                                                 metrics.begin() + offset + c.variants.size());
    offset += c.variants.size();

    CaseVerdict v;
    for (std::size_t k = 0; k < slice.size(); ++k) {
      if (!slice[k].ok) {
        v.pass = false;
        v.detail = "variant " + std::to_string(k) + " failed to run: " + slice[k].error;
        break;
      }
    }
    if (v.pass) v = rel.verdict(c, slice);
    if (v.pass) continue;

    ++report.failures;
    if (report.failureDetails.size() >= options.maxFailuresDetailed) continue;
    CaseFailure f;
    f.caseIndex = i;
    f.detail = v.detail;
    f.minimalConfig = c.variants.empty() ? c.base : c.variants.back();
    if (options.shrink && rel.kind == RelationKind::Monotonic && !c.axis.empty() &&
        c.axisValues.size() == c.variants.size()) {
      shrinkMonotonic(rel, c, slice, f, report.trials);
    }
    report.failureDetails.push_back(std::move(f));
  }
  return report;
}

std::vector<RelationReport> runSuite(const RelationRegistry& registry,
                                     const SuiteOptions& options) {
  std::vector<RelationReport> reports;
  reports.reserve(registry.all().size());
  for (const MetamorphicRelation& rel : registry.all()) {
    reports.push_back(runRelation(rel, options));
  }
  return reports;
}

std::string toMarkdown(const std::vector<RelationReport>& reports) {
  std::ostringstream os;
  os << "| relation | storage | kind | cases | failures | verdict |\n";
  os << "|---|---|---|---|---|---|\n";
  std::size_t failures = 0;
  for (const RelationReport& r : reports) {
    failures += r.failures;
    os << "| " << r.relation << " | " << r.storage << " | " << toString(r.kind) << " | "
       << r.cases << " | " << r.failures << " | " << (r.pass() ? "PASS" : "FAIL") << " |\n";
  }
  for (const RelationReport& r : reports) {
    for (const CaseFailure& f : r.failureDetails) {
      os << "\nFAIL " << r.relation << " case " << f.caseIndex << ": " << f.detail << "\n";
      if (!f.shrinkSummary.empty()) {
        os << "  " << f.shrinkSummary << "\n";
      } else {
        os << "  failing config: " << writeJson(f.minimalConfig) << "\n";
      }
    }
  }
  os << "\n" << (failures == 0 ? "oracle relations: PASS" : "oracle relations: FAIL") << "\n";
  return os.str();
}

}  // namespace hcsim::oracle
