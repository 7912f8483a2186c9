#pragma once
// MetamorphicRelation — machine-checkable statements of the paper's
// relative claims, evaluated over seeded config generators.
//
// A relation names a storage system, a relation kind, and two functions:
// `generate` expands a case seed into an ordered set of sibling trial
// configs, and `verdict` judges the metrics that came back. Cases are
// executed through hcsim::sweep's parallel trial batch, so a suite run
// is deterministic in its seed whatever the job count. Monotonic
// relations that fail are shrunk: the offending axis interval is
// bisected down to the minimal failing config (oracle/shrink.hpp), and
// each probe pair is judged by the relation's own verdict.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sweep/sweep_runner.hpp"
#include "util/json.hpp"

namespace hcsim::oracle {

enum class RelationKind {
  Monotonic,      ///< metric non-decreasing along a config axis
  ScaleInvariant, ///< metric invariant under a scale transformation
  Conservation,   ///< a physical budget or byte count is conserved
  Determinism,    ///< identical / reseeded runs agree
  Dominance,      ///< one pattern or system dominates another
};

const char* toString(RelationKind k);

/// One generated case: sibling trial configs derived from one base.
/// Monotonic relations also name the perturbed axis and its ordered
/// numeric values (variant i has `axis` set to `axisValues[i]`), which
/// is what the shrinker bisects.
struct RelationCase {
  JsonValue base;
  std::vector<JsonValue> variants;
  std::string axis;
  std::vector<double> axisValues;
};

struct CaseVerdict {
  bool pass = true;
  std::string detail;  ///< why it failed; empty on pass
};

struct MetamorphicRelation {
  std::string name;        ///< e.g. "lustre.read-monotone-in-stripe-count"
  std::string storage;     ///< vast | gpfs | lustre | nvme
  std::string experiment = "ior";
  RelationKind kind = RelationKind::Monotonic;
  bool integerAxis = false;
  std::string claim;       ///< the paper claim this relation encodes
  std::function<RelationCase(std::uint64_t caseSeed)> generate;
  std::function<CaseVerdict(const RelationCase&, const std::vector<sweep::TrialMetrics>&)> verdict;
};

class RelationRegistry {
 public:
  void add(MetamorphicRelation r);
  const std::vector<MetamorphicRelation>& all() const { return relations_; }
  const MetamorphicRelation* find(const std::string& name) const;

  /// The built-in catalog: the paper's VAST/GPFS/Lustre/NVMe physics.
  static const RelationRegistry& builtin();

 private:
  std::vector<MetamorphicRelation> relations_;
};

struct CaseFailure {
  std::size_t caseIndex = 0;
  std::string detail;
  JsonValue minimalConfig;   ///< shrunk when possible, else the failing variant
  std::string shrinkSummary; ///< empty when shrinking was not applicable
};

struct RelationReport {
  std::string relation;
  std::string storage;
  RelationKind kind = RelationKind::Monotonic;
  std::size_t cases = 0;
  std::size_t failures = 0;
  std::size_t trials = 0;    ///< simulator trials spent (incl. shrinking)
  std::vector<CaseFailure> failureDetails;  ///< capped at options.maxFailuresDetailed
  bool pass() const { return failures == 0; }
};

struct SuiteOptions {
  std::size_t casesPerRelation = 50;
  std::uint64_t seed = 1;
  std::size_t jobs = 0;  ///< 0 = sweep::defaultJobs()
  std::size_t maxFailuresDetailed = 3;
  bool shrink = true;
  /// Optional trial memoization. Relations repeatedly evaluate shared
  /// baseline configs (determinism/scale-invariance pairs, suite re-runs
  /// with overlapping case seeds), so a shared or persisted cache skips
  /// those simulations; reports are byte-identical either way.
  sweep::TrialCache* cache = nullptr;
};

/// Evaluate one relation over `casesPerRelation` seeded cases.
RelationReport runRelation(const MetamorphicRelation& rel, const SuiteOptions& options);

/// Evaluate every relation of the registry, in registry order.
std::vector<RelationReport> runSuite(const RelationRegistry& registry,
                                     const SuiteOptions& options);

/// Deterministic human-readable suite summary (no timings, no job
/// counts — byte-identical across runs and whatever the parallelism).
std::string toMarkdown(const std::vector<RelationReport>& reports);

}  // namespace hcsim::oracle
