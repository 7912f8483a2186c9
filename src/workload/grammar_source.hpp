#pragma once
// GrammarSource — FBench-style access patterns as a small context-free
// grammar of pattern productions, parsed from the JSON "workload"
// section. A grammar is a map of named rules; each rule is a list of
// productions:
//
//   "ruleName"                                  expand another rule
//   {"rule": "r", "repeat": N}                  expand it N times
//   {"op": "read"|"write", "bytes": B,          an I/O leaf: `count`
//    "count": N, "pattern": "seq"|"strided"|    requests of B bytes in
//    "random", "stride": S, "fsync": true,      the given pattern
//    "shared": true}
//   {"op": "open"|"sync", "shared": true}       a metadata leaf
//   {"compute": seconds}                        a pure compute delay
//   {"barrier": true}                           all ranks rendezvous
//
// Expansion starts at the "start" rule (default "main"), is checked for
// cycles (rules must form a DAG) and flattened once at parse time; each
// rank then replays the same template with its own rng/cursor state, so
// patterns — not just sizes — become sweepable axes. Each production
// takes only its own shape's keys. Validation returns one actionable
// line per problem, never an exception.

#include <string>
#include <vector>

#include "config/range.hpp"
#include "util/json.hpp"
#include "util/random.hpp"
#include "workload/workload_source.hpp"

namespace hcsim::workload {

/// One flattened leaf of the expanded grammar.
struct GrammarOp {
  OpKind kind = OpKind::Io;
  bool read = false;
  Bytes bytes = 0;
  /// seq: advance the cursor by `bytes`; strided: by `stride`; random:
  /// a fresh uniformly drawn aligned offset inside the file.
  enum class Pattern { Seq, Strided, Random } pattern = Pattern::Seq;
  Bytes stride = 0;
  bool fsync = false;
  bool shared = false;
  MetaOp metaOp = MetaOp::Open;
  Seconds compute = 0.0;
};

struct GrammarSpec {
  std::size_t nodes = 1;
  std::size_t procsPerNode = 1;
  std::uint64_t seed = 0x6ea33a7ull;
  /// Per-rank file extent random offsets are drawn inside.
  Bytes fileBytes = 64 * units::MiB;
  std::string start = "main";  ///< the rule expansion starts at
  std::vector<GrammarOp> ops;  ///< the expanded template, shared by ranks

  std::size_t totalRanks() const { return nodes * procsPerNode; }
};

/// The grammar section's scalar keys; its "rules" go to the expander.
template <class IO>
void fields(IO& io, GrammarSpec& s) {
  io("nodes", s.nodes, kCount);
  io("procsPerNode", s.procsPerNode, kCount);
  io("seed", s.seed);
  io("fileBytes", s.fileBytes, kPositive);
  io("start", s.start);
}

/// Parse and expand the "workload" section of a grammar spec (its
/// "generator" key is the caller's). On failure, appends one actionable
/// line per problem to `problems` and returns false. `where` prefixes
/// the messages (e.g. "workload").
bool parseGrammarSpec(const JsonValue& workload, const std::string& where, GrammarSpec& out,
                      std::vector<std::string>& problems);

class GrammarSource : public WorkloadSource {
 public:
  explicit GrammarSource(GrammarSpec spec) : spec_(std::move(spec)) {}

  const std::string& name() const override { return name_; }
  WorkloadPlan load(const WorkloadContext& ctx) override;
  NextStatus next(std::size_t rank, WorkloadOp& out) override;
  void onComplete(std::size_t rank, const WorkloadOp& op, const IoResult& result) override;

 private:
  struct RankState {
    ClientId client{};
    std::size_t next = 0;  ///< index into spec_.ops
    Bytes cursor = 0;
    Rng rng;
    bool pending = false;
  };

  std::string name_ = "grammar";
  GrammarSpec spec_;
  std::vector<RankState> ranks_;
};

}  // namespace hcsim::workload
