#include "workload/grammar_source.hpp"

#include <algorithm>
#include <set>

#include "config/fields.hpp"

namespace hcsim::workload {

namespace {

// Expansion ceiling: a repeat-heavy DAG can explode combinatorially;
// refuse instead of silently eating memory.
constexpr std::size_t kMaxExpandedOps = 1u << 20;

struct Expander {
  const JsonObject* rules = nullptr;
  std::vector<std::string> stack;  ///< rule names on the expansion path
  GrammarSpec* out = nullptr;
  std::vector<std::string>* problems = nullptr;
  std::string where;

  bool fail(const std::string& msg) {
    problems->push_back(msg);
    return false;
  }

  /// False, naming it, when a production holds a key its shape does not
  /// take.
  bool onlyKeys(const JsonValue& prod, const std::string& at,
                std::initializer_list<const char*> keys) {
    for (const auto& [key, v] : *prod.object()) {
      if (!isOneOf(key, keys)) return fail(at + "." + key + ": unknown key");
    }
    return true;
  }

  std::string knownRules() const {
    std::string s;
    for (const auto& [name, v] : *rules) {
      if (!s.empty()) s += ", ";
      s += name;
    }
    return s;
  }

  bool expandRule(const std::string& name) {
    const auto it = rules->find(name);
    if (it == rules->end()) {
      return fail(where + ".rules: unknown production '" + name + "' (known rules: " +
                  knownRules() + ")");
    }
    if (std::find(stack.begin(), stack.end(), name) != stack.end()) {
      std::string path;
      for (const std::string& s : stack) path += s + " -> ";
      return fail(where + ".rules." + name + ": cyclic expansion (" + path + name +
                  "); grammar rules must form a DAG");
    }
    const JsonArray* prods = it->second.array();
    if (prods == nullptr) {
      return fail(where + ".rules." + name + ": a rule must be an array of productions");
    }
    stack.push_back(name);
    for (std::size_t i = 0; i < prods->size(); ++i) {
      if (!expandProduction(name, i, (*prods)[i])) return false;
    }
    stack.pop_back();
    return true;
  }

  bool expandProduction(const std::string& rule, std::size_t idx, const JsonValue& prod) {
    const std::string at = where + ".rules." + rule + "[" + std::to_string(idx) + "]";
    if (out->ops.size() > kMaxExpandedOps) {
      return fail(where + ".rules: expansion exceeds " + std::to_string(kMaxExpandedOps) +
                  " ops; reduce 'repeat'/'count' factors");
    }
    if (prod.isString()) return expandRule(*prod.str());
    if (!prod.isObject()) {
      return fail(at + ": a production must be a rule name or an object");
    }
    if (const JsonValue* rule2 = prod.find("rule")) {
      if (!onlyKeys(prod, at, {"rule", "repeat"})) return false;
      if (!rule2->isString()) return fail(at + ": 'rule' must be a string");
      const double repeat = prod.numberOr("repeat", 1.0);
      if (repeat < 1.0 || repeat != static_cast<double>(static_cast<std::uint64_t>(repeat))) {
        return fail(at + ": 'repeat' must be a positive integer");
      }
      for (std::uint64_t r = 0; r < static_cast<std::uint64_t>(repeat); ++r) {
        if (!expandRule(*rule2->str())) return false;
      }
      return true;
    }
    if (const JsonValue* compute = prod.find("compute")) {
      if (!onlyKeys(prod, at, {"compute"})) return false;
      if (!compute->isNumber() || *compute->number() < 0.0) {
        return fail(at + ": 'compute' must be a non-negative number of seconds");
      }
      GrammarOp op;
      op.kind = OpKind::Compute;
      op.compute = *compute->number();
      out->ops.push_back(op);
      return true;
    }
    if (prod.find("barrier") != nullptr) {
      if (!onlyKeys(prod, at, {"barrier"})) return false;
      if (!prod.boolOr("barrier", false)) return fail(at + ": 'barrier' must be true");
      GrammarOp op;
      op.kind = OpKind::Barrier;
      out->ops.push_back(op);
      return true;
    }
    const JsonValue* opName = prod.find("op");
    if (opName == nullptr || !opName->isString()) {
      return fail(at + ": a production needs 'op', 'rule', 'compute' or 'barrier'");
    }
    const std::string& kind = *opName->str();
    if (kind == "open" || kind == "sync") {
      if (!onlyKeys(prod, at, {"op", "shared"})) return false;
      GrammarOp op;
      op.kind = OpKind::Meta;
      op.metaOp = kind == "open" ? MetaOp::Open : MetaOp::Close;
      op.shared = prod.boolOr("shared", false);
      out->ops.push_back(op);
      return true;
    }
    if (kind != "read" && kind != "write") {
      return fail(at + ": unknown op '" + kind + "' (expected read, write, open or sync)");
    }
    if (!onlyKeys(prod, at, {"op", "bytes", "count", "pattern", "stride", "fsync", "shared"})) {
      return false;
    }
    GrammarOp op;
    op.kind = OpKind::Io;
    op.read = kind == "read";
    const double bytes = prod.numberOr("bytes", 0.0);
    if (bytes <= 0.0) return fail(at + ": zero-size op: 'bytes' must be > 0");
    op.bytes = static_cast<Bytes>(bytes);
    const std::string pattern = prod.stringOr("pattern", "seq");
    if (pattern == "seq") {
      op.pattern = GrammarOp::Pattern::Seq;
    } else if (pattern == "strided") {
      op.pattern = GrammarOp::Pattern::Strided;
    } else if (pattern == "random") {
      op.pattern = GrammarOp::Pattern::Random;
    } else {
      return fail(at + ": unknown pattern '" + pattern +
                  "' (expected seq, strided or random)");
    }
    op.stride = static_cast<Bytes>(prod.numberOr("stride", static_cast<double>(op.bytes * 2)));
    if (op.pattern == GrammarOp::Pattern::Strided && op.stride < op.bytes) {
      return fail(at + ": 'stride' must be >= 'bytes' for strided ops");
    }
    op.fsync = prod.boolOr("fsync", false);
    op.shared = prod.boolOr("shared", false);
    const double count = prod.numberOr("count", 1.0);
    if (count < 1.0 || count != static_cast<double>(static_cast<std::uint64_t>(count))) {
      return fail(at + ": 'count' must be a positive integer");
    }
    for (std::uint64_t c = 0; c < static_cast<std::uint64_t>(count); ++c) {
      if (out->ops.size() > kMaxExpandedOps) {
        return fail(where + ".rules: expansion exceeds " + std::to_string(kMaxExpandedOps) +
                    " ops; reduce 'repeat'/'count' factors");
      }
      out->ops.push_back(op);
    }
    return true;
  }
};

}  // namespace

bool parseGrammarSpec(const JsonValue& workload, const std::string& where, GrammarSpec& out,
                      std::vector<std::string>& problems) {
  out = GrammarSpec{};
  if (std::string e = readFields(workload, out, where, {"generator", "rules"}); !e.empty()) {
    problems.push_back(std::move(e));
    return false;
  }
  const JsonValue* rules = workload.find("rules");
  if (rules == nullptr || rules->object() == nullptr) {
    problems.push_back(where + ".rules: required object mapping rule names to productions");
    return false;
  }
  Expander ex;
  ex.rules = rules->object();
  ex.out = &out;
  ex.problems = &problems;
  ex.where = where;
  if (!ex.expandRule(out.start)) return false;
  if (out.ops.empty()) {
    problems.push_back(where + ".rules: the grammar expands to zero ops");
    return false;
  }
  return true;
}

WorkloadPlan GrammarSource::load(const WorkloadContext& ctx) {
  (void)ctx;
  ranks_.resize(spec_.totalRanks());
  for (std::uint32_t n = 0; n < spec_.nodes; ++n) {
    for (std::uint32_t p = 0; p < spec_.procsPerNode; ++p) {
      const std::size_t rank = n * spec_.procsPerNode + p;
      RankState& st = ranks_[rank];
      st.client = ClientId{n, p};
      st.rng.reseed(spec_.seed ^ ((rank + 1) * 0x9e3779b97f4a7c15ull));
    }
  }

  WorkloadPlan plan;
  plan.ranks = ranks_.size();
  plan.collectOpLatency = true;
  plan.phase.nodes = static_cast<std::uint32_t>(spec_.nodes);
  plan.phase.procsPerNode = static_cast<std::uint32_t>(spec_.procsPerNode);
  plan.phase.readerDiffersFromWriter = false;
  plan.phase.workingSetBytes = spec_.fileBytes * spec_.totalRanks();
  plan.phase.requestSize = units::MiB;  // placeholder for compute-only grammars
  // Declare the phase from the first I/O leaf (the model only needs a
  // representative pattern/request size; ops carry their own geometry).
  for (const GrammarOp& op : spec_.ops) {
    if (op.kind != OpKind::Io) continue;
    plan.phase.requestSize = op.bytes;
    plan.phase.fsync = op.fsync;
    switch (op.pattern) {
      case GrammarOp::Pattern::Seq:
        plan.phase.pattern =
            op.read ? AccessPattern::SequentialRead : AccessPattern::SequentialWrite;
        break;
      case GrammarOp::Pattern::Strided:
      case GrammarOp::Pattern::Random:
        plan.phase.pattern = op.read ? AccessPattern::RandomRead : AccessPattern::RandomWrite;
        break;
    }
    break;
  }
  return plan;
}

NextStatus GrammarSource::next(std::size_t rank, WorkloadOp& out) {
  RankState& st = ranks_[rank];
  if (st.pending) return NextStatus::Wait;
  if (st.next >= spec_.ops.size()) return NextStatus::End;
  const GrammarOp& op = spec_.ops[st.next++];

  switch (op.kind) {
    case OpKind::Barrier:
      out.kind = OpKind::Barrier;
      out.switchPhase = false;
      return NextStatus::Op;
    case OpKind::Compute:
      out.kind = OpKind::Compute;
      out.compute = op.compute;
      out.traced = true;
      out.label = "grammar.compute";
      out.tracePid = st.client.node;
      out.traceTid = st.client.proc;
      st.pending = true;
      return NextStatus::Op;
    case OpKind::Meta:
      out.kind = OpKind::Meta;
      out.meta.client = st.client;
      out.meta.op = op.metaOp;
      out.meta.fileId = op.shared ? 0 : rank + 1;
      out.meta.sharedDirectory = op.shared;
      st.pending = true;
      return NextStatus::Op;
    case OpKind::Io:
      break;
  }

  out.kind = OpKind::Io;
  out.io.client = st.client;
  out.io.fileId = op.shared ? 0 : rank + 1;
  out.io.sharedFile = op.shared;
  out.io.bytes = op.bytes;
  out.io.ops = 1;
  out.io.fsync = op.fsync;
  switch (op.pattern) {
    case GrammarOp::Pattern::Seq:
      out.io.pattern = op.read ? AccessPattern::SequentialRead : AccessPattern::SequentialWrite;
      out.io.offset = st.cursor % spec_.fileBytes;
      st.cursor += op.bytes;
      break;
    case GrammarOp::Pattern::Strided:
      out.io.pattern = op.read ? AccessPattern::RandomRead : AccessPattern::RandomWrite;
      out.io.offset = st.cursor % spec_.fileBytes;
      st.cursor += op.stride;
      break;
    case GrammarOp::Pattern::Random: {
      out.io.pattern = op.read ? AccessPattern::RandomRead : AccessPattern::RandomWrite;
      const std::uint64_t slots = std::max<std::uint64_t>(1, spec_.fileBytes / op.bytes);
      out.io.offset = st.rng.uniformInt(slots) * static_cast<std::uint64_t>(op.bytes);
      break;
    }
  }
  out.traced = true;
  out.label = op.read ? "grammar.read" : "grammar.write";
  out.tracePid = st.client.node;
  out.traceTid = st.client.proc;
  st.pending = true;
  return NextStatus::Op;
}

void GrammarSource::onComplete(std::size_t rank, const WorkloadOp& op, const IoResult& result) {
  (void)op;
  (void)result;
  ranks_[rank].pending = false;
}

}  // namespace hcsim::workload
