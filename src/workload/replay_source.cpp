#include "workload/replay_source.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "config/fields.hpp"

namespace hcsim::workload {

ReplaySource::ReplaySource(TraceLog input, const ReplayConfig& cfg)
    : input_(std::move(input)), cfg_(cfg) {
  requireFields(cfg_, "ReplayConfig");
}

WorkloadPlan ReplaySource::load(const WorkloadContext& ctx) {
  (void)ctx;
  // Group events by pid (ascending), ordered by start time within a pid.
  std::map<std::uint32_t, std::vector<const TraceEvent*>> byPid;
  for (const TraceEvent& e : input_.events()) byPid[e.pid].push_back(&e);

  ranks_.clear();
  ranks_.reserve(byPid.size());
  for (auto& [pid, evs] : byPid) {
    std::stable_sort(evs.begin(), evs.end(),
                     [](const TraceEvent* a, const TraceEvent* b) { return a->start < b->start; });
    RankState st;
    st.pid = pid;
    st.client = ClientId{static_cast<std::uint32_t>(pid / cfg_.pidsPerNode),
                         static_cast<std::uint32_t>(pid % cfg_.pidsPerNode)};
    st.events = std::move(evs);
    ranks_.push_back(std::move(st));
  }

  WorkloadPlan plan;
  plan.ranks = ranks_.size();
  plan.phase.pattern = AccessPattern::RandomRead;
  plan.phase.requestSize = cfg_.transferSize;
  plan.phase.nodes = static_cast<std::uint32_t>(
      (ranks_.size() + cfg_.pidsPerNode - 1) / cfg_.pidsPerNode);
  if (plan.phase.nodes == 0) plan.phase.nodes = 1;
  plan.phase.procsPerNode = static_cast<std::uint32_t>(cfg_.pidsPerNode);
  plan.phase.workingSetBytes = input_.totalBytes(TraceEventKind::Read);
  return plan;
}

NextStatus ReplaySource::next(std::size_t rank, WorkloadOp& out) {
  RankState& st = ranks_[rank];
  if (st.pending) return NextStatus::Wait;
  while (st.next < st.events.size()) {
    const TraceEvent& ev = *st.events[st.next++];
    if (ev.kind == TraceEventKind::Compute) {
      if (ev.duration < 0) {
        ++skipped_;  // malformed: a span cannot run backwards
        continue;
      }
      if (!cfg_.replayCompute || ev.duration == 0) continue;
      out.kind = OpKind::Compute;
      out.compute = ev.duration;
      out.traced = true;
      out.label = ev.name;
      out.tracePid = st.pid;
      out.traceTid = ev.tid;
      st.pending = true;
      return NextStatus::Op;
    }
    if (ev.kind == TraceEventKind::Read || ev.kind == TraceEventKind::Write) {
      if (ev.bytes == 0) {
        ++skipped_;  // malformed: an I/O record that moved nothing
        continue;
      }
      out.kind = OpKind::Io;
      out.io.client = st.client;
      out.io.fileId = (static_cast<std::uint64_t>(st.pid) << 24) + ++st.fileCounter;
      out.io.offset = 0;
      out.io.bytes = ev.bytes;
      out.io.pattern = ev.kind == TraceEventKind::Read ? AccessPattern::RandomRead
                                                       : AccessPattern::SequentialWrite;
      out.io.ops = std::max<std::uint64_t>(1, ev.bytes / cfg_.transferSize);
      out.traced = true;
      out.label = ev.name;
      out.tracePid = st.pid;
      out.traceTid = ev.tid;
      st.pending = true;
      return NextStatus::Op;
    }
    // Other event kinds are not replayable by design; skip silently.
  }
  return NextStatus::End;
}

void ReplaySource::onComplete(std::size_t rank, const WorkloadOp& op, const IoResult& result) {
  (void)op;
  (void)result;
  ranks_[rank].pending = false;
}

}  // namespace hcsim::workload
