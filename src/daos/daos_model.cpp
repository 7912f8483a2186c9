#include "daos/daos_model.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "telemetry/metrics_registry.hpp"

namespace hcsim {

namespace {

/// splitmix64 finalizer — a cheap, well-mixed deterministic hash so
/// object placement is uniform over the targets and stable across runs.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

DaosModel::DaosModel(Simulator& sim, Topology& topo, DaosConfig config,
                     std::vector<LinkId> clientNics, std::uint64_t rngSeed)
    : StorageModelBase(sim, topo, config.name, std::move(clientNics), rngSeed),
      cfg_(std::move(config)) {
  cfg_.validate();
  targets_.reserve(cfg_.totalTargets());
  for (std::size_t i = 0; i < cfg_.totalTargets(); ++i) {
    targets_.push_back({topology().addLink("daos.target.t" + std::to_string(i),
                                           cfg_.targetBandwidth, 0.0),
                        DeviceQueue(sim, cfg_.xstreamsPerTarget)});
  }
  // dkey/akey lookups are served by the target engines themselves — no
  // separate metadata server tier stands in the data path.
  configureMetadataPath(cfg_.totalTargets(), cfg_.metadataServiceTime, cfg_.fabric.baseRtt,
                        cfg_.metadataSharedDirPenalty);
  configureSharedFilePenalty(cfg_.sharedFileLockLatency, cfg_.sharedFileEfficiency);
}

void DaosModel::onPhaseChange() {
  const double eff = isSequential(phase().pattern) ? 1.0 : cfg_.randomEfficiency;
  FlowNetwork& net = topology().network();
  for (const Target& t : targets_) net.setLinkCapacity(t.link, cfg_.targetBandwidth * eff);
}

std::size_t DaosModel::primaryTarget(std::uint64_t objectId) {
  const std::size_t n = cfg_.totalTargets();
  std::size_t idx = static_cast<std::size_t>(mix64(objectId) % n);
  for (std::size_t hop = 0; hop < n; ++hop) {
    const std::size_t probe = (idx + hop) % n;
    if (failedTargets_.count(probe) == 0) {
      placementSkips_ += hop;
      return probe;
    }
  }
  throw std::runtime_error("DaosModel: no live target to place object on");
}

std::vector<std::size_t> DaosModel::writeGroup(std::uint64_t objectId) {
  const std::size_t n = cfg_.totalTargets();
  const std::size_t first = primaryTarget(objectId);
  std::vector<std::size_t> group;
  group.reserve(cfg_.redundancyGroupSize);
  for (std::size_t hop = 0; hop < n && group.size() < cfg_.redundancyGroupSize; ++hop) {
    const std::size_t probe = (first + hop) % n;
    if (failedTargets_.count(probe) == 0) group.push_back(probe);
  }
  return group;  // shrinks below redundancyGroupSize only when few targets survive
}

void DaosModel::serveAt(std::size_t targetIdx, const IoRequest& req, Bytes bytes, Seconds perOp,
                        IoCallback cb) {
  Target& target = targets_[targetIdx];  // vector never resizes after ctor
  target.xstreams.submit(cfg_.targetServiceTime,
                          [this, &target, req, bytes, perOp, cb = std::move(cb)]() mutable {
                            Route route{clientNic(req.client.node), target.link};
                            launchTransfer(req, bytes, route, cfg_.targetBandwidth, perOp, 0.0,
                                           std::move(cb));
                          });
}

void DaosModel::submit(const IoRequest& req, IoCallback cb) {
  if (aliveTargets() == 0) throw std::runtime_error("DaosModel: all targets failed");
  const bool read = isRead(req.pattern);
  // Epoch commit per fsync'd op; DAOS has no client page cache to flush,
  // so the cost is a fixed commit latency, not a device FLUSH.
  const Seconds perOp = (!read && req.fsync) ? cfg_.fsyncLatency : 0.0;
  if (read) {
    ++reads_;
    serveAt(primaryTarget(req.fileId), req, req.bytes, perOp, std::move(cb));
    return;
  }
  ++writes_;
  const std::vector<std::size_t> group = writeGroup(req.fileId);
  replicaWrites_ += group.size();
  if (group.size() == 1) {
    serveAt(group.front(), req, req.bytes, perOp, std::move(cb));
    return;
  }
  // Client-driven replication: each replica is a full RPC + bulk through
  // the client's endpoint; the write acks when the slowest replica
  // lands. Aggregate payload bytes are reported once (replica copies are
  // redundancy, not goodput).
  struct FanOut {
    SimTime start = 0.0;
    SimTime end = 0.0;
  };
  auto state = std::make_shared<FanOut>();
  state->start = simulator().now();
  const Bytes aggregate = req.bytes * std::max<std::uint32_t>(1, req.members);
  auto barrier = completionBarrier(group.size(), [state, aggregate, cb = std::move(cb)] {
    if (cb) cb(IoResult{state->start, state->end, aggregate});
  });
  for (std::size_t idx : group) {
    serveAt(idx, req, req.bytes, perOp, [state, barrier](const IoResult& r) {
      state->end = std::max(state->end, r.endTime);
      barrier();
    });
  }
}

bool DaosModel::applyFault(const FaultSpec& f) {
  if (f.component != "target") return false;
  if (f.index >= targets_.size()) {
    throw std::out_of_range("DaosModel: target index " + std::to_string(f.index) +
                            " out of range (have " + std::to_string(targets_.size()) + ")");
  }
  FlowNetwork& net = topology().network();
  switch (f.action) {
    case FaultAction::Fail:
      failedTargets_.insert(f.index);
      slowTargets_.erase(f.index);
      net.failLink(targets_[f.index].link);
      break;
    case FaultAction::FailSlow:
      slowTargets_[f.index] = f.severity;
      net.setLinkHealth(targets_[f.index].link, f.severity);
      break;
    case FaultAction::Restore:
      failedTargets_.erase(f.index);
      slowTargets_.erase(f.index);
      net.restoreLink(targets_[f.index].link);
      break;
  }
  return true;
}

std::size_t DaosModel::faultComponentCount(const std::string& component) const {
  return component == "target" ? targets_.size() : 0;
}

Route DaosModel::rebuildRoute(const FaultSpec& restored) {
  if (restored.component != "target" || restored.index >= targets_.size()) return {};
  // Re-replication streams into the restored target's partition,
  // competing with foreground bulk traffic on that link.
  return Route{targets_[restored.index].link};
}

void DaosModel::exportMetrics(telemetry::MetricsRegistry& reg) const {
  StorageModelBase::exportMetrics(reg);
  reg.gauge("daos.targets", static_cast<double>(targets_.size()));
  reg.gauge("daos.targets_alive", static_cast<double>(aliveTargets()));
  reg.gauge("daos.redundancy_group", static_cast<double>(cfg_.redundancyGroupSize));
  reg.counter("daos.reads", static_cast<double>(reads_));
  reg.counter("daos.writes", static_cast<double>(writes_));
  reg.counter("daos.replica_writes", static_cast<double>(replicaWrites_));
  reg.counter("daos.placement_skips", static_cast<double>(placementSkips_));
  std::uint64_t completed = 0;
  std::size_t queued = 0;
  std::size_t busy = 0;
  for (const Target& t : targets_) {
    completed += t.xstreams.completed();
    queued += t.xstreams.queued();
    busy += t.xstreams.busy();
  }
  reg.counter("daos.xstream.ops_completed", static_cast<double>(completed));
  reg.gauge("daos.xstream.queued", static_cast<double>(queued));
  reg.gauge("daos.xstream.busy", static_cast<double>(busy));
}

}  // namespace hcsim
