#include "nvme/nvme_local.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "config/fields.hpp"
#include "telemetry/metrics_registry.hpp"

namespace hcsim {

namespace {
constexpr Bandwidth kUncapped = std::numeric_limits<Bandwidth>::infinity();
}

void NvmeLocalConfig::validate() const { requireFields(*this, "NvmeLocalConfig"); }

NvmeLocalConfig NvmeLocalConfig::wombatInstance() {
  return NvmeLocalConfig{};  // defaults describe Wombat's 3x 970 PRO nodes
}

NvmeLocalModel::NvmeLocalModel(Simulator& sim, Topology& topo, NvmeLocalConfig config,
                               std::vector<LinkId> clientNics, std::uint64_t rngSeed)
    : StorageModelBase(sim, topo, config.name, std::move(clientNics), rngSeed),
      cfg_(std::move(config)),
      pool_(cfg_.drive, cfg_.drivesPerNode) {
  cfg_.validate();
  configureMetadataPath(clientNodeCount(), cfg_.metadataServiceTime, cfg_.syscallLatency,
                        /*sharedDirPenalty=*/1.0);
  configureSharedFilePenalty(cfg_.sharedFileLockLatency, cfg_.sharedFileEfficiency);
}

void NvmeLocalModel::submitMeta(const MetaRequest& req, IoCallback cb) {
  MetaRequest local = req;
  local.sharedDirectory = false;
  // Spread by issuing node: each node's kernel is its own metadata server.
  local.fileId = req.client.node;
  StorageModelBase::submitMeta(local, std::move(cb));
}

NvmeLocalModel::NodeState& NvmeLocalModel::nodeState(std::uint32_t node) {
  auto it = nodes_.find(node);
  if (it != nodes_.end()) return it->second;
  NodeState st;
  st.readLink = topology().addLink(cfg_.name + ".n" + std::to_string(node) + ".read",
                                   pool_.effectiveBandwidth(AccessPattern::SequentialRead,
                                                            units::MiB));
  st.writeLink = topology().addLink(cfg_.name + ".n" + std::to_string(node) + ".write",
                                    pool_.effectiveBandwidth(AccessPattern::SequentialWrite,
                                                             units::MiB));
  st.pageCache = std::make_unique<WritebackBuffer>(
      cfg_.dirtyLimitBytes,
      pool_.effectiveBandwidth(AccessPattern::SequentialWrite, units::MiB));
  auto [ins, ok] = nodes_.emplace(node, std::move(st));
  configureNode(ins->second);
  return ins->second;
}

bool NvmeLocalModel::applyFault(const FaultSpec& f) {
  if (f.component != "drive") return false;
  if (f.index >= clientNodeCount()) throw std::out_of_range("nvme: drive index out of range");
  NodeState& st = nodeState(static_cast<std::uint32_t>(f.index));
  FlowNetwork& net = topology().network();
  const double health = f.action == FaultAction::Fail      ? 0.0
                        : f.action == FaultAction::FailSlow ? f.severity
                                                            : 1.0;
  net.setLinkHealth(st.readLink, health);
  net.setLinkHealth(st.writeLink, health);
  return true;
}

std::size_t NvmeLocalModel::faultComponentCount(const std::string& component) const {
  return component == "drive" ? clientNodeCount() : 0;
}

Route NvmeLocalModel::rebuildRoute(const FaultSpec& restored) {
  return {nodeState(static_cast<std::uint32_t>(restored.index)).writeLink};
}

Bandwidth NvmeLocalModel::syncWriteBandwidth(Bytes reqSize) const {
  const double req = std::max<double>(1.0, static_cast<double>(reqSize));
  const Seconds perOp = cfg_.flushLatency + cfg_.drive.writeLatency + req / cfg_.drive.writeBandwidth;
  return req / perOp * static_cast<double>(cfg_.drivesPerNode);
}

Bandwidth NvmeLocalModel::writebackBandwidth(Bytes perNodeBytes, Bytes reqSize,
                                             const NodeState& st) const {
  const Bandwidth deviceRate = pool_.effectiveBandwidth(AccessPattern::SequentialWrite, reqSize);
  if (perNodeBytes == 0) return deviceRate;
  const double total = static_cast<double>(perNodeBytes);
  const Bytes dirtyNow = st.pageCache->dirty(simulator().now());
  const double headroom =
      static_cast<double>(cfg_.dirtyLimitBytes > dirtyNow ? cfg_.dirtyLimitBytes - dirtyNow : 0);
  // Absorb `headroom` at memory speed; the remainder throttles to device
  // rate (the kernel's dirty throttling).
  const double tMem = total / cfg_.memoryBandwidth;
  const double throttled = std::max(0.0, total - headroom);
  const double time = std::max(tMem, throttled / deviceRate);
  return time > 0.0 ? total / time : cfg_.memoryBandwidth;
}

void NvmeLocalModel::configureNode(NodeState& st) {
  const PhaseSpec& ph = phase();
  const Bytes req = ph.requestSize ? ph.requestSize : units::MiB;
  FlowNetwork& net = topology().network();

  const AccessPattern readPattern =
      isSequential(ph.pattern) ? AccessPattern::SequentialRead : AccessPattern::RandomRead;
  net.setLinkCapacity(st.readLink, pool_.effectiveBandwidth(readPattern, req));

  Bandwidth writeCap;
  if (ph.fsync) {
    writeCap = syncWriteBandwidth(req);
  } else {
    const Bytes perNode =
        ph.workingSetBytes > 0 && ph.nodes > 0 ? ph.workingSetBytes / ph.nodes : 0;
    writeCap = writebackBandwidth(perNode, req, st);
  }
  net.setLinkCapacity(st.writeLink, writeCap);
}

void NvmeLocalModel::onPhaseChange() {
  for (auto& [node, st] : nodes_) configureNode(st);
}

Bandwidth NvmeLocalModel::nodeWriteCapacity(std::uint32_t node) const {
  const auto it = nodes_.find(node);
  return it == nodes_.end() ? 0.0 : topology().network().link(it->second.writeLink).capacity;
}

Bandwidth NvmeLocalModel::nodeReadCapacity(std::uint32_t node) const {
  const auto it = nodes_.find(node);
  return it == nodes_.end() ? 0.0 : topology().network().link(it->second.readLink).capacity;
}

void NvmeLocalModel::exportMetrics(telemetry::MetricsRegistry& reg) const {
  StorageModelBase::exportMetrics(reg);
  const std::string& n = name();
  reg.gauge(n + ".nodes.active", static_cast<double>(nodes_.size()));
  // Sum in node order: unordered_map iteration order must not leak into
  // the (floating-point) total.
  std::vector<std::uint32_t> ids;
  ids.reserve(nodes_.size());
  for (const auto& [node, st] : nodes_) ids.push_back(node);
  std::sort(ids.begin(), ids.end());
  double dirty = 0.0;
  const SimTime now = simulator().now();
  for (std::uint32_t node : ids) {
    const NodeState& st = nodes_.at(node);
    if (st.pageCache) dirty += static_cast<double>(st.pageCache->dirty(now));
  }
  reg.gauge(n + ".pagecache.dirty_bytes", dirty);
}

void NvmeLocalModel::submit(const IoRequest& req, IoCallback cb) {
  if (req.bytes == 0) {
    const SimTime start = simulator().now();
    simulator().schedule(cfg_.syscallLatency, [cb = std::move(cb), start, this] {
      if (cb) cb(IoResult{start, simulator().now(), 0});
    });
    return;
  }

  NodeState& st = nodeState(req.client.node);
  const bool rd = isRead(req.pattern);
  Route route{rd ? st.readLink : st.writeLink};

  Seconds perOp = cfg_.syscallLatency;
  if (rd) {
    perOp += pool_.requestLatency(req.pattern);
  } else if (req.fsync) {
    // The flush serialization is already in the link capacity; charge the
    // submission latency only.
    perOp += cfg_.drive.writeLatency;
  }

  if (!rd && !req.fsync) {
    // A flow class dirties every member's payload in the page cache.
    st.pageCache->absorb(req.bytes * req.members, simulator().now());
  }

  launchTransfer(req, req.bytes, route, kUncapped, perOp, cfg_.syscallLatency, std::move(cb));
}


transport::TransportProfile NvmeLocalModel::declaredTransportProfile() const {
  transport::TransportProfile p = transport::TransportProfile::rdma();
  p.lanes = std::max<std::size_t>(1, cfg_.drivesPerNode);
  p.baseRtt = units::usec(10);
  return p;
}

}  // namespace hcsim
