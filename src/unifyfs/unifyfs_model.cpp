#include "unifyfs/unifyfs_model.hpp"

#include <algorithm>

#include "config/fields.hpp"
#include "fs/model_support.hpp"

namespace hcsim {

namespace {
constexpr Bandwidth kUncapped = std::numeric_limits<Bandwidth>::infinity();
}

const char* toString(UnifyFsPlacement p) {
  switch (p) {
    case UnifyFsPlacement::LocalFirst: return "local-first";
    case UnifyFsPlacement::Striped: return "striped";
  }
  return "?";
}

void UnifyFsConfig::validate() const { requireFields(*this, "UnifyFsConfig"); }

UnifyFsModel::UnifyFsModel(Simulator& sim, Topology& topo, UnifyFsConfig config,
                           std::vector<LinkId> clientNics, std::uint64_t rngSeed)
    : StorageModelBase(sim, topo, config.name, std::move(clientNics), rngSeed),
      cfg_(std::move(config)),
      spill_(cfg_.spillDevice, cfg_.spillDevicesPerNode) {
  cfg_.validate();
  // Extent metadata through the distributed KV: one server per node.
  configureMetadataPath(clientNodeCount(), cfg_.metadataLatency, cfg_.localRpcLatency,
                        /*sharedDirPenalty=*/1.5);
  // UnifyFS has no POSIX byte-range locks — N-1 is its design center.
  configureSharedFilePenalty(units::usec(20), 0.97);
}

UnifyFsModel::NodeState& UnifyFsModel::nodeState(std::uint32_t node) {
  auto it = nodes_.find(node);
  if (it != nodes_.end()) return it->second;
  NodeState st;
  st.deviceLink = topology().addLink(
      cfg_.name + ".n" + std::to_string(node) + ".log",
      spill_.effectiveBandwidth(AccessPattern::SequentialWrite, units::MiB));
  st.serverLink = topology().addLink(
      cfg_.name + ".n" + std::to_string(node) + ".server",
      static_cast<double>(cfg_.serverThreadsPerNode) * cfg_.serverThreadBandwidth);
  st.shmem = std::make_unique<WritebackBuffer>(
      cfg_.shmemBytes, spill_.effectiveBandwidth(AccessPattern::SequentialWrite, units::MiB));
  auto [ins, ok] = nodes_.emplace(node, std::move(st));
  configureNode(ins->second);
  return ins->second;
}

void UnifyFsModel::configureNode(NodeState& st) {
  const PhaseSpec& ph = phase();
  const Bytes req = ph.requestSize ? ph.requestSize : units::MiB;
  const AccessPattern devPattern = isRead(ph.pattern)
                                       ? (isSequential(ph.pattern)
                                              ? AccessPattern::SequentialRead
                                              : AccessPattern::RandomRead)
                                       : AccessPattern::SequentialWrite;
  Bandwidth cap = spill_.effectiveBandwidth(devPattern, req);
  // Shmem front absorbs bursts at memory speed while it has room.
  if (!isRead(ph.pattern)) {
    const Bytes dirty = st.shmem->dirty(simulator().now());
    if (dirty < cfg_.shmemBytes) cap = std::max(cap, cfg_.memoryBandwidth);
  }
  topology().network().setLinkCapacity(st.deviceLink, cap);
}

void UnifyFsModel::onPhaseChange() {
  for (auto& [node, st] : nodes_) configureNode(st);
}

void UnifyFsModel::submit(const IoRequest& req, IoCallback cb) {
  if (req.bytes == 0) {
    const SimTime start = simulator().now();
    simulator().schedule(cfg_.metadataLatency, [cb = std::move(cb), start, this] {
      if (cb) cb(IoResult{start, simulator().now(), 0});
    });
    return;
  }

  const bool rd = isRead(req.pattern);
  const std::size_t nodeCount = std::max<std::size_t>(1, phase().nodes);
  // Which fraction of this request's bytes live on the issuing node?
  double localFraction;
  if (cfg_.placement == UnifyFsPlacement::Striped) {
    localFraction = 1.0 / static_cast<double>(nodeCount);
  } else {
    // Local-first: data is wherever the writer ran. Reads by a different
    // client (the paper's cache-defeating setup) are fully remote.
    localFraction = (rd && phase().readerDiffersFromWriter && nodeCount > 1) ? 0.0 : 1.0;
  }

  const Bytes localBytes =
      static_cast<Bytes>(static_cast<double>(req.bytes) * localFraction);
  const Bytes remoteBytes = req.bytes - localBytes;

  NodeState& local = nodeState(req.client.node);
  if (!rd) local.shmem->absorb(localBytes, simulator().now());

  struct Join {
    IoCallback cb;
    SimTime start = 0.0;
    SimTime end = 0.0;
    Bytes bytes = 0;
    int outstanding = 0;
  };
  auto join = std::make_shared<Join>();
  join->cb = std::move(cb);
  join->start = simulator().now();
  auto part = [join](const IoResult& r) {
    join->end = std::max(join->end, r.endTime);
    join->bytes += r.bytes;
    if (--join->outstanding == 0 && join->cb) {
      join->cb(IoResult{join->start, join->end, join->bytes});
    }
  };
  if (localBytes > 0) ++join->outstanding;
  if (remoteBytes > 0) ++join->outstanding;

  if (localBytes > 0) {
    // Local path: shmem ipc + log device; no NIC.
    IoRequest sub = req;
    sub.bytes = localBytes;
    sub.ops = std::max<std::uint64_t>(1, req.ops * localBytes / req.bytes);
    const double frac = static_cast<double>(localBytes) / static_cast<double>(req.bytes);
    launchTransfer(sub, localBytes, Route{local.deviceLink}, kUncapped,
                   cfg_.localRpcLatency + cfg_.metadataLatency, cfg_.localRpcLatency, part,
                   frac);
  }
  if (remoteBytes > 0) {
    // Remote path: this node's NIC + the peer pool. Peers are spread, so
    // model the remote end as the peer's device link (round-robin pick).
    const std::uint32_t peer =
        (req.client.node + 1 + req.client.proc % (nodeCount - 1 ? nodeCount - 1 : 1)) %
        static_cast<std::uint32_t>(nodeCount);
    NodeState& owner = nodeState(peer);
    Route route{clientNic(req.client.node), clientNic(peer), owner.serverLink,
                owner.deviceLink};
    IoRequest sub = req;
    sub.bytes = remoteBytes;
    sub.ops = std::max<std::uint64_t>(1, req.ops * remoteBytes / req.bytes);
    const double frac = static_cast<double>(remoteBytes) / static_cast<double>(req.bytes);
    launchTransfer(sub, remoteBytes, route, kUncapped,
                   cfg_.remoteRpcLatency + cfg_.metadataLatency, cfg_.remoteRpcLatency, part,
                   frac);
  }
}

void UnifyFsModel::flushToBackingStore(FileSystemModel& backing, Bytes bytesPerNode,
                                       std::function<void()> done) {
  const std::size_t nodes = clientNodeCount();
  FileSystemModel* backingPtr = &backing;
  auto barrier = completionBarrier(nodes, [backingPtr, done = std::move(done)] {
    backingPtr->endPhase();
    if (done) done();
  });
  PhaseSpec ph;
  ph.pattern = AccessPattern::SequentialWrite;
  ph.requestSize = units::MiB;
  ph.nodes = static_cast<std::uint32_t>(nodes);
  ph.procsPerNode = 1;
  ph.workingSetBytes = bytesPerNode * nodes;
  backing.beginPhase(ph);
  for (std::uint32_t n = 0; n < nodes; ++n) {
    IoRequest req;
    req.client = ClientId{n, 0};
    req.fileId = 0x0f5000 + n;
    req.bytes = bytesPerNode;
    req.pattern = AccessPattern::SequentialWrite;
    req.ops = std::max<Bytes>(1, bytesPerNode / units::MiB);
    backing.submit(req, [barrier](const IoResult&) { barrier(); });
  }
}

}  // namespace hcsim
