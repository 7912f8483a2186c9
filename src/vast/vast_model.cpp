#include "vast/vast_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "telemetry/metrics_registry.hpp"

namespace hcsim {

namespace {
constexpr Bandwidth kUncapped = std::numeric_limits<Bandwidth>::infinity();
}

VastModel::VastModel(Simulator& sim, Topology& topo, VastConfig config,
                     std::vector<LinkId> clientNics, std::uint64_t rngSeed)
    : StorageModelBase(sim, topo, config.name, std::move(clientNics), rngSeed),
      cfg_(std::move(config)),
      qlcPool_(cfg_.qlcSpec, cfg_.dboxes * cfg_.qlcPerBox),
      scmPool_(cfg_.scmSpec, cfg_.dboxes * cfg_.scmPerBox),
      scm_(cfg_.totalScmBytes(),
           // Background migration drains raw client bytes at the QLC
           // programming rate inflated by the similarity reduction (only
           // (1 - reduction) of each byte is physically written).
           qlcPool_.effectiveBandwidth(AccessPattern::SequentialWrite, units::MiB) /
               (1.0 - cfg_.dataReductionRatio)) {
  cfg_.validate();
  // Metadata: any CNode resolves any element directly from SCM.
  configureMetadataPath(cfg_.cnodes, cfg_.metadataServiceTime, cfg_.rpcLatency(),
                        cfg_.metadataSharedDirPenalty);
  configureSharedFilePenalty(cfg_.sharedFileLockLatency, cfg_.sharedFileEfficiency);
  Topology& t = topology();

  cnodeLinks_.reserve(cfg_.cnodes);
  cnodeCommitQueues_.reserve(cfg_.cnodes);
  for (std::size_t i = 0; i < cfg_.cnodes; ++i) {
    cnodeLinks_.push_back(t.addLink(cfg_.name + ".cnode[" + std::to_string(i) + "]",
                                    cfg_.cnodeReadBandwidth));
    cnodeCommitQueues_.push_back(std::make_unique<DeviceQueue>(
        sim, 1, cfg_.name + ".commit[" + std::to_string(i) + "]"));
  }

  fabricLink_ = t.addLink(cfg_.name + ".fabric",
                          static_cast<double>(cfg_.dboxes * cfg_.fabricLinksPerBox) *
                              cfg_.fabricLinkBandwidth,
                          cfg_.fabricLatency);

  deviceReadLink_ = t.addLink(cfg_.name + ".qlc.read",
                              qlcPool_.effectiveBandwidth(AccessPattern::SequentialRead,
                                                          units::MiB));
  deviceWriteLink_ = t.addLink(cfg_.name + ".scm.write",
                               scmPool_.effectiveBandwidth(AccessPattern::SequentialWrite,
                                                           units::MiB));

  if (cfg_.gateway.present) {
    // One link per gateway NODE: physical Ethernet aggregate, further
    // clamped by the single-TCP-pipe ceiling for TCP deployments.
    Bandwidth perGw = static_cast<double>(cfg_.gateway.linksPerNode) * cfg_.gateway.linkBandwidth;
    if (cfg_.transport == NfsTransport::Tcp) perGw = std::min(perGw, cfg_.tcpGatewayPipeCap);
    gatewayGroup_ = t.addGroup(cfg_.name + ".gw", cfg_.gateway.nodes, perGw, cfg_.gateway.latency);
  }
}

const std::vector<LinkId>& VastModel::sessionsFor(std::uint32_t node) {
  auto it = sessions_.find(node);
  if (it != sessions_.end()) return it->second;
  std::vector<LinkId> links;
  const std::size_t n = cfg_.sessionsPerClient();
  links.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    links.push_back(topology().addLink(
        cfg_.name + ".sess.n" + std::to_string(node) + "[" + std::to_string(s) + "]",
        cfg_.sessionCap()));
  }
  return sessions_.emplace(node, std::move(links)).first->second;
}

std::size_t VastModel::cnodeFor(std::uint32_t node, std::size_t session) const {
  const std::size_t hash = static_cast<std::size_t>(node) * cfg_.sessionsPerClient() + session;
  if (failedCNodes_.empty()) return hash % cfg_.cnodes;
  // Virtual-IP failover: sessions remap onto the surviving CNodes.
  std::vector<std::size_t> alive;
  alive.reserve(cfg_.cnodes - failedCNodes_.size());
  for (std::size_t i = 0; i < cfg_.cnodes; ++i) {
    if (!failedCNodes_.count(i)) alive.push_back(i);
  }
  if (alive.empty()) {
    throw std::runtime_error(cfg_.name + ": all CNodes failed — store unavailable");
  }
  return alive[hash % alive.size()];
}

double VastModel::boxFraction() const {
  return static_cast<double>(cfg_.dboxes - failedBoxes_.size()) /
         static_cast<double>(cfg_.dboxes);
}

double VastModel::fabricFraction() const {
  double alive = 0.0;
  for (std::size_t b = 0; b < cfg_.dboxes; ++b) {
    if (failedBoxes_.count(b)) continue;
    alive += degradedBoxes_.count(b) ? 0.5 : 1.0;  // HA pair: one DNode left
  }
  return alive / static_cast<double>(cfg_.dboxes);
}

void VastModel::failCNode(std::size_t index) {
  if (index >= cfg_.cnodes) throw std::out_of_range("failCNode: bad index");
  failedCNodes_.insert(index);
  // NFS failover: in-flight operations retry against a surviving CNode
  // (virtual-IP migration); reroute their flows before the capacity drop
  // strands them.
  std::size_t survivor = cfg_.cnodes;
  for (std::size_t i = 0; i < cfg_.cnodes; ++i) {
    if (!failedCNodes_.count(i)) {
      survivor = i;
      break;
    }
  }
  if (survivor < cfg_.cnodes) {
    topology().network().replaceLinkInFlows(cnodeLinks_[index], cnodeLinks_[survivor]);
  }
  applyDegradation();
}

void VastModel::restoreCNode(std::size_t index) {
  failedCNodes_.erase(index);
  applyDegradation();
}

void VastModel::failDNode(std::size_t box) {
  if (box >= cfg_.dboxes) throw std::out_of_range("failDNode: bad box");
  degradedBoxes_.insert(box);
  applyDegradation();
}

void VastModel::restoreDNode(std::size_t box) {
  degradedBoxes_.erase(box);
  applyDegradation();
}

void VastModel::failDBox(std::size_t box) {
  if (box >= cfg_.dboxes) throw std::out_of_range("failDBox: bad box");
  failedBoxes_.insert(box);
  applyDegradation();
}

void VastModel::restoreDBox(std::size_t box) {
  failedBoxes_.erase(box);
  applyDegradation();
}

bool VastModel::applyFault(const FaultSpec& f) {
  FlowNetwork& net = topology().network();
  if (f.component == "cnode") {
    if (f.index >= cfg_.cnodes) throw std::out_of_range("vast: cnode index out of range");
    switch (f.action) {
      case FaultAction::Fail:
        failCNode(f.index);
        break;
      case FaultAction::FailSlow:
        net.setLinkHealth(cnodeLinks_[f.index], f.severity);
        break;
      case FaultAction::Restore:
        net.setLinkHealth(cnodeLinks_[f.index], 1.0);  // clears a fail-slow too
        restoreCNode(f.index);
        break;
    }
    return true;
  }
  if (f.component == "dnode" || f.component == "dbox") {
    if (f.index >= cfg_.dboxes) {
      throw std::out_of_range("vast: " + f.component + " index out of range");
    }
    const bool wholeBox = f.component == "dbox";
    switch (f.action) {
      case FaultAction::Fail:
        wholeBox ? failDBox(f.index) : failDNode(f.index);
        break;
      case FaultAction::Restore:
        wholeBox ? restoreDBox(f.index) : restoreDNode(f.index);
        break;
      case FaultAction::FailSlow:
        throw std::invalid_argument("vast: " + f.component +
                                    " is an HA enclosure: fail/restore only");
    }
    return true;
  }
  return false;
}

std::size_t VastModel::faultComponentCount(const std::string& component) const {
  if (component == "cnode") return cfg_.cnodes;
  if (component == "dnode" || component == "dbox") return cfg_.dboxes;
  return 0;
}

Route VastModel::rebuildRoute(const FaultSpec&) {
  return {fabricLink_, deviceReadLink_};
}

Route VastModel::baseRoute(const IoRequest& req, std::size_t session) {
  Route r;
  r.push_back(clientNic(req.client.node));
  r.push_back(sessionsFor(req.client.node)[session]);
  if (cfg_.gateway.present) {
    r.push_back(topology().pickAt(gatewayGroup_, req.client.node));
  }
  r.push_back(cnodeLinks_[cnodeFor(req.client.node, session)]);
  r.push_back(fabricLink_);
  return r;
}

void VastModel::applyDegradation() {
  const PhaseSpec& ph = phase();
  const Bytes req = ph.requestSize ? ph.requestSize : units::MiB;
  FlowNetwork& net = topology().network();
  const bool readPhase = !inPhase() || isRead(ph.pattern);

  for (std::size_t i = 0; i < cnodeLinks_.size(); ++i) {
    const Bandwidth cap = failedCNodes_.count(i)
                              ? 0.0
                              : (readPhase ? cfg_.cnodeReadBandwidth : cfg_.cnodeWriteBandwidth);
    net.setLinkCapacity(cnodeLinks_[i], cap);
  }

  net.setLinkCapacity(fabricLink_, static_cast<double>(cfg_.dboxes * cfg_.fabricLinksPerBox) *
                                       cfg_.fabricLinkBandwidth * fabricFraction());

  const double devFrac = boxFraction();
  net.setLinkCapacity(deviceReadLink_,
                      qlcPool_.effectiveBandwidth(
                          isSequential(ph.pattern) ? AccessPattern::SequentialRead
                                                   : AccessPattern::RandomRead,
                          req) *
                          devFrac);

  // Write pool: SCM absorbs at full speed while it has headroom; once
  // ~full, the client-visible rate collapses to the QLC migration rate.
  const Bytes dirty = scm_.dirty(simulator().now());
  const bool scmFull = dirty > cfg_.totalScmBytes() - cfg_.totalScmBytes() / 10;
  const Bandwidth writeCap =
      (scmFull ? scm_.drainRate()
               : scmPool_.effectiveBandwidth(AccessPattern::SequentialWrite, req)) *
      devFrac;
  net.setLinkCapacity(deviceWriteLink_, writeCap);
}

void VastModel::onPhaseChange() {
  const PhaseSpec& ph = phase();
  applyDegradation();

  // DNode read-cache hit ratio for this phase.
  if (isRead(ph.pattern)) {
    if (ph.workingSetBytes > 0 && cfg_.dnodeCacheBytes > 0) {
      hitRatio_ = std::min(1.0, static_cast<double>(cfg_.dnodeCacheBytes) /
                                    static_cast<double>(ph.workingSetBytes));
    } else {
      hitRatio_ = cfg_.defaultReadCacheHitRatio;
    }
  } else {
    hitRatio_ = 0.0;
  }
}

Bandwidth VastModel::deviceReadCapacity() const {
  return topology().network().link(deviceReadLink_).capacity;
}

Bandwidth VastModel::deviceWriteCapacity() const {
  return topology().network().link(deviceWriteLink_).capacity;
}

void VastModel::exportMetrics(telemetry::MetricsRegistry& reg) const {
  StorageModelBase::exportMetrics(reg);
  const std::string& n = name();
  reg.gauge(n + ".cache.read_hit_ratio", hitRatio_);
  reg.gauge(n + ".scm.dirty_bytes", static_cast<double>(scmDirtyBytes()));
  reg.gauge(n + ".device.read_capacity_bps", deviceReadCapacity());
  reg.gauge(n + ".device.write_capacity_bps", deviceWriteCapacity());
  reg.gauge(n + ".cnodes.alive", static_cast<double>(aliveCNodes()));
  reg.gauge(n + ".dboxes.alive", static_cast<double>(aliveDBoxes()));
  double queued = 0.0;
  double busy = 0.0;
  double committed = 0.0;
  for (const auto& q : cnodeCommitQueues_) {
    queued += static_cast<double>(q->queued());
    busy += static_cast<double>(q->busy());
    committed += static_cast<double>(q->completed());
  }
  reg.counter(n + ".cnode.commits_completed", committed);
  reg.gauge(n + ".cnode.commit_queued", queued);
  reg.gauge(n + ".cnode.commit_busy", busy);
}

void VastModel::submit(const IoRequest& req, IoCallback cb) {
  if (req.bytes == 0) {
    // Metadata-only op: one RPC round trip.
    const SimTime start = simulator().now();
    simulator().schedule(cfg_.rpcLatency(), [cb = std::move(cb), start, this] {
      if (cb) cb(IoResult{start, simulator().now(), 0});
    });
    return;
  }
  if (isRead(req.pattern)) {
    submitRead(req, std::move(cb));
  } else {
    submitWrite(req, std::move(cb));
  }
}

void VastModel::submitRead(const IoRequest& req, IoCallback cb) {
  const std::size_t session = req.client.proc % cfg_.sessionsPerClient();
  Route route = baseRoute(req, session);

  // Split the request into a cache-hit portion (served by DNode
  // NVRAM/SCM behind the fabric — skips the QLC pool) and a miss portion
  // (continues to QLC). Single ops resolve the draw individually; a
  // coalesced run — or a flow class, whose members sample the cache
  // independently — takes the deterministic fractional split.
  Bytes hitBytes;
  if (req.ops <= 1 && req.members <= 1) {
    hitBytes = rng().uniform() < hitRatio_ ? req.bytes : 0;
  } else {
    hitBytes = static_cast<Bytes>(std::llround(static_cast<double>(req.bytes) * hitRatio_));
  }
  const Bytes missBytes = req.bytes - hitBytes;

  // Every NFS op pays the network round trip over the mount path — in
  // particular the Ethernet gateway hop on the LC TCP deployments, which
  // is what makes small-transfer workloads so much slower there.
  const Seconds rpc = cfg_.rpcLatency() + topology().network().routeLatency(route);
  const Seconds hitOverhead = rpc + scmPool_.requestLatency(AccessPattern::RandomRead);
  const Seconds missOverhead = rpc + qlcPool_.requestLatency(req.pattern);

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

  if (hitBytes > 0) ++join->outstanding;
  if (missBytes > 0) ++join->outstanding;

  if (hitBytes > 0) {
    IoRequest sub = req;
    sub.bytes = hitBytes;
    sub.ops = std::max<std::uint64_t>(1, req.ops * hitBytes / req.bytes);
    const double frac = static_cast<double>(hitBytes) / static_cast<double>(req.bytes);
    launchTransfer(sub, hitBytes, route, kUncapped, hitOverhead, rpc, part, frac);
  }
  if (missBytes > 0) {
    Route missRoute = route;
    missRoute.push_back(deviceReadLink_);
    IoRequest sub = req;
    sub.bytes = missBytes;
    sub.ops = std::max<std::uint64_t>(1, req.ops * missBytes / req.bytes);
    const double frac = static_cast<double>(missBytes) / static_cast<double>(req.bytes);
    launchTransfer(sub, missBytes, missRoute, kUncapped, missOverhead, rpc, part, frac);
  }
}

void VastModel::submitWrite(const IoRequest& req, IoCallback cb) {
  const std::size_t session = req.client.proc % cfg_.sessionsPerClient();
  Route route = baseRoute(req, session);
  route.push_back(deviceWriteLink_);

  // A flow class absorbs every member's payload into the SCM buffer.
  scm_.absorb(req.bytes * req.members, simulator().now());

  // As on the read path, each op carries the mount path's round trip.
  const Seconds rpc = cfg_.rpcLatency() + topology().network().routeLatency(route);
  if (req.fsync && req.ops == 1 && req.members <= 1) {
    // Accurate path (used by the single-node fsync tests): transfer the
    // payload, then wait in the serialized per-CNode commit queue for the
    // stable-storage acknowledgement.
    const std::size_t cnode = cnodeFor(req.client.node, session);
    const Seconds commitService =
        cfg_.cnodeCommitService + cfg_.commitLatency +
        static_cast<double>(req.bytes) / cfg_.scmSpec.writeBandwidth;
    launchTransfer(req, req.bytes, route, kUncapped, rpc, rpc,
                   [this, cnode, commitService, cb = std::move(cb)](const IoResult& r) {
                     cnodeCommitQueues_[cnode]->submit(
                         commitService, [this, r, cb = std::move(cb)] {
                           if (cb) cb(IoResult{r.startTime, simulator().now(), r.bytes});
                         });
                   });
    return;
  }

  Seconds perOp = rpc;
  if (req.fsync) {
    // Coalesced fsync approximation: each op pays the commit path inline
    // (ignores cross-process queueing at the CNode; the IOR runner uses
    // the per-op path above for the paper's fsync experiments).
    const Bytes opBytes = req.bytes / std::max<std::uint64_t>(1, req.ops);
    perOp += cfg_.cnodeCommitService + cfg_.commitLatency +
             static_cast<double>(opBytes) / cfg_.scmSpec.writeBandwidth;
  }
  launchTransfer(req, req.bytes, route, kUncapped, perOp, rpc, std::move(cb));
}


transport::TransportProfile VastModel::declaredTransportProfile() const {
  transport::TransportProfile p = cfg_.transport == NfsTransport::Rdma
                                      ? transport::TransportProfile::rdma()
                                      : transport::TransportProfile::tcp();
  p.lanes = cfg_.sessionsPerClient();
  p.baseRtt = cfg_.rpcLatency();
  return p;
}

}  // namespace hcsim
