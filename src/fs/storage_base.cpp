#include "fs/storage_base.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "telemetry/metrics_registry.hpp"
#include "transport/transport.hpp"

namespace hcsim {

StorageModelBase::StorageModelBase(Simulator& sim, Topology& topo, std::string name,
                                   std::vector<LinkId> clientNics, std::uint64_t rngSeed)
    : sim_(sim),
      topo_(topo),
      name_(std::move(name)),
      clientNics_(std::move(clientNics)),
      rng_(rngSeed) {
  if (clientNics_.empty()) {
    throw std::invalid_argument("StorageModelBase: at least one client NIC required");
  }
}

void StorageModelBase::configureSharedFilePenalty(Seconds lockLatency, double efficiency) {
  if (efficiency <= 0.0 || efficiency > 1.0) {
    throw std::invalid_argument("configureSharedFilePenalty: efficiency must be in (0,1]");
  }
  sharedFileLockLatency_ = lockLatency;
  sharedFileEfficiency_ = efficiency;
}

void StorageModelBase::configureMetadataPath(std::size_t servers, Seconds serviceTime,
                                             Seconds clientLatency, double sharedDirPenalty) {
  if (servers == 0) throw std::invalid_argument("configureMetadataPath: servers must be > 0");
  metaQueues_.clear();
  metaQueues_.reserve(servers);
  for (std::size_t i = 0; i < servers; ++i) {
    metaQueues_.emplace_back(sim_, 1);
  }
  metaServiceTime_ = serviceTime;
  metaClientLatency_ = clientLatency;
  metaSharedDirPenalty_ = sharedDirPenalty;
}

void StorageModelBase::setActiveMetadataServers(std::size_t n) {
  if (metaQueues_.empty()) return;
  metaActive_ = std::clamp<std::size_t>(n, 1, metaQueues_.size());
}

void StorageModelBase::submitMeta(const MetaRequest& req, IoCallback cb) {
  const SimTime start = sim_.now();
  auto finish = [this, start, cb = std::move(cb)] {
    if (cb) cb(IoResult{start, sim_.now(), 0});
  };
  if (metaQueues_.empty()) {
    sim_.schedule(metaClientLatency_, std::move(finish));
    return;
  }
  // Client round trip, then queue at the owning metadata server (within
  // the active prefix — failure injection shrinks it).
  const std::size_t active = activeMetadataServers();
  const std::size_t server =
      req.sharedDirectory ? 0 : static_cast<std::size_t>(req.fileId) % active;
  const Seconds service =
      metaServiceTime_ * (req.sharedDirectory ? metaSharedDirPenalty_ : 1.0);
  sim_.schedule(metaClientLatency_, [this, server, service, finish = std::move(finish)]() mutable {
    metaQueues_[server].submit(service, std::move(finish));
  });
}

void StorageModelBase::exportMetrics(telemetry::MetricsRegistry& reg) const {
  double queued = 0.0;
  double busy = 0.0;
  double completed = 0.0;
  for (const DeviceQueue& q : metaQueues_) {
    queued += static_cast<double>(q.queued());
    busy += static_cast<double>(q.busy());
    completed += static_cast<double>(q.completed());
  }
  if (!metaQueues_.empty()) {
    reg.counter(name_ + ".meta.ops_completed", completed);
    reg.gauge(name_ + ".meta.queued", queued);
    reg.gauge(name_ + ".meta.busy", busy);
    reg.gauge(name_ + ".meta.servers_active", static_cast<double>(activeMetadataServers()));
  }
}

void StorageModelBase::beginPhase(const PhaseSpec& phase) {
  phase_ = phase;
  inPhase_ = true;
  onPhaseChange();
}

void StorageModelBase::endPhase() { inPhase_ = false; }

LinkId StorageModelBase::clientNic(std::uint32_t node) const {
  return clientNics_[node % clientNics_.size()];
}

void StorageModelBase::launchTransfer(const IoRequest& req, Bytes bytes, const Route& route,
                                      Bandwidth streamCap, Seconds perOpOverhead,
                                      Seconds startupLatency, IoCallback cb,
                                      double streamScale) {
  FlowSpec spec;
  spec.bytes = bytes;
  spec.route = route;
  const Bytes perOp = req.ops > 0 ? req.bytes / req.ops : req.bytes;
  if (req.sharedFile) perOpOverhead += sharedFileLockLatency_;
  // The cap is per process stream; an aggregated flow carries
  // `req.streams` of them (scaled down for split portions).
  spec.rateCap = perOp > 0 ? overheadAdjustedCap(streamCap, perOpOverhead, perOp) : streamCap;
  spec.rateCap *= static_cast<double>(std::max<std::uint32_t>(1, req.streams)) * streamScale;
  if (req.sharedFile) spec.rateCap *= sharedFileEfficiency_;
  spec.weight = req.qosWeight;
  // Flow-class aggregation: the cap/weight above are per member; the
  // class transfers `bytes` per member and claims `members` fair shares.
  spec.members = std::max<std::uint32_t>(1, req.members);
  spec.startupLatency = startupLatency;
  telemetry::Telemetry* tel = topo_.network().telemetry();
  if (tel && tel->enabled()) {
    spec.spanName = name_ + (isRead(req.pattern) ? ".read" : ".write");
    spec.spanPid = req.client.node;
    spec.spanTid = req.client.proc;
  }
  auto complete = [cb = std::move(cb)](const FlowCompletion& done) {
    if (cb) cb(IoResult{done.startTime, done.endTime, done.bytes});
  };
  if (fabric_) {
    fabric_->launch(std::move(spec), req, std::move(complete));
    return;
  }
  topo_.network().startFlow(spec, std::move(complete));
}

}  // namespace hcsim
