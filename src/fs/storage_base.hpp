#pragma once
// StorageModelBase — plumbing shared by the VAST/GPFS/Lustre/NVMe models:
// simulator + topology references, per-compute-node client NIC links, the
// current phase, and the flow-launch helper that converts an IoRequest
// into a rate-capped flow over a route.

#include <string>
#include <vector>

#include "device/device_queue.hpp"
#include "fs/file_system_model.hpp"
#include "fs/model_support.hpp"
#include "net/topology.hpp"
#include "util/random.hpp"

namespace hcsim {

class StorageModelBase : public FileSystemModel {
 public:
  StorageModelBase(Simulator& sim, Topology& topo, std::string name,
                   std::vector<LinkId> clientNics, std::uint64_t rngSeed);

  const std::string& name() const override { return name_; }

  void beginPhase(const PhaseSpec& phase) override;
  void endPhase() override;

  /// Shared metadata-path implementation (see configureMetadataPath).
  /// Each op pays the client round trip, then queues at one of the
  /// metadata servers; shared-directory ops serialize on one server and
  /// pay a lock penalty.
  void submitMeta(const MetaRequest& req, IoCallback cb) override;

  const PhaseSpec& phase() const { return phase_; }
  bool inPhase() const { return inPhase_; }

  /// Export the shared metadata-path state ("<name>.meta.*"). Subclass
  /// overrides call this and add their own "<name>.*" metrics.
  void exportMetrics(telemetry::MetricsRegistry& reg) const override;

  /// Route launchTransfer flows through `fabric` (nullptr detaches).
  /// With no fabric attached the launch path is byte-identical to a
  /// build without hcsim::transport.
  void setTransport(transport::TransportFabric* fabric) override { fabric_ = fabric; }
  transport::TransportFabric* transport() const { return fabric_; }

  Simulator& simulator() { return sim_; }
  const Simulator& simulator() const { return sim_; }
  Topology& topology() { return topo_; }
  const Topology& topology() const { return topo_; }

 protected:
  /// NIC link of compute node `node` (wraps around if more nodes are used
  /// than NICs were wired — callers should size clientNics correctly).
  LinkId clientNic(std::uint32_t node) const;
  std::size_t clientNodeCount() const { return clientNics_.size(); }

  /// Launch one transfer: `bytes` over `route`, with per-flow ceiling
  /// `streamCap` (infinity = none) degraded by `perOpOverhead` of dead
  /// time per underlying operation (the request carries `ops` operations
  /// of size bytes/ops each). The cap is multiplied by req.streams and by
  /// `streamScale` — a split request (e.g. the cache-hit portion of a
  /// read) passes its byte fraction so the portions share, not double,
  /// the per-process ceiling. req.members > 1 launches a flow class:
  /// `bytes` per member under the per-member cap, with `members` fair
  /// shares of contended links (hcsim::scale). Completion invokes `cb`
  /// with an IoResult carrying the aggregate bytes.
  void launchTransfer(const IoRequest& req, Bytes bytes, const Route& route, Bandwidth streamCap,
                      Seconds perOpOverhead, Seconds startupLatency, IoCallback cb,
                      double streamScale = 1.0);

  /// Hook for subclasses: reconfigure pattern-dependent link capacities.
  virtual void onPhaseChange() = 0;

  /// Configure the N-1 shared-file penalty applied by launchTransfer to
  /// requests with `sharedFile` set: `lockLatency` extra dead time per
  /// op plus a multiplicative `efficiency` (<= 1) on the stream cap.
  /// Defaults are zero-cost (models without byte-range locking).
  void configureSharedFilePenalty(Seconds lockLatency, double efficiency);

  /// Shrink/grow the active metadata-server prefix (failure injection).
  /// Ops route over servers [0, n); queues stay alive so in-flight
  /// operations complete safely. Clamped to [1, configured servers].
  void setActiveMetadataServers(std::size_t n);
  std::size_t activeMetadataServers() const {
    return metaActive_ ? metaActive_ : metaQueues_.size();
  }

  /// Set up the metadata service: `servers` parallel single-server
  /// queues, `serviceTime` per op, reached after `clientLatency`.
  /// Shared-directory ops all land on server 0 and take
  /// `sharedDirPenalty` x serviceTime (directory lock ping-pong).
  /// Subclass constructors call this once; until then submitMeta
  /// completes after clientLatency only.
  void configureMetadataPath(std::size_t servers, Seconds serviceTime, Seconds clientLatency,
                             double sharedDirPenalty = 2.0);

  Rng& rng() { return rng_; }

 private:
  Simulator& sim_;
  Topology& topo_;
  std::string name_;
  std::vector<LinkId> clientNics_;
  transport::TransportFabric* fabric_ = nullptr;
  Rng rng_;
  PhaseSpec phase_{};
  bool inPhase_ = false;

  // Metadata path.
  std::vector<DeviceQueue> metaQueues_;
  std::size_t metaActive_ = 0;  // 0 = all configured servers
  Seconds metaServiceTime_ = 0.0;
  Seconds metaClientLatency_ = 0.0;
  double metaSharedDirPenalty_ = 1.0;

  // N-1 shared-file penalty.
  Seconds sharedFileLockLatency_ = 0.0;
  double sharedFileEfficiency_ = 1.0;
};

}  // namespace hcsim
