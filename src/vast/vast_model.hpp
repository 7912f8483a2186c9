#pragma once
// VastModel — discrete-event model of the VAST DataStore (paper §III-A).
//
// Data path, mirroring Fig 1a:
//
//   client NIC -> NFS session link(s) -> [Ethernet gateway (TCP only)]
//     -> CNode -> NVMe-oF fabric -> {DNode cache | QLC pool, SCM pool}
//
// The architecture facts the model encodes:
//  * shared-everything: any CNode reaches any SSD, so data/device pools
//    are aggregated across DBoxes while CNodes stay individual ceilings;
//  * stateless CNodes: a read never consults another CNode (no
//    coordination latency term);
//  * writes land in mirrored SCM (fast ack) and migrate to QLC in the
//    background, paying similarity-reduction + compression CPU on the
//    CNode (lower per-CNode write ceiling);
//  * the NFS frontend is the paper's decisive variable: one TCP session
//    per client mount through a gateway pool (LC clusters) vs RDMA with
//    nconnect sessions and multipathing (Wombat).

#include <set>
#include <unordered_map>
#include <vector>

#include "cache/writeback_buffer.hpp"
#include "device/device_queue.hpp"
#include "fs/storage_base.hpp"
#include "vast/vast_config.hpp"

namespace hcsim {

class VastModel final : public StorageModelBase {
 public:
  /// `clientNics` — one injection link per compute node that may mount
  /// the store (index = node id).
  VastModel(Simulator& sim, Topology& topo, VastConfig config, std::vector<LinkId> clientNics,
            std::uint64_t rngSeed = 0x7a57da7aull);

  const VastConfig& config() const { return cfg_; }

  void submit(const IoRequest& req, IoCallback cb) override;
  Bytes totalCapacity() const override { return cfg_.totalCapacity(); }
  std::size_t clientParallelism() const override { return cfg_.sessionsPerClient(); }

  /// NFS frontend as a first-principles endpoint: kind follows the
  /// configured transport, lanes are the nconnect sessions, baseRtt is
  /// the configured RPC latency.
  transport::TransportProfile declaredTransportProfile() const override;

  // ---- Failure injection (HA semantics of §III-A) ----
  //
  // CNodes are stateless containers: a failed CNode's NFS sessions fail
  // over to the survivors (virtual-IP migration) — capacity shrinks, no
  // data is lost. Each DBox is a High Availability enclosure with two
  // DNodes: losing ONE DNode halves that box's fabric paths; losing the
  // whole box removes its SSDs from the pools. All methods re-rate
  // in-flight transfers immediately.

  /// Fail/restore a CNode (index < config().cnodes). Idempotent.
  void failCNode(std::size_t index);
  void restoreCNode(std::size_t index);
  std::size_t failedCNodes() const { return failedCNodes_.size(); }
  std::size_t aliveCNodes() const { return cfg_.cnodes - failedCNodes_.size(); }

  /// Declarative fault hook (hcsim::chaos): "cnode" supports
  /// fail/fail-slow/restore (fail-slow scales the CNode link's health);
  /// "dnode"/"dbox" are HA enclosures, fail/restore only.
  bool applyFault(const FaultSpec& f) override;
  std::size_t faultComponentCount(const std::string& component) const override;
  /// Rebuild after a restore: QLC resync reads over the NVMe-oF fabric —
  /// shared-everything keeps rebuild off the CNode/session frontend.
  Route rebuildRoute(const FaultSpec& restored) override;

  /// Fail/restore one DNode of a box (HA degradation) or the whole box.
  void failDNode(std::size_t box);
  void restoreDNode(std::size_t box);
  void failDBox(std::size_t box);
  void restoreDBox(std::size_t box);
  std::size_t failedDBoxes() const { return failedBoxes_.size(); }
  std::size_t aliveDBoxes() const { return cfg_.dboxes - failedBoxes_.size(); }

  // ---- Introspection (tests, reports) ----
  /// Read-cache hit ratio in effect for the current phase.
  double phaseReadCacheHitRatio() const { return hitRatio_; }
  /// Current aggregate device-pool capacities (client-visible bytes/s).
  Bandwidth deviceReadCapacity() const;
  Bandwidth deviceWriteCapacity() const;
  /// SCM write-buffer occupancy now.
  Bytes scmDirtyBytes() const { return scm_.dirty(simulator().now()); }

  void exportMetrics(telemetry::MetricsRegistry& reg) const override;

 protected:
  void onPhaseChange() override;

 private:
  const std::vector<LinkId>& sessionsFor(std::uint32_t node);
  std::size_t cnodeFor(std::uint32_t node, std::size_t session) const;
  Route baseRoute(const IoRequest& req, std::size_t session);

  /// Recompute fabric/device/CNode capacities for the current failure
  /// set and phase.
  void applyDegradation();
  double boxFraction() const;  ///< alive device fraction in [0,1]
  double fabricFraction() const;

  void submitRead(const IoRequest& req, IoCallback cb);
  void submitWrite(const IoRequest& req, IoCallback cb);

  VastConfig cfg_;
  std::vector<LinkId> cnodeLinks_;
  LinkId fabricLink_{};
  LinkId deviceReadLink_{};
  LinkId deviceWriteLink_{};
  GroupId gatewayGroup_{};
  std::unordered_map<std::uint32_t, std::vector<LinkId>> sessions_;
  std::vector<DeviceQueue> cnodeCommitQueues_;
  SsdArray qlcPool_;
  SsdArray scmPool_;
  WritebackBuffer scm_;  ///< SCM occupancy: raw bytes awaiting QLC migration
  double hitRatio_ = 0.0;

  std::set<std::size_t> failedCNodes_;
  std::set<std::size_t> failedBoxes_;       ///< whole enclosure down
  std::set<std::size_t> degradedBoxes_;     ///< one of two DNodes down
};

}  // namespace hcsim
