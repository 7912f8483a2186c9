#pragma once
// DaosModel — the hcsim::daos disaggregated object store, the fifth
// FileSystemModel and the first built on hcsim::transport end to end.
//
// Data path:
//
//   client NIC -> [transport fabric lanes] -> target xstream queue
//     -> target NVMe/PMEM partition link
//
// Architecture facts the model encodes (per the DAOS paper):
//  * the unit of service is the *target* (an engine-managed NVMe/PMEM
//    partition); a pool is a set of targets, objects hash over the live
//    targets — no central metadata server in the data path;
//  * each target serves RPCs through a pool of service xstreams — a
//    c-server queue in front of the bulk transfer, so incast onto one
//    target queues there rather than being smoothed away;
//  * replication is client-driven: a write fans out to the redundancy
//    group's targets (each replica is a full RPC + bulk through the
//    client's transport endpoint), completing when the slowest replica
//    acks; reads are served by one live replica;
//  * all-flash: random access keeps ~randomEfficiency of sequential.
//
// Chaos: component "target" supports fail / fail-slow / restore;
// placement skips failed targets (reads and writes redirect to
// survivors), and a restore's rebuild traffic re-replicates over the
// restored target's partition link.

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "daos/daos_config.hpp"
#include "device/device_queue.hpp"
#include "fs/storage_base.hpp"

namespace hcsim {

class DaosModel final : public StorageModelBase {
 public:
  DaosModel(Simulator& sim, Topology& topo, DaosConfig config, std::vector<LinkId> clientNics,
            std::uint64_t rngSeed = 0xda05ull);

  const DaosConfig& config() const { return cfg_; }

  void submit(const IoRequest& req, IoCallback cb) override;
  Bytes totalCapacity() const override { return cfg_.totalCapacity(); }
  std::size_t clientParallelism() const override { return cfg_.fabric.lanes; }

  /// The config-embedded endpoint profile: DAOS always routes through
  /// hcsim::transport, so an empty "transport" section merges nothing
  /// and is byte-identical to no section at all.
  transport::TransportProfile declaredTransportProfile() const override { return cfg_.fabric; }

  // ---- Failure injection (hcsim::chaos) ----
  /// "target" supports fail / fail-slow / restore. Fail removes the
  /// target from placement and stalls its in-flight bulk transfers;
  /// fail-slow scales its partition link to `severity`; restore heals
  /// both. Submitting with every target failed throws.
  bool applyFault(const FaultSpec& f) override;
  std::size_t faultComponentCount(const std::string& component) const override;
  /// Rebuild after a restore: re-replication writes into the restored
  /// target's partition, competing with foreground bulk traffic.
  Route rebuildRoute(const FaultSpec& restored) override;

  std::size_t aliveTargets() const { return cfg_.totalTargets() - failedTargets_.size(); }

  // ---- Introspection (tests, reports) ----
  std::uint64_t placementSkips() const { return placementSkips_; }
  std::uint64_t replicaWrites() const { return replicaWrites_; }

  void exportMetrics(telemetry::MetricsRegistry& reg) const override;

 protected:
  void onPhaseChange() override;

 private:
  struct Target {
    LinkId link{};
    DeviceQueue xstreams;
  };

  /// Deterministic object placement: hash the object id onto the ring,
  /// then probe forward past failed targets (each hop counts a skip).
  std::size_t primaryTarget(std::uint64_t objectId);
  /// The write redundancy group: up to redundancyGroupSize distinct
  /// live targets starting at the primary.
  std::vector<std::size_t> writeGroup(std::uint64_t objectId);

  void serveAt(std::size_t targetIdx, const IoRequest& req, Bytes bytes, Seconds perOp,
               IoCallback cb);

  DaosConfig cfg_;
  std::vector<Target> targets_;
  std::set<std::size_t> failedTargets_;
  std::map<std::size_t, double> slowTargets_;  ///< index -> fail-slow severity

  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t replicaWrites_ = 0;
  std::uint64_t placementSkips_ = 0;
};

}  // namespace hcsim
