#pragma once
// NodeLocalNvme — Wombat's node-local storage (paper §IV-B): three
// Samsung 970 PRO SSDs per compute node on PCIe Gen3x4, mounted locally.
//
// Behaviours the model encodes:
//  * I/O never crosses the network — each node owns a private device
//    pool, so bandwidth scales embarrassingly with nodes (Fig 2b);
//  * the scalability test allows OS page-cache write-back ("to replicate
//    a realistic user scenario"), absorbing bursts at memory speed until
//    the dirty limit throttles to device rate;
//  * the single-node test fsyncs every write; consumer NVMe pays a
//    multi-ms FLUSH per fsync (no power-loss protection), which is why
//    VAST beats local NVMe by ~5x there (Fig 3d);
//  * remote data must first be copied to the reader (round-robin), which
//    the paper performs as uncounted setup — reads here are local.

#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/writeback_buffer.hpp"
#include "config/range.hpp"
#include "device/ssd.hpp"
#include "fs/storage_base.hpp"

namespace hcsim {

struct NvmeLocalConfig {
  std::string name = "NVMe";
  SsdSpec drive = SsdSpec::samsung970Pro();
  std::size_t drivesPerNode = 3;
  Bytes capacityPerDrive = units::TB;

  // OS page cache (write-back) per node.
  Bandwidth memoryBandwidth = units::gbs(30.0);
  /// Dirty throttle threshold (vm.dirty_ratio-style), bytes per node.
  Bytes dirtyLimitBytes = 50 * units::GB;

  /// FLUSH CACHE cost per fsync on a consumer NVMe drive.
  Seconds flushLatency = units::msec(2.5);
  Seconds syscallLatency = units::usec(15);
  /// Local-filesystem metadata op (dentry cache + journal).
  Seconds metadataServiceTime = units::usec(12);
  /// N-1 on a local fs: in-kernel inode lock only.
  Seconds sharedFileLockLatency = units::usec(40);
  double sharedFileEfficiency = 0.95;

  void validate() const;

  /// Wombat's node-local storage as described in the paper.
  static NvmeLocalConfig wombatInstance();
};

template <class IO>
void fields(IO& io, NvmeLocalConfig& c) {
  io("name", c.name);
  io("drive", c.drive);
  io("drivesPerNode", c.drivesPerNode, kCount);
  io("capacityPerDrive", c.capacityPerDrive, kPositive);
  io("memoryBandwidth", c.memoryBandwidth, kPositive);
  io("dirtyLimitBytes", c.dirtyLimitBytes, kPositive);
  io("flushLatency", c.flushLatency, kNonNegative);
  io("syscallLatency", c.syscallLatency, kNonNegative);
  io("metadataServiceTime", c.metadataServiceTime, kNonNegative);
  io("sharedFileLockLatency", c.sharedFileLockLatency, kNonNegative);
  io("sharedFileEfficiency", c.sharedFileEfficiency, kEfficiency);
}

class NvmeLocalModel final : public StorageModelBase {
 public:
  NvmeLocalModel(Simulator& sim, Topology& topo, NvmeLocalConfig config,
                 std::vector<LinkId> clientNics, std::uint64_t rngSeed = 0x97095ull);

  const NvmeLocalConfig& config() const { return cfg_; }

  void submit(const IoRequest& req, IoCallback cb) override;

  /// Node-local filesystems have no cross-node shared directory: every
  /// metadata op is served by the issuing node's own kernel, so the
  /// shared-directory flag is dropped and ops are spread per node.
  void submitMeta(const MetaRequest& req, IoCallback cb) override;

  Bytes totalCapacity() const override {
    return static_cast<Bytes>(cfg_.drivesPerNode) * cfg_.capacityPerDrive * clientNodeCount();
  }

  /// PCIe-attached local NVMe: an RDMA-class (kernel-bypass-cheap)
  /// endpoint with one lane per drive and a bus-scale RTT.
  transport::TransportProfile declaredTransportProfile() const override;

  /// Declarative fault hook (hcsim::chaos): "drive" (index = node)
  /// fails/degrades/restores a node's whole local pool via link health —
  /// a node-local device has no failover path, so fail-stop strands that
  /// node's I/O (rate 0) until restore.
  bool applyFault(const FaultSpec& f) override;
  std::size_t faultComponentCount(const std::string& component) const override;
  /// Rebuild after a restore: re-copying the node's dataset shard writes
  /// back through the restored node's local pool.
  Route rebuildRoute(const FaultSpec& restored) override;

  // ---- Introspection ----
  Bandwidth nodeWriteCapacity(std::uint32_t node) const;
  Bandwidth nodeReadCapacity(std::uint32_t node) const;

  void exportMetrics(telemetry::MetricsRegistry& reg) const override;

 protected:
  void onPhaseChange() override;

 private:
  struct NodeState {
    LinkId readLink{};
    LinkId writeLink{};
    std::unique_ptr<WritebackBuffer> pageCache;
  };
  NodeState& nodeState(std::uint32_t node);
  void configureNode(NodeState& st);

  /// Effective sync-write pool bandwidth: each op serializes a FLUSH on
  /// its drive.
  Bandwidth syncWriteBandwidth(Bytes reqSize) const;
  /// Effective write bandwidth with write-back for a per-node phase
  /// volume of `perNodeBytes` (0 = unknown -> device rate).
  Bandwidth writebackBandwidth(Bytes perNodeBytes, Bytes reqSize, const NodeState& st) const;

  NvmeLocalConfig cfg_;
  SsdArray pool_;  ///< per-node pool (drivesPerNode devices)
  std::unordered_map<std::uint32_t, NodeState> nodes_;
};

}  // namespace hcsim
