#pragma once
// UnifyFsModel — a user-level burst-buffer file system in the style of
// UnifyFS (paper §I cites it, with VAST, as the other "highly
// configurable" storage system: "allows users to configure the data
// management policy, such as the number of dedicated I/O servers and the
// data placement strategy").
//
// Semantics modelled:
//  * writes land in node-local storage (shared memory up to `shmemBytes`,
//    spilling to the local SSD) — checkpoints run at near-local speed;
//  * the data placement policy is configurable:
//      - LocalFirst: a process's data stays on its own node; reads from
//        another node must cross the fabric to the owner;
//      - Striped: writes are spread round-robin over all job nodes;
//        any reader pulls (N-1)/N of its bytes remotely — slower writes,
//        balanced reads;
//  * a distributed key-value store resolves extents (per-op metadata
//    latency);
//  * `flush()` laminates and persists everything to a backing parallel
//    file system model (e.g. GPFS), as unifyfs-stage does.

#include <memory>
#include <unordered_map>

#include "cache/writeback_buffer.hpp"
#include "config/range.hpp"
#include "device/ssd.hpp"
#include "fs/storage_base.hpp"

namespace hcsim {

enum class UnifyFsPlacement { LocalFirst, Striped };

const char* toString(UnifyFsPlacement p);

struct UnifyFsConfig {
  std::string name = "UnifyFS";

  // Node-local media.
  SsdSpec spillDevice = SsdSpec::samsung970Pro();
  std::size_t spillDevicesPerNode = 1;
  Bytes shmemBytes = 4 * units::GiB;      ///< unifyfs_logio shmem segment
  Bandwidth memoryBandwidth = units::gbs(24.0);

  // Service.
  UnifyFsPlacement placement = UnifyFsPlacement::LocalFirst;
  std::size_t serverThreadsPerNode = 4;   ///< margo RPC handlers
  /// Throughput one server thread sustains serving remote reads; local
  /// I/O bypasses the server (shmem log access).
  Bandwidth serverThreadBandwidth = units::gbs(0.6);
  Seconds metadataLatency = units::usec(40);  ///< KV extent lookup
  Seconds localRpcLatency = units::usec(8);   ///< shmem ipc
  Seconds remoteRpcLatency = units::usec(30); ///< margo over fabric

  Bytes capacityPerNode = units::TB;

  void validate() const;
};

template <class IO>
void fields(IO& io, UnifyFsConfig& c) {
  io("name", c.name);
  io("spillDevice", c.spillDevice);
  io("spillDevicesPerNode", c.spillDevicesPerNode, kCount);
  io("shmemBytes", c.shmemBytes, kPositive);
  io("memoryBandwidth", c.memoryBandwidth, kPositive);
  io("placement", c.placement);
  io("serverThreadsPerNode", c.serverThreadsPerNode, kCount);
  io("serverThreadBandwidth", c.serverThreadBandwidth, kPositive);
  io("metadataLatency", c.metadataLatency, kNonNegative);
  io("localRpcLatency", c.localRpcLatency, kNonNegative);
  io("remoteRpcLatency", c.remoteRpcLatency, kNonNegative);
  io("capacityPerNode", c.capacityPerNode, kPositive);
}

class UnifyFsModel final : public StorageModelBase {
 public:
  UnifyFsModel(Simulator& sim, Topology& topo, UnifyFsConfig config,
               std::vector<LinkId> clientNics, std::uint64_t rngSeed = 0x0f5ull);

  const UnifyFsConfig& config() const { return cfg_; }

  void submit(const IoRequest& req, IoCallback cb) override;
  Bytes totalCapacity() const override {
    return cfg_.capacityPerNode * clientNodeCount();
  }

  /// Flush (laminate + persist) `bytes` per node to the backing store;
  /// `done` fires when the slowest node finishes. Models unifyfs-stage.
  void flushToBackingStore(FileSystemModel& backing, Bytes bytesPerNode,
                           std::function<void()> done);

 protected:
  void onPhaseChange() override;

 private:
  struct NodeState {
    LinkId deviceLink{};  ///< local log device (shmem-fronted SSD)
    LinkId serverLink{};  ///< margo server: remote requests only
    std::unique_ptr<WritebackBuffer> shmem;
  };
  NodeState& nodeState(std::uint32_t node);
  void configureNode(NodeState& st);

  UnifyFsConfig cfg_;
  SsdArray spill_;
  std::unordered_map<std::uint32_t, NodeState> nodes_;
};

}  // namespace hcsim
