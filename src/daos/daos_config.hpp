#pragma once
// DaosConfig — knobs of the hcsim::daos disaggregated object store
// ("Exploring DAOS Interfaces and Performance", PAPERS.md). The unit of
// service is the *target*: an engine-managed NVMe/PMEM partition with a
// pool of xstream service threads. Pools group targets; objects hash
// over the pool's live targets; writes fan out to a redundancy group.
// Clients reach targets with RPC + bulk transfers over hcsim::transport
// — DAOS is the first backend built on the fabric from day one, so its
// config embeds the endpoint profile (RDMA by default, as DAOS requires
// a libfabric/verbs-class network).

#include <cstddef>
#include <string>

#include "config/range.hpp"
#include "transport/transport_profile.hpp"
#include "util/units.hpp"

namespace hcsim {

struct DaosConfig {
  std::string name = "DAOS";

  // ---- Pool layout ----
  std::size_t pools = 1;
  std::size_t targetsPerPool = 8;
  /// Service xstreams per target: RPCs admitted concurrently before
  /// queueing (the helper + I/O xstream pool of a DAOS engine).
  std::size_t xstreamsPerTarget = 8;

  // ---- Per-target service ----
  /// Bulk throughput of one target's NVMe/PMEM partition.
  Bandwidth targetBandwidth = units::gbs(6.0);
  /// Per-RPC xstream service time (argobots ULT dispatch + VOS lookup).
  Seconds targetServiceTime = units::usec(20);
  /// NVMe-backed object store: random ~= sequential up to this factor.
  double randomEfficiency = 0.9;
  Bytes capacityPerTarget = 32 * units::TB;

  // ---- Redundancy ----
  /// Write fan-out: each write lands on this many targets (replication
  /// group). Reads are served by one replica.
  std::size_t redundancyGroupSize = 2;

  // ---- Client-visible latencies ----
  /// Epoch-commit cost charged per fsync'd op (DAOS flushes an epoch).
  Seconds fsyncLatency = units::usec(50);
  /// Per-op metadata service on a target xstream (dkey/akey lookup).
  Seconds metadataServiceTime = units::usec(25);
  /// Object store: no POSIX directory locks, mild contention only.
  double metadataSharedDirPenalty = 1.2;
  /// No byte-range locks either; N-1 costs next to nothing.
  Seconds sharedFileLockLatency = 0.0;
  double sharedFileEfficiency = 1.0;

  /// The NIC/transport endpoint DAOS clients use. Always active for
  /// this model — an absent or empty spec "transport" section leaves
  /// this declared profile untouched (the empty-transport identity).
  transport::TransportProfile fabric = transport::TransportProfile::rdma();

  // ---- Derived ----
  std::size_t totalTargets() const { return pools * targetsPerPool; }
  Bytes totalCapacity() const {
    return static_cast<Bytes>(totalTargets()) * capacityPerTarget;
  }

  /// Throws std::invalid_argument naming the first field outside its
  /// range (the fabric's included), or a group wider than the pool.
  void validate() const;

  /// A small all-flash instance reachable from any machine: 1 pool x 8
  /// targets, RF-2, RDMA endpoint.
  static DaosConfig instance();
};

/// The transport profile sits under "fabric" with its own field list.
template <class IO>
void fields(IO& io, DaosConfig& c) {
  io("name", c.name);
  io("pools", c.pools, kCount);
  io("targetsPerPool", c.targetsPerPool, kCount);
  io("xstreamsPerTarget", c.xstreamsPerTarget, kCount);
  io("targetBandwidth", c.targetBandwidth, kPositive);
  io("targetServiceTime", c.targetServiceTime, kNonNegative);
  io("randomEfficiency", c.randomEfficiency, kEfficiency);
  io("capacityPerTarget", c.capacityPerTarget, kPositive);
  io("redundancyGroupSize", c.redundancyGroupSize, kCount);
  io("fsyncLatency", c.fsyncLatency, kNonNegative);
  io("metadataServiceTime", c.metadataServiceTime, kNonNegative);
  io("metadataSharedDirPenalty", c.metadataSharedDirPenalty, kAtLeastOne);
  io("sharedFileLockLatency", c.sharedFileLockLatency, kNonNegative);
  io("sharedFileEfficiency", c.sharedFileEfficiency, kEfficiency);
  io("fabric", c.fabric);
}

}  // namespace hcsim
