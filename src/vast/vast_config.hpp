#pragma once
// VastConfig — every knob of the "highly configurable" VAST DataStore
// model: hardware inventory (CNodes, DBoxes, SCM/QLC SSDs), internal
// fabric, data-reduction behaviour, and — decisively for the paper —
// the NFS frontend deployment (TCP through gateway nodes vs RDMA with
// nconnect and multipathing).

#include <cstddef>
#include <string>

#include "config/range.hpp"
#include "device/ssd.hpp"
#include "util/units.hpp"

namespace hcsim {

/// How compute nodes mount the VAST NFS export.
enum class NfsTransport {
  Tcp,   ///< NFS/TCP through Ethernet gateway nodes (LC clusters)
  Rdma,  ///< NFS/RDMA (RoCE), optionally nconnect + multipath (Wombat)
};

const char* toString(NfsTransport t);
/// The config spelling, by protocol alone ("tcp"); toString keeps the
/// display name ("NFS/TCP").
const char* enumName(NfsTransport t);

/// Ethernet gateway pool between the cluster fabric and VAST's network.
/// On Lassen: 1 node x 2x100Gb; Ruby: 8 x 1x40Gb; Quartz: 32 x 2x1Gb.
struct GatewaySpec {
  bool present = false;
  std::size_t nodes = 1;
  std::size_t linksPerNode = 1;
  Bandwidth linkBandwidth = 0.0;
  Seconds latency = 0.0;

  std::size_t totalLinks() const { return nodes * linksPerNode; }
  Bandwidth totalBandwidth() const { return static_cast<double>(totalLinks()) * linkBandwidth; }
};

/// An absent pool may be unsized; VastConfig::validate() sizes a present one.
template <class IO>
void fields(IO& io, GatewaySpec& g) {
  io("present", g.present);
  io("nodes", g.nodes);
  io("linksPerNode", g.linksPerNode);
  io("linkBandwidth", g.linkBandwidth, kNonNegative);
  io("latency", g.latency, kNonNegative);
}

struct VastConfig {
  std::string name = "VAST";

  // ---- Hardware inventory (paper §III-A, §IV-B) ----
  std::size_t cnodes = 16;
  std::size_t dboxes = 5;        ///< HA enclosures; 2 DNodes each
  std::size_t dnodesPerBox = 2;
  std::size_t qlcPerBox = 22;
  std::size_t scmPerBox = 6;
  SsdSpec qlcSpec = SsdSpec::qlc();
  SsdSpec scmSpec = SsdSpec::scm();
  Bytes qlcCapacityEach = 47 * units::TB;  ///< sized so LC totals ~5.2 PB
  Bytes scmCapacityEach = units::TB * 16 / 10;

  // ---- CNode processing ceilings ----
  /// Per-CNode read-path throughput (NFS serving + erasure decode).
  Bandwidth cnodeReadBandwidth = units::gbs(3.0);
  /// Per-CNode write-path throughput: lower than read because writes do
  /// similarity-based data arrangement + compression on the CNode
  /// ("during write operations the CNodes are burdened with similarity-
  /// based data arrangement and compression", paper §V-B).
  Bandwidth cnodeWriteBandwidth = units::gbs(1.0);

  // ---- CBox <-> DBox NVMe-oF fabric ----
  std::size_t fabricLinksPerBox = 2;
  Bandwidth fabricLinkBandwidth = units::gbps(100);  ///< EDR IB on LC
  Seconds fabricLatency = units::usec(5);

  // ---- Data path behaviour ----
  /// Fraction of client bytes removed by similarity reduction +
  /// compression before hitting QLC flash.
  double dataReductionRatio = 0.35;
  /// DNode-side read cache (NVRAM/SCM in front of QLC), total bytes.
  Bytes dnodeCacheBytes = 0;
  /// Fallback read-cache hit ratio when the phase working set is unknown.
  double defaultReadCacheHitRatio = 0.0;

  // ---- NFS frontend deployment (the paper's main variable) ----
  NfsTransport transport = NfsTransport::Tcp;
  std::size_t nconnect = 1;  ///< NFS sessions per client mount
  bool multipath = false;    ///< spread sessions over parallel paths
  GatewaySpec gateway;       ///< TCP deployments hop through this pool
  /// Single NFS/TCP session ceiling — the "single TCP link" that throttles
  /// VAST on Lassen to ~1 GB/s per node.
  Bandwidth tcpSessionCap = units::gbs(1.15);
  /// Per RDMA session (QP) ceiling; nconnect multiplies sessions.
  Bandwidth rdmaSessionCap = units::gbs(2.5);
  /// Optional per-gateway-node TCP forwarding ceiling (processing or a
  /// single forwarding stream). The default is high enough that the
  /// gateway's *physical* Ethernet binds instead: on Lassen each client
  /// mount is one ~1.15 GB/s TCP session, so aggregate bandwidth grows
  /// per-node until the 2x100 GbE gateway (~25 GB/s) saturates — the
  /// paper's "abrupt stagnation after 32 nodes" at "the maximum
  /// available bandwidth on the network". Lower it to model a gateway
  /// whose forwarding path, not its links, is the limit (see the
  /// frontend ablation bench).
  Bandwidth tcpGatewayPipeCap = units::gbs(1000.0);
  Seconds tcpRpcLatency = units::usec(250);
  Seconds rdmaRpcLatency = units::usec(25);
  /// Server-side stable-write commit (stage into mirrored SCM + ack).
  Seconds commitLatency = units::usec(400);
  /// Serialized per-CNode commit service time under fsync storms
  /// (excludes the SCM data transfer, which is added per request size).
  Seconds cnodeCommitService = units::msec(0.45);
  /// Per-op metadata service on a CNode (element store lookup in SCM —
  /// the stateless shared-everything design needs no cross-CNode chat).
  Seconds metadataServiceTime = units::usec(80);
  /// Shared-directory serialization penalty (element-store lock).
  double metadataSharedDirPenalty = 2.0;
  /// N-1 shared-file costs: NFS writes to one file serialize on the
  /// owning CNode's element lock.
  Seconds sharedFileLockLatency = units::usec(400);
  double sharedFileEfficiency = 0.8;

  // ---- Derived ----
  Bytes totalCapacity() const {
    return static_cast<Bytes>(dboxes) * qlcPerBox * qlcCapacityEach;
  }
  Bytes totalScmBytes() const {
    return static_cast<Bytes>(dboxes) * scmPerBox * scmCapacityEach;
  }
  std::size_t sessionsPerClient() const { return nconnect; }
  Bandwidth sessionCap() const {
    return transport == NfsTransport::Tcp ? tcpSessionCap : rdmaSessionCap;
  }
  Seconds rpcLatency() const {
    return transport == NfsTransport::Tcp ? tcpRpcLatency : rdmaRpcLatency;
  }

  /// Throws std::invalid_argument naming the first field outside its
  /// range, or a broken cross-field rule.
  void validate() const;

  // ---- Presets matching the paper's two instances ----

  /// The LC-cluster instance (§IV-B): 16 CNodes, 5 DBoxes (10 DNodes),
  /// 22 QLC + 6 SCM per box, NFS over TCP through a gateway pool that the
  /// caller fills per machine (see cluster/deployments).
  static VastConfig lcInstance();

  /// The Wombat instance (§IV-B): 8 CNodes, 8 DNodes (BlueField DPUs) in
  /// 4 HA pairs with 11 SSDs + 4 NVRAMs each, RDMA/RoCE with nconnect=16
  /// and multipathing, no gateway hop.
  static VastConfig wombatInstance();
};

/// The session caps are unranged: only the one the transport picks must
/// be > 0, which validate() checks.
template <class IO>
void fields(IO& io, VastConfig& c) {
  io("name", c.name);
  io("cnodes", c.cnodes, kCount);
  io("dboxes", c.dboxes, kCount);
  io("dnodesPerBox", c.dnodesPerBox, kCount);
  io("qlcPerBox", c.qlcPerBox, kCount);
  io("scmPerBox", c.scmPerBox, kCount);
  io("qlcSpec", c.qlcSpec);
  io("scmSpec", c.scmSpec);
  io("qlcCapacityEach", c.qlcCapacityEach, kPositive);
  io("scmCapacityEach", c.scmCapacityEach, kPositive);
  io("cnodeReadBandwidth", c.cnodeReadBandwidth, kPositive);
  io("cnodeWriteBandwidth", c.cnodeWriteBandwidth, kPositive);
  io("fabricLinksPerBox", c.fabricLinksPerBox, kCount);
  io("fabricLinkBandwidth", c.fabricLinkBandwidth, kPositive);
  io("fabricLatency", c.fabricLatency, kNonNegative);
  io("dataReductionRatio", c.dataReductionRatio, kProperFraction);
  io("dnodeCacheBytes", c.dnodeCacheBytes);  // 0 = no DNode cache
  io("defaultReadCacheHitRatio", c.defaultReadCacheHitRatio, kFraction);
  io("transport", c.transport);
  io("nconnect", c.nconnect, kCount);
  io("multipath", c.multipath);
  io("gateway", c.gateway);
  io("tcpSessionCap", c.tcpSessionCap);
  io("rdmaSessionCap", c.rdmaSessionCap);
  io("tcpGatewayPipeCap", c.tcpGatewayPipeCap, kPositive);
  io("tcpRpcLatency", c.tcpRpcLatency, kNonNegative);
  io("rdmaRpcLatency", c.rdmaRpcLatency, kNonNegative);
  io("commitLatency", c.commitLatency, kNonNegative);
  io("cnodeCommitService", c.cnodeCommitService, kNonNegative);
  io("metadataServiceTime", c.metadataServiceTime, kNonNegative);
  io("metadataSharedDirPenalty", c.metadataSharedDirPenalty, kAtLeastOne);
  io("sharedFileLockLatency", c.sharedFileLockLatency, kNonNegative);
  io("sharedFileEfficiency", c.sharedFileEfficiency, kEfficiency);
}

}  // namespace hcsim
