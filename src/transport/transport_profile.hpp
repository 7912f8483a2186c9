#pragma once
// TransportProfile — the first-principles NIC/transport knob set of
// hcsim::transport (ROADMAP open item 4). Instead of a single
// "session cap" constant, an endpoint is described by the quantities a
// real NIC datasheet states: a token-bucket IOPS budget, a per-op vs
// per-byte CPU/protocol cost split, PCIe doorbell + descriptor costs
// with doorbell batching, send-queue depth, and connection lanes
// (QP-per-thread for RDMA, stream-per-nconnect for TCP) with a
// connection-setup cost for cold lanes. The RDMA-vs-TCP gap and the
// nconnect scaling curve then *emerge* from TransportFabric's queueing
// over these numbers rather than being configured directly.
//
// Every field lives in the config-path system (the field list below), so
// each knob is a sweepable axis ("transport.perOpCost", ...).

#include <string>

#include "config/fields.hpp"
#include "config/range.hpp"
#include "util/json.hpp"
#include "util/units.hpp"

namespace hcsim::transport {

/// Wire protocol family the endpoint speaks. The presets differ in
/// per-op cost (kernel TCP/RPC stack vs kernel-bypass verbs), lane
/// count and setup cost — everything else is shared machinery.
enum class FabricKind {
  Tcp,   ///< kernel NFS/TCP streams (nconnect lanes through sockets)
  Rdma,  ///< kernel-bypass verbs (QP-per-thread lanes, tiny per-op cost)
};

const char* toString(FabricKind k);

struct TransportProfile {
  FabricKind kind = FabricKind::Tcp;

  // ---- Token-bucket op admission (NIC/driver IOPS ceiling) ----
  /// Sustained operations/second the endpoint can post.
  double opRate = 120'000.0;
  /// Bucket depth: ops that may burst ahead of the sustained rate.
  double burstOps = 64.0;

  // ---- Per-op vs per-byte cost split ----
  /// Dead time per operation (syscall + protocol + interrupt path for
  /// TCP; verbs post + completion for RDMA).
  Seconds perOpCost = units::usec(50);
  /// Seconds per payload byte spent in the host path (copies, checksum,
  /// segmentation). 1/perByteCost is the lane's large-op ceiling.
  double perByteCost = 8.2e-10;

  // ---- Doorbell batching + send-queue geometry (PCIe path) ----
  /// One MMIO doorbell ring, amortized over up to doorbellBatch
  /// descriptors posted together.
  Seconds doorbellCost = units::usec(0.25);
  double doorbellBatch = 16.0;
  /// Per-descriptor build + DMA-fetch cost.
  Seconds descCost = units::usec(0.03);
  /// Send-queue depth per lane: descriptors outstanding before the
  /// poster blocks (head-of-line at depth 1).
  std::size_t sqDepth = 512;

  // ---- Connection lanes ----
  /// Parallel connections per client endpoint: nconnect TCP streams or
  /// RDMA QPs. Traffic hashes over lanes by issuing process.
  std::size_t lanes = 1;
  /// Cost to (re)establish a lane: TCP handshake + slow-start ramp, or
  /// QP creation + RTR/RTS transition.
  Seconds connectionSetup = units::msec(3.0);
  /// A lane idle longer than this has been torn down and pays
  /// connectionSetup again on next use (0 = never torn down).
  Seconds idleTimeout = 0.0;
  /// Base round-trip: bounds in-flight window rate to sqDepth*opBytes/rtt.
  Seconds baseRtt = units::usec(250);

  /// Throws std::invalid_argument naming the first field outside its
  /// range.
  void validate() const;

  /// Kernel NFS/TCP endpoint: ~1.15 GB/s per lane at 1 MiB ops, one
  /// lane, milliseconds to open a stream.
  static TransportProfile tcp();

  /// Kernel-bypass RDMA endpoint: ~2.5 GB/s per lane at 1 MiB ops,
  /// QP-per-thread lane pool, microsecond-scale op costs.
  static TransportProfile rdma();
};

/// The serialized field list (config/fields.hpp). Absent keys keep the
/// profile's current values, so a "transport" spec section only states
/// what it overrides on the model's declared profile. A stated "kind"
/// resets the profile to that preset first — comparing tcp vs rdma
/// means comparing whole endpoint classes — then the remaining keys
/// override individual knobs.
template <class IO>
void fields(IO& io, TransportProfile& p) {
  io.preset("kind", p.kind, [&p](FabricKind k) {
    p = k == FabricKind::Rdma ? TransportProfile::rdma() : TransportProfile::tcp();
  });
  io("opRate", p.opRate, kPositive);
  io("burstOps", p.burstOps, kAtLeastOne);
  io("perOpCost", p.perOpCost, kNonNegative);
  io("perByteCost", p.perByteCost, kNonNegative);
  io("doorbellCost", p.doorbellCost, kNonNegative);
  io("doorbellBatch", p.doorbellBatch, kAtLeastOne);
  io("descCost", p.descCost, kNonNegative);
  io("sqDepth", p.sqDepth, kCount);
  io("lanes", p.lanes, kCount);
  io("connectionSetup", p.connectionSetup, kNonNegative);
  io("idleTimeout", p.idleTimeout, kNonNegative);
  io("baseRtt", p.baseRtt, kNonNegative);
}

using hcsim::fromJson;
using hcsim::toJson;

}  // namespace hcsim::transport
