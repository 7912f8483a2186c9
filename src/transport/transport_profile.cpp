#include "transport/transport_profile.hpp"

#include "config/fields.hpp"

namespace hcsim::transport {

const char* toString(FabricKind k) {
  switch (k) {
    case FabricKind::Tcp: return "tcp";
    case FabricKind::Rdma: return "rdma";
  }
  return "?";
}

void TransportProfile::validate() const { requireFields(*this, "TransportProfile"); }

TransportProfile TransportProfile::tcp() {
  TransportProfile p;
  p.kind = FabricKind::Tcp;
  p.opRate = 120'000.0;
  p.burstOps = 64.0;
  // Calibrated so one lane moves ~1.15 GB/s at 1 MiB ops — the paper's
  // single-NFS/TCP-session ceiling: 1 MiB / (50us + 0.25us/16 +
  // 8.22e-10 s/B x 1 MiB) ~= 1.15e9 B/s.
  p.perOpCost = units::usec(50);
  p.perByteCost = 8.22e-10;
  p.doorbellCost = units::usec(0.25);
  p.doorbellBatch = 16.0;
  p.descCost = units::usec(0.03);
  p.sqDepth = 128;
  p.lanes = 1;
  p.connectionSetup = units::msec(3.0);
  p.idleTimeout = 0.0;
  p.baseRtt = units::usec(250);
  return p;
}

TransportProfile TransportProfile::rdma() {
  TransportProfile p;
  p.kind = FabricKind::Rdma;
  p.opRate = 8'500'000.0;
  p.burstOps = 64.0;
  // Calibrated so one QP moves ~2.5 GB/s at 1 MiB ops: 1 MiB / (4us +
  // 0.25us/16 + 3.96e-10 s/B x 1 MiB) ~= 2.5e9 B/s.
  p.perOpCost = units::usec(4);
  p.perByteCost = 3.96e-10;
  p.doorbellCost = units::usec(0.25);
  p.doorbellBatch = 16.0;
  p.descCost = units::usec(0.03);
  p.sqDepth = 512;
  p.lanes = 16;
  p.connectionSetup = units::usec(500);
  p.idleTimeout = 0.0;
  p.baseRtt = units::usec(25);
  return p;
}

}  // namespace hcsim::transport
