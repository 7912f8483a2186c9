#include "vast/vast_config.hpp"

#include <stdexcept>

#include "config/fields.hpp"

namespace hcsim {

const char* toString(NfsTransport t) {
  switch (t) {
    case NfsTransport::Tcp: return "NFS/TCP";
    case NfsTransport::Rdma: return "NFS/RDMA";
  }
  return "?";
}

const char* enumName(NfsTransport t) {
  switch (t) {
    case NfsTransport::Tcp: return "tcp";
    case NfsTransport::Rdma: return "rdma";
  }
  return "?";
}

void VastConfig::validate() const {
  requireFields(*this, "VastConfig");
  if (transport == NfsTransport::Tcp && !gateway.present) {
    throw std::invalid_argument("VastConfig: TCP transport requires a gateway pool");
  }
  if (gateway.present && (gateway.nodes == 0 || gateway.linksPerNode == 0 ||
                          gateway.linkBandwidth <= 0.0)) {
    throw std::invalid_argument("VastConfig: gateway pool is present but unsized");
  }
  if (!(sessionCap() > 0.0)) throw std::invalid_argument("VastConfig: session cap must be > 0");
}

VastConfig VastConfig::lcInstance() {
  VastConfig c;
  c.name = "VAST-LC";
  c.cnodes = 16;
  c.dboxes = 5;
  c.dnodesPerBox = 2;
  c.qlcPerBox = 22;
  c.scmPerBox = 6;
  c.transport = NfsTransport::Tcp;
  c.nconnect = 1;
  c.multipath = false;
  // EDR InfiniBand internal fabric with NVMe-oF (paper §IV-B).
  c.fabricLinksPerBox = 2;
  c.fabricLinkBandwidth = units::gbps(100);
  // Gateway must be filled in per machine (Lassen/Ruby/Quartz differ).
  c.gateway.present = true;
  c.gateway.nodes = 1;
  c.gateway.linksPerNode = 2;
  c.gateway.linkBandwidth = units::gbps(100);
  // Modest DNode cache benefit on LC (shared, busy system).
  c.dnodeCacheBytes = 2 * units::TB;
  return c;
}

VastConfig VastConfig::wombatInstance() {
  VastConfig c;
  c.name = "VAST-Wombat";
  c.cnodes = 8;
  c.dboxes = 4;  // 8 BlueField-DPU DNodes in 4 HA pairs
  c.dnodesPerBox = 2;
  c.qlcPerBox = 11;  // "11 SSDs ... hosted by a pair of DPUs"
  c.scmPerBox = 4;   // "four NVRAMs"
  c.transport = NfsTransport::Rdma;
  c.nconnect = 16;  // "deployed using RDMA with nconnect=16 and multipathing"
  c.multipath = true;
  c.gateway.present = false;  // RoCE directly over the cluster fabric
  // "CBoxes and DBoxes are connected via 2x50Gbps Ethernet links" (per
  // HA pair) through NVMe-oF / RoCE.
  c.fabricLinksPerBox = 2;
  c.fabricLinkBandwidth = units::gbps(50);
  c.fabricLatency = units::usec(8);
  // Four NVRAM devices per pair give a large, fast read cache.
  c.dnodeCacheBytes = 4ull * 4ull * (units::TB / 2);  // 4 boxes x 4 x 0.5 TB
  c.qlcCapacityEach = 15 * units::TB;
  return c;
}

}  // namespace hcsim
