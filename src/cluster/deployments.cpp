#include "cluster/deployments.hpp"

#include <algorithm>

#include "telemetry/metrics_registry.hpp"

namespace hcsim {

VastConfig vastOnLassen() {
  VastConfig c = VastConfig::lcInstance();
  c.name = "VAST@Lassen";
  c.gateway.present = true;
  c.gateway.nodes = 1;  // "a single gateway node"
  c.gateway.linksPerNode = 2;
  c.gateway.linkBandwidth = units::gbps(100);
  // Effective per-op forwarding latency of the single shared TCP
  // gateway: store-and-forward plus kernel NFS forwarding under load,
  // far above the raw wire latency.
  c.gateway.latency = units::usec(250);
  return c;
}

VastConfig vastOnRuby() {
  VastConfig c = VastConfig::lcInstance();
  c.name = "VAST@Ruby";
  c.gateway.present = true;
  c.gateway.nodes = 8;  // "1x40Gb Ethernet link on eight gateway nodes"
  c.gateway.linksPerNode = 1;
  c.gateway.linkBandwidth = units::gbps(40);
  c.gateway.latency = units::usec(40);
  return c;
}

VastConfig vastOnQuartz() {
  VastConfig c = VastConfig::lcInstance();
  c.name = "VAST@Quartz";
  c.gateway.present = true;
  c.gateway.nodes = 32;  // "2x1Gb Ethernet link on 32 gateway nodes"
  c.gateway.linksPerNode = 2;
  c.gateway.linkBandwidth = units::gbps(1);
  c.gateway.latency = units::usec(60);
  return c;
}

VastConfig vastOnWombat() {
  VastConfig c = VastConfig::wombatInstance();
  c.name = "VAST@Wombat";
  return c;
}

GpfsConfig gpfsOnLassen() {
  GpfsConfig c = GpfsConfig::lassen();
  c.name = "GPFS@Lassen";
  return c;
}

LustreConfig lustreOnQuartz() {
  LustreConfig c = LustreConfig::lcInstance();
  c.name = "Lustre@Quartz";
  return c;
}

LustreConfig lustreOnRuby() {
  LustreConfig c = LustreConfig::lcInstance();
  c.name = "Lustre@Ruby";
  return c;
}

NvmeLocalConfig nvmeOnWombat() {
  NvmeLocalConfig c = NvmeLocalConfig::wombatInstance();
  c.name = "NVMe@Wombat";
  return c;
}

DaosConfig daosInstance() { return DaosConfig::instance(); }

TestBench::TestBench(Machine machine, std::size_t nodesUsed)
    : machine_(std::move(machine)), net_(sim_), topo_(net_) {
  net_.setTelemetry(&telemetry_);
  sim_.setRecorder(&recorder_);
  sim_.setProfiler(&profiler_);
  const std::size_t n = std::max<std::size_t>(1, std::min(nodesUsed, machine_.nodes));
  clientNics_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    clientNics_.push_back(topo_.addLink(machine_.name + ".nic.n" + std::to_string(i),
                                        machine_.nodeInjection, machine_.nicLatency));
  }
}

void TestBench::collectMetrics(telemetry::MetricsRegistry& reg, const FileSystemModel* fs) {
  reg.counter("engine.events.dispatched", static_cast<double>(sim_.eventsDispatched()));
  reg.counter("engine.events.scheduled", static_cast<double>(sim_.eventsScheduled()));
  reg.counter("engine.events.cancelled", static_cast<double>(sim_.eventsCancelled()));
  reg.counter("engine.events.adjusted", static_cast<double>(sim_.eventsAdjusted()));
  reg.gauge("engine.events.pending", static_cast<double>(sim_.pendingEvents()));
  reg.gauge("engine.slab.slots", static_cast<double>(sim_.slabSize()));
  reg.counter("net.rerates", static_cast<double>(net_.rerates()));
  reg.gauge("net.flows.active", static_cast<double>(net_.activeFlows()));
  reg.gauge("net.links", static_cast<double>(net_.linkCount()));
  for (const LinkStats& ls : net_.linkStats()) {
    reg.counter("net.link." + ls.name + ".bytes_carried", ls.bytesCarried);
    reg.gauge("net.link." + ls.name + ".capacity_bps", ls.capacity);
    reg.gauge("net.link." + ls.name + ".allocated_bps", ls.allocated);
  }
  reg.counter("probe.records", static_cast<double>(recorder_.totalRecorded()));
  reg.gauge("probe.records.held", static_cast<double>(recorder_.size()));
  if (profiler_.enabled()) profiler_.exportTo(reg);
  telemetry_.exportTo(reg);
  if (fs) fs->exportMetrics(reg);
}

std::unique_ptr<VastModel> TestBench::attachVast(VastConfig cfg) {
  return std::make_unique<VastModel>(sim_, topo_, std::move(cfg), clientNics_);
}

std::unique_ptr<GpfsModel> TestBench::attachGpfs(GpfsConfig cfg) {
  return std::make_unique<GpfsModel>(sim_, topo_, std::move(cfg), clientNics_);
}

std::unique_ptr<LustreModel> TestBench::attachLustre(LustreConfig cfg) {
  return std::make_unique<LustreModel>(sim_, topo_, std::move(cfg), clientNics_);
}

std::unique_ptr<NvmeLocalModel> TestBench::attachNvme(NvmeLocalConfig cfg) {
  return std::make_unique<NvmeLocalModel>(sim_, topo_, std::move(cfg), clientNics_);
}

std::unique_ptr<DaosModel> TestBench::attachDaos(DaosConfig cfg) {
  return std::make_unique<DaosModel>(sim_, topo_, std::move(cfg), clientNics_);
}

}  // namespace hcsim
