#pragma once
// Deployments — wiring of storage systems onto machines exactly as the
// paper describes (§IV-B), plus TestBench, the one-stop environment that
// owns the simulator/network and builds models against a machine.

#include <memory>
#include <vector>

#include "cluster/machine.hpp"
#include "daos/daos_model.hpp"
#include "gpfs/gpfs_model.hpp"
#include "lustre/lustre_model.hpp"
#include "net/topology.hpp"
#include "nvme/nvme_local.hpp"
#include "probe/flight_recorder.hpp"
#include "probe/self_profiler.hpp"
#include "sim/simulator.hpp"
#include "vast/vast_model.hpp"

namespace hcsim {

// ---- Storage configurations per site (paper §IV-B) ----

/// VAST reached from Lassen: LC instance, NFS/TCP through ONE gateway
/// node with 2x100 Gb Ethernet over a single TCP link.
VastConfig vastOnLassen();

/// VAST reached from Ruby: 1x40 Gb Ethernet on eight gateway nodes.
VastConfig vastOnRuby();

/// VAST reached from Quartz: 2x1 Gb Ethernet on 32 gateway nodes.
VastConfig vastOnQuartz();

/// VAST on Wombat: RDMA/RoCE, nconnect=16, multipathing, no gateway.
VastConfig vastOnWombat();

/// GPFS on Lassen (Fig 1b).
GpfsConfig gpfsOnLassen();

/// The LC Lustre instance (serves Quartz and Ruby).
LustreConfig lustreOnQuartz();
LustreConfig lustreOnRuby();

/// Wombat's node-local NVMe.
NvmeLocalConfig nvmeOnWombat();

/// The DAOS evaluation instance (not site-bound: DAOS is not one of the
/// paper's deployments; the pool is reachable from any machine over its
/// own libfabric-class network).
DaosConfig daosInstance();

// ---- TestBench ----

/// Owns one simulated experiment environment: simulator, flow network,
/// topology, and the per-compute-node NIC links of a machine. Storage
/// models are then attached to it.
class TestBench {
 public:
  /// Wire `nodesUsed` compute nodes of `machine` (clamped to the machine
  /// size).
  TestBench(Machine machine, std::size_t nodesUsed);

  TestBench(const TestBench&) = delete;
  TestBench& operator=(const TestBench&) = delete;

  Simulator& sim() { return sim_; }
  Topology& topo() { return topo_; }
  const Machine& machine() const { return machine_; }
  std::size_t nodesUsed() const { return clientNics_.size(); }
  const std::vector<LinkId>& clientNics() const { return clientNics_; }

  /// The bench-owned telemetry sink, already attached to the flow
  /// network. Disabled by default; enable before running the workload.
  telemetry::Telemetry& telemetry() { return telemetry_; }
  const telemetry::Telemetry& telemetry() const { return telemetry_; }

  /// The bench-owned flight recorder (hcsim::probe), attached to the
  /// simulator at construction — always on, per the probe overhead
  /// budget in docs/PROBE.md. Dump it on an anomaly or --dump-on-exit.
  probe::FlightRecorder& recorder() { return recorder_; }
  const probe::FlightRecorder& recorder() const { return recorder_; }

  /// The bench-owned self-profiler, attached but disabled by default
  /// (`hcsim stats --self`, sweep --self-profile enable it).
  probe::SelfProfiler& profiler() { return profiler_; }
  const probe::SelfProfiler& profiler() const { return profiler_; }

  /// Snapshot the whole stack into `reg`: engine counters ("engine.*"),
  /// network state ("net.*"), span metrics ("telemetry.*"), and — when
  /// `fs` is given — the model's own "<model>.*" metrics.
  void collectMetrics(telemetry::MetricsRegistry& reg, const FileSystemModel* fs = nullptr);

  // Attach storage models (each call creates an independent instance).
  std::unique_ptr<VastModel> attachVast(VastConfig cfg);
  std::unique_ptr<GpfsModel> attachGpfs(GpfsConfig cfg);
  std::unique_ptr<LustreModel> attachLustre(LustreConfig cfg);
  std::unique_ptr<NvmeLocalModel> attachNvme(NvmeLocalConfig cfg);
  std::unique_ptr<DaosModel> attachDaos(DaosConfig cfg);

 private:
  Machine machine_;
  probe::FlightRecorder recorder_;
  probe::SelfProfiler profiler_;
  Simulator sim_;
  FlowNetwork net_;
  Topology topo_;
  telemetry::Telemetry telemetry_;
  std::vector<LinkId> clientNics_;
};

}  // namespace hcsim
