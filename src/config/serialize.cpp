#include "config/serialize.hpp"

#include <fstream>
#include <sstream>

#include "config/fields.hpp"

namespace hcsim {

// NFS mounts are spelled by protocol alone in configs ("tcp"); toString
// keeps the display name ("NFS/TCP").
const char* enumName(NfsTransport t) {
  switch (t) {
    case NfsTransport::Tcp: return "tcp";
    case NfsTransport::Rdma: return "rdma";
  }
  return "?";
}

// ---- field lists: each serialized key, once ----

template <class IO>
void fields(IO& io, SsdSpec& s) {
  io("name", s.name);
  io("readBandwidth", s.readBandwidth);
  io("writeBandwidth", s.writeBandwidth);
  io("readLatency", s.readLatency);
  io("writeLatency", s.writeLatency);
  io("randomEfficiency", s.randomEfficiency);
}

template <class IO>
void fields(IO& io, HddSpec& s) {
  io("name", s.name);
  io("streamBandwidth", s.streamBandwidth);
  io("seekTime", s.seekTime);
}

template <class IO>
void fields(IO& io, Machine& m) {
  io("name", m.name);
  io("nodes", m.nodes);
  io("coresPerNode", m.coresPerNode);
  io("gpusPerNode", m.gpusPerNode);
  io("ramGiB", m.ramGiB);
  io("arch", m.arch);
  io("network", m.network);
  io("nodeInjection", m.nodeInjection);
  io("nicLatency", m.nicLatency);
}

template <class IO>
void fields(IO& io, GatewaySpec& g) {
  io("present", g.present);
  io("nodes", g.nodes);
  io("linksPerNode", g.linksPerNode);
  io("linkBandwidth", g.linkBandwidth);
  io("latency", g.latency);
}

template <class IO>
void fields(IO& io, VastConfig& c) {
  io("name", c.name);
  io("cnodes", c.cnodes);
  io("dboxes", c.dboxes);
  io("dnodesPerBox", c.dnodesPerBox);
  io("qlcPerBox", c.qlcPerBox);
  io("scmPerBox", c.scmPerBox);
  io("qlcSpec", c.qlcSpec);
  io("scmSpec", c.scmSpec);
  io("qlcCapacityEach", c.qlcCapacityEach);
  io("scmCapacityEach", c.scmCapacityEach);
  io("cnodeReadBandwidth", c.cnodeReadBandwidth);
  io("cnodeWriteBandwidth", c.cnodeWriteBandwidth);
  io("fabricLinksPerBox", c.fabricLinksPerBox);
  io("fabricLinkBandwidth", c.fabricLinkBandwidth);
  io("fabricLatency", c.fabricLatency);
  io("dataReductionRatio", c.dataReductionRatio);
  io("dnodeCacheBytes", c.dnodeCacheBytes);
  io("defaultReadCacheHitRatio", c.defaultReadCacheHitRatio);
  io("transport", c.transport);
  io("nconnect", c.nconnect);
  io("multipath", c.multipath);
  io("gateway", c.gateway);
  io("tcpSessionCap", c.tcpSessionCap);
  io("rdmaSessionCap", c.rdmaSessionCap);
  io("tcpGatewayPipeCap", c.tcpGatewayPipeCap);
  io("tcpRpcLatency", c.tcpRpcLatency);
  io("rdmaRpcLatency", c.rdmaRpcLatency);
  io("commitLatency", c.commitLatency);
  io("cnodeCommitService", c.cnodeCommitService);
  io("metadataServiceTime", c.metadataServiceTime);
  io("metadataSharedDirPenalty", c.metadataSharedDirPenalty);
  io("sharedFileLockLatency", c.sharedFileLockLatency);
  io("sharedFileEfficiency", c.sharedFileEfficiency);
}

template <class IO>
void fields(IO& io, GpfsConfig& c) {
  io("name", c.name);
  io("nsdServers", c.nsdServers);
  io("serverReadBandwidth", c.serverReadBandwidth);
  io("serverWriteBandwidth", c.serverWriteBandwidth);
  io("hdd", c.hdd);
  io("spindlesPerServer", c.spindlesPerServer);
  io("raidParityOverhead", c.raidParityOverhead);
  io("serverCacheBytes", c.serverCacheBytes);
  io("randomCacheResidencyFactor", c.randomCacheResidencyFactor);
  io("randomCacheDecayBytes", c.randomCacheDecayBytes);
  io("prefetchChurnPerGiB", c.prefetchChurnPerGiB);
  io("clientReadCap", c.clientReadCap);
  io("clientWriteCap", c.clientWriteCap);
  io("rpcLatency", c.rpcLatency);
  io("commitLatency", c.commitLatency);
  io("randomReadPenalty", c.randomReadPenalty);
  io("metadataServiceTime", c.metadataServiceTime);
  io("metadataSharedDirPenalty", c.metadataSharedDirPenalty);
  io("sharedFileLockLatency", c.sharedFileLockLatency);
  io("sharedFileEfficiency", c.sharedFileEfficiency);
  io("capacityTotal", c.capacityTotal);
}

template <class IO>
void fields(IO& io, LustreConfig& c) {
  io("name", c.name);
  io("mdsCount", c.mdsCount);
  io("mdsLatency", c.mdsLatency);
  io("metadataServiceTime", c.metadataServiceTime);
  io("metadataSharedDirPenalty", c.metadataSharedDirPenalty);
  io("sharedFileLockLatency", c.sharedFileLockLatency);
  io("sharedFileEfficiency", c.sharedFileEfficiency);
  io("ossCount", c.ossCount);
  io("ossBandwidth", c.ossBandwidth);
  io("hdd", c.hdd);
  io("spindlesPerOss", c.spindlesPerOss);
  io("raidz2Overhead", c.raidz2Overhead);
  io("stripeCount", c.stripeCount);
  io("clientCap", c.clientCap);
  io("rpcLatency", c.rpcLatency);
  io("commitLatency", c.commitLatency);
  io("randomReadPenalty", c.randomReadPenalty);
  io("capacityTotal", c.capacityTotal);
}

template <class IO>
void fields(IO& io, NvmeLocalConfig& c) {
  io("name", c.name);
  io("drive", c.drive);
  io("drivesPerNode", c.drivesPerNode);
  io("capacityPerDrive", c.capacityPerDrive);
  io("memoryBandwidth", c.memoryBandwidth);
  io("dirtyLimitBytes", c.dirtyLimitBytes);
  io("flushLatency", c.flushLatency);
  io("syscallLatency", c.syscallLatency);
  io("metadataServiceTime", c.metadataServiceTime);
  io("sharedFileLockLatency", c.sharedFileLockLatency);
  io("sharedFileEfficiency", c.sharedFileEfficiency);
}

template <class IO>
void fields(IO& io, DaosConfig& c) {
  io("name", c.name);
  io("pools", c.pools);
  io("targetsPerPool", c.targetsPerPool);
  io("xstreamsPerTarget", c.xstreamsPerTarget);
  io("targetBandwidth", c.targetBandwidth);
  io("targetServiceTime", c.targetServiceTime);
  io("randomEfficiency", c.randomEfficiency);
  io("capacityPerTarget", c.capacityPerTarget);
  io("redundancyGroupSize", c.redundancyGroupSize);
  io("fsyncLatency", c.fsyncLatency);
  io("metadataServiceTime", c.metadataServiceTime);
  io("metadataSharedDirPenalty", c.metadataSharedDirPenalty);
  io("sharedFileLockLatency", c.sharedFileLockLatency);
  io("sharedFileEfficiency", c.sharedFileEfficiency);
  io("fabric", c.fabric);
}

template <class IO>
void fields(IO& io, UnifyFsConfig& c) {
  io("name", c.name);
  io("spillDevice", c.spillDevice);
  io("spillDevicesPerNode", c.spillDevicesPerNode);
  io("shmemBytes", c.shmemBytes);
  io("memoryBandwidth", c.memoryBandwidth);
  io("placement", c.placement);
  io("serverThreadsPerNode", c.serverThreadsPerNode);
  io("serverThreadBandwidth", c.serverThreadBandwidth);
  io("metadataLatency", c.metadataLatency);
  io("localRpcLatency", c.localRpcLatency);
  io("remoteRpcLatency", c.remoteRpcLatency);
  io("capacityPerNode", c.capacityPerNode);
}

template <class IO>
void fields(IO& io, IorConfig& c) {
  io("access", c.access);
  io("blockSize", c.blockSize);
  io("transferSize", c.transferSize);
  io("segments", c.segments);
  io("filePerProcess", c.filePerProcess);
  io("fsyncPerWrite", c.fsyncPerWrite);
  io("reorderTasks", c.reorderTasks);
  io("stonewallSeconds", c.stonewallSeconds);
  io("nodes", c.nodes);
  io("procsPerNode", c.procsPerNode);
  // Written only when aggregating, so legacy configs serialize unchanged.
  io.omitWhen("clientsPerRank", c.clientsPerRank, std::size_t{1});
  io("repetitions", c.repetitions);
  io("mode", c.mode);
  io("noiseStdDevFrac", c.noiseStdDevFrac);
  io("seed", c.seed);
}

template <class IO>
void fields(IO& io, DlioWorkload& w) {
  io("name", w.name);
  io("samples", w.samples);
  io("sampleSize", w.sampleSize);
  io("transferSize", w.transferSize);
  io("batchSize", w.batchSize);
  io("epochs", w.epochs);
  io("ioThreads", w.ioThreads);
  io("computeThreads", w.computeThreads);
  io("prefetchDepth", w.prefetchDepth);
  io("computeTimePerBatch", w.computeTimePerBatch);
  io("scaling", w.scaling);
  io("checkpointEvery", w.checkpointEvery);
  io("checkpointBytes", w.checkpointBytes);
}

template <class IO>
void fields(IO& io, DlioConfig& c) {
  io("workload", c.workload);
  io("nodes", c.nodes);
  io("procsPerNode", c.procsPerNode);
  io("seed", c.seed);
  io("computeJitterFrac", c.computeJitterFrac);
}

template <class IO>
void fields(IO& io, MdtestConfig& c) {
  io("nodes", c.nodes);
  io("procsPerNode", c.procsPerNode);
  io("itemsPerProc", c.itemsPerProc);
  io("uniqueDirPerTask", c.uniqueDirPerTask);
  io("repetitions", c.repetitions);
  io("noiseStdDevFrac", c.noiseStdDevFrac);
  io("seed", c.seed);
}

// ---- public (de)serializers ----

JsonValue toJson(AccessPattern p) { return FieldWriter::encode(p); }
bool fromJson(const JsonValue& j, AccessPattern& out) { return parseEnum(j, out); }
JsonValue toJson(NfsTransport t) { return FieldWriter::encode(t); }
bool fromJson(const JsonValue& j, NfsTransport& out) { return parseEnum(j, out); }
JsonValue toJson(ScalingMode m) { return FieldWriter::encode(m); }
bool fromJson(const JsonValue& j, ScalingMode& out) { return parseEnum(j, out); }
JsonValue toJson(UnifyFsPlacement p) { return FieldWriter::encode(p); }
bool fromJson(const JsonValue& j, UnifyFsPlacement& out) { return parseEnum(j, out); }

JsonValue toJson(const SsdSpec& s) { return writeFields(s); }
bool fromJson(const JsonValue& j, SsdSpec& out) { return readFields(j, out, "").empty(); }
JsonValue toJson(const HddSpec& s) { return writeFields(s); }
bool fromJson(const JsonValue& j, HddSpec& out) { return readFields(j, out, "").empty(); }
JsonValue toJson(const Machine& m) { return writeFields(m); }
bool fromJson(const JsonValue& j, Machine& out) { return readFields(j, out, "").empty(); }
JsonValue toJson(const GatewaySpec& g) { return writeFields(g); }
bool fromJson(const JsonValue& j, GatewaySpec& out) { return readFields(j, out, "").empty(); }
JsonValue toJson(const VastConfig& c) { return writeFields(c); }
bool fromJson(const JsonValue& j, VastConfig& out) { return readFields(j, out, "").empty(); }
JsonValue toJson(const GpfsConfig& c) { return writeFields(c); }
bool fromJson(const JsonValue& j, GpfsConfig& out) { return readFields(j, out, "").empty(); }
JsonValue toJson(const LustreConfig& c) { return writeFields(c); }
bool fromJson(const JsonValue& j, LustreConfig& out) { return readFields(j, out, "").empty(); }
JsonValue toJson(const NvmeLocalConfig& c) { return writeFields(c); }
bool fromJson(const JsonValue& j, NvmeLocalConfig& out) { return readFields(j, out, "").empty(); }
JsonValue toJson(const UnifyFsConfig& c) { return writeFields(c); }
bool fromJson(const JsonValue& j, UnifyFsConfig& out) { return readFields(j, out, "").empty(); }
JsonValue toJson(const DaosConfig& c) { return writeFields(c); }
bool fromJson(const JsonValue& j, DaosConfig& out) { return readFields(j, out, "").empty(); }
JsonValue toJson(const IorConfig& c) { return writeFields(c); }
bool fromJson(const JsonValue& j, IorConfig& out) { return readFields(j, out, "").empty(); }
JsonValue toJson(const DlioWorkload& w) { return writeFields(w); }
bool fromJson(const JsonValue& j, DlioWorkload& out) { return readFields(j, out, "").empty(); }
JsonValue toJson(const DlioConfig& c) { return writeFields(c); }
bool fromJson(const JsonValue& j, DlioConfig& out) { return readFields(j, out, "").empty(); }
JsonValue toJson(const MdtestConfig& c) { return writeFields(c); }
bool fromJson(const JsonValue& j, MdtestConfig& out) { return readFields(j, out, "").empty(); }

template <typename T>
std::string readConfig(const JsonValue& j, const std::string& path, T& out) {
  return readFields(j, out, path);
}

// ---- file helpers ----

template <typename T>
bool saveConfig(const T& config, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << writeJson(toJson(config), 2) << '\n';
  return static_cast<bool>(out);
}

template <typename T>
bool loadConfig(const std::string& path, T& out, std::string* error) {
  std::string problem;
  std::ifstream in(path);
  JsonValue root;
  if (!in) {
    problem = "cannot read " + path;
  } else {
    std::ostringstream buf;
    buf << in.rdbuf();
    if (!parseJson(buf.str(), root)) {
      problem = path + " is not valid JSON";
    } else if (std::string e = readFields(root, out, ""); !e.empty()) {
      problem = path + ": " + e;
    }
  }
  if (error != nullptr) *error = problem;
  return problem.empty();
}

// Explicit instantiations for every config type.
template std::string readConfig<transport::TransportProfile>(const JsonValue&,
                                                             const std::string&,
                                                             transport::TransportProfile&);
#define HCSIM_CONFIG_IO(T)                                                         \
  template std::string readConfig<T>(const JsonValue&, const std::string&, T&); \
  template bool saveConfig<T>(const T&, const std::string&);                    \
  template bool loadConfig<T>(const std::string&, T&, std::string*);
HCSIM_CONFIG_IO(Machine)
HCSIM_CONFIG_IO(VastConfig)
HCSIM_CONFIG_IO(GpfsConfig)
HCSIM_CONFIG_IO(LustreConfig)
HCSIM_CONFIG_IO(NvmeLocalConfig)
HCSIM_CONFIG_IO(UnifyFsConfig)
HCSIM_CONFIG_IO(DaosConfig)
HCSIM_CONFIG_IO(IorConfig)
HCSIM_CONFIG_IO(DlioWorkload)
HCSIM_CONFIG_IO(DlioConfig)
HCSIM_CONFIG_IO(MdtestConfig)
#undef HCSIM_CONFIG_IO

}  // namespace hcsim
