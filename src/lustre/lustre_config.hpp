#pragma once
// LustreConfig — the LC Lustre instance (paper §IV-B): 16 MDSs with SAS
// SSD ZFS mirrors, 36 OSSs with 80-HDD raidz2 groups, EDR InfiniBand SAN,
// clients attached over 100 Gb Omni-Path (Quartz/Ruby).

#include <cstddef>
#include <string>

#include "config/range.hpp"
#include "device/hdd_raid.hpp"
#include "util/units.hpp"

namespace hcsim {

struct LustreConfig {
  std::string name = "Lustre";

  // ---- Metadata path ----
  std::size_t mdsCount = 16;
  Seconds mdsLatency = units::usec(250);
  /// Per-op service at an MDS (SAS-SSD ZFS mirrors: fast lookups).
  Seconds metadataServiceTime = units::usec(180);
  double metadataSharedDirPenalty = 3.0;  ///< single-dir DLM contention
  /// N-1 shared-file costs: LDLM extent locks shrink under contention.
  Seconds sharedFileLockLatency = units::usec(800);
  double sharedFileEfficiency = 0.7;

  // ---- Object storage path ----
  std::size_t ossCount = 36;
  /// Per-OSS network/processing ceiling.
  Bandwidth ossBandwidth = units::gbs(3.0);
  HddSpec hdd = HddSpec::nearlineSas();
  std::size_t spindlesPerOss = 80;
  double raidz2Overhead = 0.25;

  // ---- Striping ----
  std::size_t stripeCount = 1;  ///< OSTs per file (default PFL off)

  // ---- Client ----
  /// Omni-Path: 100 Gb/s per compute node.
  Bandwidth clientCap = units::gbps(100);

  // ---- Latencies ----
  Seconds rpcLatency = units::usec(300);
  /// fsync commit: ZFS transaction-group / ZIL flush on HDD raidz2.
  Seconds commitLatency = units::msec(3.5);
  /// Random-read seek+readahead-miss penalty per op at the client.
  Seconds randomReadPenalty = units::msec(10.0);

  Bytes capacityTotal = 30 * units::PB;

  void validate() const;

  /// The LC instance serving Quartz and Ruby.
  static LustreConfig lcInstance();
};

template <class IO>
void fields(IO& io, LustreConfig& c) {
  io("name", c.name);
  io("mdsCount", c.mdsCount, kCount);
  io("mdsLatency", c.mdsLatency, kNonNegative);
  io("metadataServiceTime", c.metadataServiceTime, kNonNegative);
  io("metadataSharedDirPenalty", c.metadataSharedDirPenalty, kAtLeastOne);
  io("sharedFileLockLatency", c.sharedFileLockLatency, kNonNegative);
  io("sharedFileEfficiency", c.sharedFileEfficiency, kEfficiency);
  io("ossCount", c.ossCount, kCount);
  io("ossBandwidth", c.ossBandwidth, kPositive);
  io("hdd", c.hdd);
  io("spindlesPerOss", c.spindlesPerOss, kCount);
  io("raidz2Overhead", c.raidz2Overhead, kProperFraction);
  io("stripeCount", c.stripeCount, kCount);
  io("clientCap", c.clientCap, kPositive);
  io("rpcLatency", c.rpcLatency, kNonNegative);
  io("commitLatency", c.commitLatency, kNonNegative);
  io("randomReadPenalty", c.randomReadPenalty, kNonNegative);
  io("capacityTotal", c.capacityTotal, kPositive);
}

}  // namespace hcsim
