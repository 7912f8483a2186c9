#pragma once
// Rotating-disk RAID model — the backend of GPFS (NSD HDD RAID) and
// Lustre (80-disk SAS HDD raidz2 groups per OSS).
//
// The single behaviour that matters for the paper is the seek penalty:
// GPFS on Lassen serves ~14.5 GB/s/node for *sequential* reads but only
// ~1.4 GB/s for *random* reads — a 90% drop caused by cache thrash plus
// HDD seeks. The model: each spindle streams at `streamBandwidth`, and a
// random request additionally pays `seekTime`, so the effective per-
// spindle rate is reqSize / (seek + reqSize/stream).

#include <cstddef>
#include <string>

#include "device/ssd.hpp"  // AccessPattern
#include "util/units.hpp"

namespace hcsim {

struct HddSpec {
  std::string name;
  Bandwidth streamBandwidth = 0.0;  ///< sustained sequential, bytes/s
  Seconds seekTime = 0.0;           ///< average seek + rotational latency

  /// 7.2k RPM nearline SAS drive (the Lustre/GPFS capacity tier).
  static HddSpec nearlineSas();
};

template <class IO>
void fields(IO& io, HddSpec& s) {
  io("name", s.name);
  io("streamBandwidth", s.streamBandwidth, kPositive);
  io("seekTime", s.seekTime, kNonNegative);
}

/// A RAID group of `spindles` identical drives. `parityOverhead` derates
/// writes (RAID6/raidz2 read-modify-write); reads are served from data
/// disks at full aggregate streaming rate.
class HddRaid {
 public:
  HddRaid(HddSpec spec, std::size_t spindles, double parityOverhead = 0.15);

  const HddSpec& spec() const { return spec_; }
  std::size_t spindles() const { return spindles_; }

  /// Aggregate effective bandwidth for a homogeneous access phase.
  Bandwidth effectiveBandwidth(AccessPattern pattern, Bytes requestSize) const;

  /// Per-request latency (seek applies to random; sequential streams).
  Seconds requestLatency(AccessPattern pattern) const;

 private:
  HddSpec spec_;
  std::size_t spindles_;
  double parityOverhead_;
};

}  // namespace hcsim
