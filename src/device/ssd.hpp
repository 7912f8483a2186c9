#pragma once
// Solid-state device models.
//
// An SsdSpec captures the two figures the paper's analysis depends on:
// streaming bandwidth (read/write separately — QLC flash writes far slower
// than it reads) and per-request latency (SCM's "100ns..30us" ultra-low
// random latency vs QLC's higher one). SsdArray aggregates N identical
// devices behind one pool, which is how VAST DBoxes (22 QLC + 6 SCM per
// box) and node-local NVMe (3x Samsung 970 PRO) are wired.

#include <cstddef>
#include <string>

#include "config/range.hpp"
#include "util/units.hpp"

namespace hcsim {

/// Access pattern of an I/O phase; decides device efficiency.
enum class AccessPattern { SequentialRead, SequentialWrite, RandomRead, RandomWrite };

inline bool isRead(AccessPattern p) {
  return p == AccessPattern::SequentialRead || p == AccessPattern::RandomRead;
}
inline bool isSequential(AccessPattern p) {
  return p == AccessPattern::SequentialRead || p == AccessPattern::SequentialWrite;
}

const char* toString(AccessPattern p);

struct SsdSpec {
  std::string name;
  Bandwidth readBandwidth = 0.0;   ///< streaming read, bytes/s
  Bandwidth writeBandwidth = 0.0;  ///< streaming write, bytes/s
  Seconds readLatency = 0.0;       ///< per-request access latency
  Seconds writeLatency = 0.0;
  /// Random-access efficiency in (0,1]: fraction of streaming bandwidth
  /// retained under random access at large request sizes (flash has no
  /// seek, so this stays near 1; the paper's VAST random~=sequential
  /// observation rests on it).
  double randomEfficiency = 1.0;

  // --- Presets (values from public datasheets / the paper's description) ---

  /// Storage Class Memory SSD: VAST's write buffer & metadata tier.
  /// "ultra-low latency (100 nanoseconds to 30 microseconds)".
  static SsdSpec scm();

  /// Hyperscale QLC flash: VAST's capacity tier. Reads fast; sustained
  /// writes much slower (QLC programming), which VAST hides behind SCM.
  static SsdSpec qlc();

  /// Samsung 970 PRO (PCIe Gen3x4): Wombat's node-local NVMe.
  /// Datasheet: ~3.5 GB/s read, ~2.7 GB/s write.
  static SsdSpec samsung970Pro();

  /// SAS SSD used in Lustre MDS ZFS mirrors.
  static SsdSpec sasSsd();
};

template <class IO>
void fields(IO& io, SsdSpec& s) {
  io("name", s.name);
  io("readBandwidth", s.readBandwidth, kPositive);
  io("writeBandwidth", s.writeBandwidth, kPositive);
  io("readLatency", s.readLatency, kNonNegative);
  io("writeLatency", s.writeLatency, kNonNegative);
  io("randomEfficiency", s.randomEfficiency, kEfficiency);
}

/// N identical SSDs treated as one pool. Effective pool bandwidth for a
/// phase = N * per-device streaming bandwidth, derated by the random
/// efficiency and by small-request latency amortization:
///
///   perDevice(pattern, reqSize) =
///       reqSize / (latency + reqSize / (bw * eff))
///
/// which tends to bw*eff for large requests and latency-bound IOPS for
/// small ones.
class SsdArray {
 public:
  SsdArray(SsdSpec spec, std::size_t count);

  const SsdSpec& spec() const { return spec_; }
  std::size_t count() const { return count_; }

  /// Aggregate effective bandwidth for a homogeneous access phase.
  Bandwidth effectiveBandwidth(AccessPattern pattern, Bytes requestSize) const;

  /// Per-request device latency for the pattern.
  Seconds requestLatency(AccessPattern pattern) const;

 private:
  SsdSpec spec_;
  std::size_t count_;
};

}  // namespace hcsim
