#pragma once
// Calibration targets — every quantitative claim the paper makes, as
// constants, plus a check helper used by EXPERIMENTS.md generation and
// the regression tests. The reproduction requirement is *shape*: who
// wins, by roughly what factor, where saturation falls — so checks carry
// generous tolerance factors.

#include <string>
#include <vector>

namespace hcsim::calibration {

// ---- §VII takeaways ----
inline constexpr double kRdmaVsTcpFactor = 8.0;          ///< "up to 8x higher bandwidths"
inline constexpr double kTcpPerNodeGBs = 1.0;            ///< "around 1 GB/s per node"
inline constexpr double kRdmaPerNodeGBs = 8.0;           ///< "approximately 8 GB/s per node"
inline constexpr double kGpfsSeqReadPerNodeGBs = 14.5;   ///< GPFS sequential reads
inline constexpr double kGpfsRandReadPerNodeGBs = 1.4;   ///< GPFS random reads
inline constexpr double kGpfsRandomDropFraction = 0.90;  ///< "90% performance drop"
inline constexpr double kVastSeqReadPerNodeGBs = 9.0;    ///< RDMA VAST sequential
inline constexpr double kVastRandReadPerNodeGBs = 7.0;   ///< RDMA VAST random

// ---- §V observations ----
inline constexpr double kWombatSingleNodeWriteGBs = 5.8;   ///< fsync, 32 procs
inline constexpr double kWombatSingleNodeReadGBs = 26.6;   ///< data analytics, 32 procs
inline constexpr double kWombatMlPeakGBs = 22.5;           ///< random read, 4 nodes
inline constexpr std::size_t kWombatMlPeakNodes = 4;       ///< global max location
inline constexpr double kVastVsNvmeSingleNodeFactor = 5.0; ///< "almost 5x"
inline constexpr std::size_t kGpfsSeqReadSaturationNodes = 32;  ///< Fig 2a saturation
inline constexpr std::size_t kVastLassenStagnationNodes = 32;   ///< "abrupt stagnation after 32"

/// One paper-vs-measured comparison row.
struct Check {
  std::string name;
  double paperValue = 0.0;
  double measured = 0.0;
  /// Accepted multiplicative band: pass iff measured/paper in
  /// [1/tolerance, tolerance].
  double tolerance = 2.0;

  bool pass() const;
  double ratio() const;
};

/// Render rows as a markdown table fragment (EXPERIMENTS.md).
std::string toMarkdown(const std::vector<Check>& checks);

}  // namespace hcsim::calibration
