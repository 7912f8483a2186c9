#pragma once
// IorConfig — reimplementation of the IOR-4.1.0 options the paper uses
// (§IV-C1): POSIX API, N-N file-per-process, sequential write (scientific
// simulations), sequential read (data analytics), random read (ML),
// optional fsync-per-write (-e), task reordering (-C) so that a different
// client reads than wrote, block/transfer/segment geometry.

#include <cstddef>
#include <cstdint>
#include <string>

#include "config/range.hpp"
#include "device/ssd.hpp"  // AccessPattern
#include "util/units.hpp"

namespace hcsim {

struct IorConfig {
  /// How the runner drives the simulation:
  ///  * Coalesced — one flow per process for the whole phase (exact for
  ///    the flow-level model; used for the scalability tests, DESIGN §5);
  ///  * PerOp — every transfer is its own simulated request (used for the
  ///    fsync single-node tests where commit queueing matters).
  enum class Mode { Coalesced, PerOp };

  AccessPattern access = AccessPattern::SequentialWrite;
  Bytes blockSize = units::MiB;     ///< -b
  Bytes transferSize = units::MiB;  ///< -t
  std::size_t segments = 3000;      ///< -s (paper: 3000 -> ~120 GB/node)
  bool filePerProcess = true;       ///< -F (N-N; paper avoids N-1)
  bool fsyncPerWrite = false;       ///< -e
  bool reorderTasks = true;         ///< -C: different client reads than wrote
  /// -D: stonewalling — stop issuing after this many seconds and report
  /// bytes actually moved (avoids stragglers dominating). 0 disables;
  /// requires Mode::PerOp.
  Seconds stonewallSeconds = 0.0;
  std::size_t nodes = 1;
  std::size_t procsPerNode = 1;
  /// Flow-class aggregation (hcsim::scale): every rank's requests carry
  /// this many members — each simulated proc stands for clientsPerRank
  /// identical colocated clients, and the phase declares the multiplied
  /// population. 1 = legacy per-proc streams, byte-identically.
  std::size_t clientsPerRank = 1;
  std::size_t repetitions = 1;  ///< paper repeats every test 10x
  Mode mode = Mode::Coalesced;
  /// Multiplicative run-to-run variability of a *shared* production
  /// system (the reason the paper repeats runs); 0 disables.
  double noiseStdDevFrac = 0.0;
  std::uint64_t seed = 0x10eull;

  std::size_t totalProcs() const { return nodes * procsPerNode; }
  Bytes bytesPerProc() const { return static_cast<Bytes>(segments) * blockSize; }
  Bytes totalBytes() const { return bytesPerProc() * totalProcs(); }
  std::uint64_t transfersPerProc() const {
    return static_cast<std::uint64_t>(segments) * (blockSize / transferSize);
  }

  /// Throws std::invalid_argument naming the first field outside its
  /// range, a block that is not whole transfers, stonewalling without
  /// Mode::PerOp, or a volume that does not fit in 64 bits (naming
  /// segments).
  void validate() const;

  std::string describe() const;

  // ---- Presets for the paper's experiments ----

  /// Fig 2 scalability geometry: 1 MiB block & transfer, 3000 segments,
  /// full-node process counts, ~120 GB per node.
  static IorConfig scalability(AccessPattern access, std::size_t nodes,
                               std::size_t procsPerNode);

  /// Fig 3 single-node geometry: fsync on write, per-op simulation,
  /// 1-32 processes, a smaller per-process volume (256 MiB).
  static IorConfig singleNodeFsync(AccessPattern access, std::size_t procs);
};

const char* toString(IorConfig::Mode m);

template <class IO>
void fields(IO& io, IorConfig& c) {
  io("access", c.access);
  io("blockSize", c.blockSize, kPositive);
  io("transferSize", c.transferSize, kPositive);
  io("segments", c.segments, kCount);
  io("filePerProcess", c.filePerProcess);
  io("fsyncPerWrite", c.fsyncPerWrite);
  io("reorderTasks", c.reorderTasks);
  io("stonewallSeconds", c.stonewallSeconds, kNonNegative);
  io("nodes", c.nodes, kCount);
  io("procsPerNode", c.procsPerNode, kCount);
  // Written only when aggregating, so legacy configs serialize unchanged.
  io.omitWhen("clientsPerRank", c.clientsPerRank, std::size_t{1}, kCount);
  io("repetitions", c.repetitions, kCount);
  io("mode", c.mode);
  io("noiseStdDevFrac", c.noiseStdDevFrac, kNonNegative);
  io("seed", c.seed);
}

}  // namespace hcsim
