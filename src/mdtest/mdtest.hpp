#pragma once
// MDTest reimplementation — the metadata companion of IOR (the paper's
// related-work evaluations of BurstFS/GekkoFS/IME/Ceph all pair IOR with
// MDTest). Each process creates, stats and removes `itemsPerProc` empty
// files, either in one shared directory (contended: directory locks
// serialize) or in a unique directory per task (-u). Reported metric:
// operations per second per phase.

#include <vector>

#include "cluster/deployments.hpp"
#include "config/range.hpp"
#include "fs/file_system_model.hpp"
#include "util/stats.hpp"

namespace hcsim {

struct MdtestConfig {
  std::size_t nodes = 1;
  std::size_t procsPerNode = 1;
  std::size_t itemsPerProc = 64;   ///< -n
  bool uniqueDirPerTask = false;   ///< -u
  std::size_t repetitions = 1;     ///< -i
  double noiseStdDevFrac = 0.0;
  std::uint64_t seed = 0x3d7e57ull;

  std::size_t totalProcs() const { return nodes * procsPerNode; }
  std::size_t totalItems() const { return totalProcs() * itemsPerProc; }

  void validate() const;
};

template <class IO>
void fields(IO& io, MdtestConfig& c) {
  io("nodes", c.nodes, kCount);
  io("procsPerNode", c.procsPerNode, kCount);
  io("itemsPerProc", c.itemsPerProc, kCount);
  io("uniqueDirPerTask", c.uniqueDirPerTask);
  io("repetitions", c.repetitions, kCount);
  io("noiseStdDevFrac", c.noiseStdDevFrac, kNonNegative);
  io("seed", c.seed);
}

struct MdtestResult {
  Summary createOpsPerSec;
  Summary statOpsPerSec;
  Summary removeOpsPerSec;
  std::size_t totalItems = 0;
};

class MdtestRunner {
 public:
  MdtestRunner(TestBench& bench, FileSystemModel& fs) : bench_(bench), fs_(fs) {}

  MdtestResult run(const MdtestConfig& cfg);

 private:
  /// One phase (all procs perform `op` on every item); returns elapsed.
  Seconds runPhase(const MdtestConfig& cfg, MetaOp op);

  TestBench& bench_;
  FileSystemModel& fs_;
};

}  // namespace hcsim
