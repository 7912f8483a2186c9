#pragma once
// Machine — the compute clusters of Table I.

#include <cstddef>
#include <string>

#include "config/range.hpp"
#include "util/units.hpp"

namespace hcsim {

struct Machine {
  std::string name;
  std::size_t nodes = 0;         ///< cluster size
  unsigned coresPerNode = 0;     ///< "CPU" column (cores)
  unsigned gpusPerNode = 0;
  unsigned ramGiB = 0;
  std::string arch;
  std::string network;
  /// Per-node injection bandwidth into the cluster fabric.
  Bandwidth nodeInjection = 0.0;
  Seconds nicLatency = units::usec(2);

  /// Processes per node the paper uses for full-node runs.
  unsigned fullNodeProcs() const { return coresPerNode; }

  // ---- Table I presets ----
  static Machine lassen();  ///< 795 nodes, 44 cores, 4 GPUs, Power9, IB EDR
  static Machine ruby();    ///< 1512 nodes, 56 cores, Xeon, Omni-Path
  static Machine quartz();  ///< 3018 nodes, 36 cores, Xeon, Omni-Path
  static Machine wombat();  ///< 8 nodes, 48 cores, A64fx, IB EDR
};

template <class IO>
void fields(IO& io, Machine& m) {
  io("name", m.name);
  io("nodes", m.nodes, kCount);
  io("coresPerNode", m.coresPerNode, kCount);
  io("gpusPerNode", m.gpusPerNode, kWhole);
  io("ramGiB", m.ramGiB, kWhole);
  io("arch", m.arch);
  io("network", m.network);
  io("nodeInjection", m.nodeInjection, kPositive);
  io("nicLatency", m.nicLatency, kNonNegative);
}

}  // namespace hcsim
