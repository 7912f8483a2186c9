// Extension bench: availability under component failure — the behaviour
// VAST's HA architecture (§III-A: stateless CNodes, dual-DNode DBoxes)
// promises but the paper could not test on production hardware.

#include <cstdio>

#include "cluster/deployments.hpp"
#include "ior/ior_runner.hpp"
#include "util/table.hpp"

using namespace hcsim;

namespace {

double bandwidthWith(std::size_t failedCnodes, std::size_t degradedBoxes,
                     std::size_t failedBoxes, AccessPattern access) {
  TestBench bench(Machine::wombat(), 4);
  auto fs = bench.attachVast(vastOnWombat());
  for (std::size_t i = 0; i < failedCnodes; ++i) fs->failCNode(i);
  for (std::size_t b = 0; b < degradedBoxes; ++b) fs->failDNode(b);
  for (std::size_t b = 0; b < failedBoxes; ++b) fs->failDBox(b);
  IorRunner runner(bench, *fs);
  IorConfig cfg = IorConfig::scalability(access, 4, 48);
  cfg.segments = 512;
  return units::toGBs(runner.run(cfg).bandwidth.mean);
}

}  // namespace

int main() {
  std::printf("== Failure injection: VAST on Wombat, 4 nodes x 48 procs ==\n\n");

  {
    ResultTable t("CNode failures (stateless failover)");
    t.setHeader({"failed CNodes", "write GB/s", "seq read GB/s"});
    for (std::size_t f : {0u, 1u, 2u, 4u, 6u}) {
      t.addRow({static_cast<double>(f), bandwidthWith(f, 0, 0, AccessPattern::SequentialWrite),
                bandwidthWith(f, 0, 0, AccessPattern::SequentialRead)});
    }
    std::printf("%s\n", t.toString().c_str());
  }

  {
    ResultTable t("DNode / DBox failures (HA enclosures)");
    t.setHeader({"scenario", "write GB/s", "seq read GB/s"});
    t.addRow({std::string("healthy"), bandwidthWith(0, 0, 0, AccessPattern::SequentialWrite),
              bandwidthWith(0, 0, 0, AccessPattern::SequentialRead)});
    t.addRow({std::string("1 DNode down (HA pair degraded)"),
              bandwidthWith(0, 1, 0, AccessPattern::SequentialWrite),
              bandwidthWith(0, 1, 0, AccessPattern::SequentialRead)});
    t.addRow({std::string("all pairs degraded"),
              bandwidthWith(0, 4, 0, AccessPattern::SequentialWrite),
              bandwidthWith(0, 4, 0, AccessPattern::SequentialRead)});
    t.addRow({std::string("1 DBox down"),
              bandwidthWith(0, 0, 1, AccessPattern::SequentialWrite),
              bandwidthWith(0, 0, 1, AccessPattern::SequentialRead)});
    t.addRow({std::string("2 DBoxes down"),
              bandwidthWith(0, 0, 2, AccessPattern::SequentialWrite),
              bandwidthWith(0, 0, 2, AccessPattern::SequentialRead)});
    std::printf("%s\n", t.toString().c_str());
  }

  std::printf("Shape: bandwidth falls with the CNodes lost (half of them down halves it),\n"
              "because CNode CPU binds. Every DNode and DBox row reads the healthy figure:\n"
              "the CNodes bind before the surviving fabric paths or drives do.\n");
  return 0;
}
