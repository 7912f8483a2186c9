// quickstart — the smallest useful hcsim program.
//
// Builds the paper's two headline deployments (TCP-attached VAST on
// Lassen, RDMA-attached VAST on Wombat), runs one full-node IOR
// sequential-write test on each as a sweep trial, and prints the
// per-node bandwidths — the "8x RDMA vs TCP" takeaway in ~30 lines.

#include <cstdio>

#include "sweep/sweep_runner.hpp"

namespace {

/// GB/s of one 1-node IOR sequential write on `site`'s VAST. The config
/// is what a sweep spec's "base" holds; every other key is the IOR
/// default (1 MiB transfers, 3000 segments, file per process).
double seqWriteGBs(const char* site, double procsPerNode) {
  using namespace hcsim;
  JsonObject ior;
  ior["access"] = "seq-write";
  ior["procsPerNode"] = procsPerNode;
  JsonObject config;
  config["site"] = site;
  config["storage"] = "vast";
  config["ior"] = JsonValue(std::move(ior));
  return sweep::runTrial("ior", JsonValue(std::move(config))).meanGBs;
}

}  // namespace

int main() {
  std::printf("hcsim quickstart: one IOR sequential-write test per deployment\n\n");

  // TCP-deployed VAST as reached from Lassen (one gateway, single TCP
  // link), and RDMA-deployed VAST on Wombat (nconnect=16, multipath),
  // each with a full node of processes.
  const double tcpGBs = seqWriteGBs("lassen", 44);
  const double rdmaGBs = seqWriteGBs("wombat", 48);
  std::printf("  VAST over NFS/TCP  (Lassen): %6.2f GB/s per node\n", tcpGBs);
  std::printf("  VAST over NFS/RDMA (Wombat): %6.2f GB/s per node\n", rdmaGBs);
  std::printf("  RDMA advantage:              %6.2fx (paper: up to 8x)\n",
              rdmaGBs / tcpGBs);
  return 0;
}
