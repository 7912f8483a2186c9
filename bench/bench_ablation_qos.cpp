// Extension bench: QoS via weighted fairness. Storage appliances (VAST
// included) ship per-tenant QoS policies; with weighted max-min in the
// flow network we can ask what a policy buys: protect a foreground
// workload against background tenants by weight rather than by luck.

#include <cstdio>

#include "cluster/deployments.hpp"
#include "util/table.hpp"

using namespace hcsim;

namespace {

// Foreground (2 nodes) + background (6 nodes) streams sharing VAST on
// Wombat, with the given weights. Returns foreground aggregate GB/s.
double foregroundGBs(double fgWeight, double bgWeight) {
  TestBench bench(Machine::wombat(), 8);
  auto fs = bench.attachVast(vastOnWombat());
  PhaseSpec ph;
  ph.pattern = AccessPattern::SequentialRead;
  ph.requestSize = units::MiB;
  ph.nodes = 8;
  ph.procsPerNode = 16;
  ph.workingSetBytes = 8ull * 16 * units::GiB;
  fs->beginPhase(ph);

  SimTime fgEnd = 0;
  const Bytes perStream = units::GiB;
  for (std::uint32_t n = 0; n < 8; ++n) {
    const bool foreground = n < 2;
    for (std::uint32_t s = 0; s < 16; ++s) {
      IoRequest req;
      req.client = {n, s};
      req.fileId = n * 16 + s + 1;
      req.bytes = perStream;
      req.pattern = AccessPattern::SequentialRead;
      req.ops = 1024;
      req.qosWeight = foreground ? fgWeight : bgWeight;
      fs->submit(req, [&fgEnd, foreground](const IoResult& r) {
        if (foreground) fgEnd = std::max(fgEnd, r.endTime);
      });
    }
  }
  bench.sim().run();
  return 2.0 * 16.0 * static_cast<double>(perStream) / fgEnd / 1e9;
}

}  // namespace

int main() {
  std::printf("== Ablation: QoS weights (VAST on Wombat, 2 fg + 6 bg nodes) ==\n\n");
  ResultTable t("foreground read bandwidth by QoS policy");
  t.setHeader({"policy", "fg weight", "bg weight", "foreground GB/s"});
  const struct {
    const char* label;
    double fg, bg;
  } policies[] = {
      {"no QoS (equal)", 1.0, 1.0},
      {"fg preferred 2:1", 2.0, 1.0},
      {"fg preferred 4:1", 4.0, 1.0},
      {"fg guaranteed 8:1", 8.0, 1.0},
      {"bg preferred 1:4 (inverted)", 1.0, 4.0},
  };
  for (const auto& p : policies) {
    t.addRow({std::string(p.label), p.fg, p.bg, foregroundGBs(p.fg, p.bg)});
  }
  std::printf("%s\n", t.toString().c_str());
  std::printf("Weighted max-min turns the shared-cluster contention problem into a\n"
              "dial: the foreground's share scales with its weight until its own\n"
              "NIC/session limits bind.\n");
  return 0;
}
