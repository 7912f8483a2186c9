#pragma once
// Io500Source — synthetic workloads shaped like IO500 submissions,
// calibrated to the statistics published from the IO500 "treasure
// trove" analysis (see PAPERS.md): four bandwidth phases run in the
// benchmark's order with barriers between them —
//
//   ior-easy-write  file-per-process, large aligned sequential writes
//                   (the dominant submitted easy transfer is ~1 MiB),
//   ior-hard-write  single shared file, interleaved 47008-byte ops
//                   (the benchmark's fixed hard record size),
//   ior-easy-read   each rank reads its own file back sequentially,
//   ior-hard-read   random 47008-byte reads of the shared file.
//
// Per-rank volumes are drawn seed-deterministically from lognormal
// distributions around the configured medians (submission volumes span
// orders of magnitude; lognormal matches that heavy right tail), so two
// runs with the same seed are identical and `scale` grows the working
// set without changing per-op geometry — which is why bandwidth is
// scale-invariant (the oracle relation pinning this generator).

#include <vector>

#include "config/range.hpp"
#include "util/random.hpp"
#include "workload/workload_source.hpp"

namespace hcsim::workload {

struct Io500Config {
  std::size_t nodes = 1;
  std::size_t procsPerNode = 4;
  /// Working-set multiplier: scales per-rank op counts, not op sizes.
  double scale = 1.0;
  std::uint64_t seed = 0x10500ull;
  Bytes easyTransfer = units::MiB;  ///< easy phases' request size
  Bytes hardTransfer = 47008;       ///< IO500's fixed hard record size
  /// Median per-rank op counts at scale 1 (lognormal around these).
  std::uint64_t easyOpsMedian = 32;
  std::uint64_t hardOpsMedian = 128;
  /// Lognormal sigma of the per-rank volume draw (0 = exact medians).
  double volumeSigma = 0.4;

  std::size_t totalRanks() const { return nodes * procsPerNode; }
};

/// The "io500" generator section.
template <class IO>
void fields(IO& io, Io500Config& c) {
  io("nodes", c.nodes, kCount);
  io("procsPerNode", c.procsPerNode, kCount);
  io("scale", c.scale, kPositive);
  io("seed", c.seed);
  io("easyTransfer", c.easyTransfer, kPositive);
  io("hardTransfer", c.hardTransfer, kPositive);
  io("easyOpsMedian", c.easyOpsMedian, kCount);
  io("hardOpsMedian", c.hardOpsMedian, kCount);
  io("volumeSigma", c.volumeSigma, kNonNegative);
}

class Io500Source : public WorkloadSource {
 public:
  explicit Io500Source(const Io500Config& cfg) : cfg_(cfg) {}

  const std::string& name() const override { return name_; }
  WorkloadPlan load(const WorkloadContext& ctx) override;
  NextStatus next(std::size_t rank, WorkloadOp& out) override;
  void onComplete(std::size_t rank, const WorkloadOp& op, const IoResult& result) override;

 private:
  struct RankState {
    ClientId client{};
    std::uint64_t easyOps = 0;  ///< this rank's per-easy-phase op count
    std::uint64_t hardOps = 0;
    std::size_t phase = 0;  ///< 0 easy-write, 1 hard-write, 2 easy-read, 3 hard-read
    std::uint64_t opIdx = 0;
    Bytes cursor = 0;
    Rng rng;
    bool pending = false;
    bool done = false;
  };

  PhaseSpec phaseSpec(std::size_t phase) const;
  std::uint64_t phaseOps(const RankState& st, std::size_t phase) const {
    return phase == 0 || phase == 2 ? st.easyOps : st.hardOps;
  }

  std::string name_ = "io500";
  Io500Config cfg_;
  std::vector<RankState> ranks_;
  Bytes hardFileBytes_ = 0;  ///< shared-file extent (sum of hard writes)
};

}  // namespace hcsim::workload
