#pragma once
// OpenLoopSource — arrival-rate clients, the first step toward the
// "highly configurable storage for a million users" north star: each of
// `clients` independent ranks issues requests at Poisson arrivals of
// `ratePerClientHz` for `horizonSec`, targeting objects drawn from a
// Zipf(theta) popularity distribution (hot objects dominate, as in any
// shared-service trace). Unlike the closed-loop benchmarks, arrivals do
// NOT wait for completions — when the storage degrades (chaos
// fail-slow), queues build and the goodput timeline shows the dip and
// the recovery, which is what the openloop+chaos composition test pins.

#include <memory>
#include <vector>

#include "config/range.hpp"
#include "util/random.hpp"
#include "workload/workload_source.hpp"
#include "workload/zipf.hpp"

namespace hcsim::workload {

struct OpenLoopConfig {
  std::size_t clients = 8;         ///< independent op streams (flow classes)
  std::size_t clientsPerNode = 4;  ///< maps client -> compute node
  double ratePerClientHz = 50.0;   ///< mean Poisson arrival rate
  Seconds horizonSec = 10.0;       ///< arrivals stop after this
  std::size_t objects = 1024;      ///< object-store population
  double zipfTheta = 0.99;         ///< 0 = uniform popularity
  Bytes objectBytes = 4 * units::MiB;
  Bytes requestBytes = 128 * units::KiB;
  double readFraction = 0.9;       ///< rest are writes
  std::uint64_t seed = 0x09e71007ull;
  /// Goodput timeline sampling interval (0 = horizon/20).
  Seconds sampleIntervalSec = 0.0;

  /// Flow-class aggregation (hcsim::scale): each of the `clients` ranks
  /// stands for this many colocated identical clients issuing in
  /// lockstep — requests carry `members = clientsPerRank`, so
  /// clients * clientsPerRank clients are simulated with per-class
  /// cost. 1 = legacy per-client streams, byte-identically.
  std::size_t clientsPerRank = 1;
  /// All ranks draw from ONE rng stream (the raw seed, no per-rank
  /// perturbation): every rank issues the identical arrival sequence.
  /// This is what makes class-partition invariance exact — splitting a
  /// class of 2N into two classes of N leaves every draw unchanged.
  bool sharedStream = false;
  /// Lognormal sigma of deterministic per-rank demand multipliers
  /// (scale::demandMultipliers): rank i's arrival rate becomes
  /// ratePerClientHz * mult[i], mean preserved. 0 = homogeneous.
  double demandSigma = 0.0;

  std::size_t nodes() const {
    return (clients + clientsPerNode - 1) / std::max<std::size_t>(1, clientsPerNode);
  }
  std::size_t totalClients() const { return clients * std::max<std::size_t>(1, clientsPerRank); }

  /// The section's one cross-field rule, requestBytes <= objectBytes:
  /// nullptr when it holds, else what requestBytes breaks. Every reader
  /// of the section (a workload spec, `hcsim scale`'s flags) checks it
  /// and names its own key.
  const char* requestBytesProblem() const {
    return requestBytes > objectBytes ? "must be <= objectBytes" : nullptr;
  }
};

/// The "openloop" generator section.
template <class IO>
void fields(IO& io, OpenLoopConfig& c) {
  io("clients", c.clients, kCount);
  io("clientsPerNode", c.clientsPerNode, kCount);
  io("ratePerClientHz", c.ratePerClientHz, kPositive);
  io("horizonSec", c.horizonSec, kPositive);
  io("objects", c.objects, kCount);
  io("zipfTheta", c.zipfTheta, kNonNegative);
  io("objectBytes", c.objectBytes, kPositive);
  io("requestBytes", c.requestBytes, kPositive);
  io("readFraction", c.readFraction, kFraction);
  io("seed", c.seed);
  io("sampleIntervalSec", c.sampleIntervalSec, kNonNegative);  // 0 = horizon/20
  io("clientsPerRank", c.clientsPerRank, kCount);
  io("sharedStream", c.sharedStream);
  io("demandSigma", c.demandSigma, kNonNegative);
}

class OpenLoopSource : public WorkloadSource {
 public:
  explicit OpenLoopSource(const OpenLoopConfig& cfg) : cfg_(cfg) {}

  const std::string& name() const override { return name_; }
  WorkloadPlan load(const WorkloadContext& ctx) override;
  NextStatus next(std::size_t rank, WorkloadOp& out) override;

 private:
  struct RankState {
    ClientId client{};
    Seconds clock = 0.0;   ///< cumulative arrival time
    double rateHz = 0.0;   ///< this rank's arrival rate (demand multiplier applied)
    Rng rng;
  };

  std::string name_ = "openloop";
  OpenLoopConfig cfg_;
  std::vector<RankState> ranks_;
  std::unique_ptr<ZipfSampler> zipf_;
};

}  // namespace hcsim::workload
