#pragma once
// DlioConfig — reimplementation of the DLIO-benchmark semantics the paper
// uses (§IV-C2, §VI): a data-parallel training loop whose input pipeline
// (I/O worker threads + prefetch queue) runs concurrently with per-batch
// GPU compute. The two workloads are ResNet-50 (PyTorch flavour; 150 KB
// JPEG samples, weak scaling, 1 epoch, 8 I/O threads) and Cosmoflow
// (TensorFlow flavour; TFRecord samples read in constant 256 KB
// transfers, strong scaling, 4 epochs, 4 I/O threads, 8 compute threads).

#include <cstddef>
#include <cstdint>
#include <string>

#include "config/range.hpp"
#include "util/units.hpp"

namespace hcsim {

enum class ScalingMode {
  Weak,    ///< per-rank dataset constant; total grows with ranks
  Strong,  ///< total dataset constant; split across ranks
};

const char* toString(ScalingMode m);

struct DlioWorkload {
  std::string name;
  /// Samples at the *baseline* scale: Weak -> per rank; Strong -> total.
  std::size_t samples = 1024;
  Bytes sampleSize = 150 * units::KB;
  /// I/O request granularity; Cosmoflow keeps 256 KB "throughout the
  /// training process", ResNet reads each JPEG in one request.
  Bytes transferSize = 150 * units::KB;
  std::size_t batchSize = 1;  ///< paper: "one batch-sized"
  std::size_t epochs = 1;
  std::size_t ioThreads = 8;       ///< input-pipeline threads per rank
  std::size_t computeThreads = 8;  ///< compute threads per rank (recorded)
  std::size_t prefetchDepth = 4;   ///< batches buffered ahead of the trainer
  Seconds computeTimePerBatch = units::msec(40);
  ScalingMode scaling = ScalingMode::Weak;
  /// Checkpointing (DLIO's checkpoint mode): every `checkpointEvery`
  /// trained batches, rank 0 of each node writes `checkpointBytes` of
  /// model state synchronously (training stalls). 0 disables.
  std::size_t checkpointEvery = 0;
  Bytes checkpointBytes = 0;

  std::uint64_t transfersPerSample() const {
    return (sampleSize + transferSize - 1) / transferSize;
  }

  /// ResNet-50 as the paper runs it: 1024 JPEG samples of 150 KB, batch
  /// size one, one epoch, weak scaling, PyTorch loader with 8 I/O threads.
  static DlioWorkload resnet50();

  /// Cosmoflow: 1024 TFRecord samples, constant 256 KB transfers, four
  /// epochs, strong scaling, 4 I/O threads + 8 compute threads.
  static DlioWorkload cosmoflow();

  /// UNet3D (the third standard DLIO workload): few very large samples
  /// (~140 MB .npz volumes), periodic multi-GB checkpoints — the
  /// checkpoint-dominated contrast to the read-dominated pair above.
  static DlioWorkload unet3d();
};

template <class IO>
void fields(IO& io, DlioWorkload& w) {
  io("name", w.name);
  io("samples", w.samples, kCount);
  io("sampleSize", w.sampleSize, kPositive);
  io("transferSize", w.transferSize, kPositive);
  io("batchSize", w.batchSize, kCount);
  io("epochs", w.epochs, kCount);
  io("ioThreads", w.ioThreads, kCount);
  io("computeThreads", w.computeThreads, kCount);
  io("prefetchDepth", w.prefetchDepth, kCount);
  io("computeTimePerBatch", w.computeTimePerBatch, kNonNegative);
  io("scaling", w.scaling);
  io("checkpointEvery", w.checkpointEvery, kWhole);
  io("checkpointBytes", w.checkpointBytes);  // 0 with checkpointEvery 0
}

struct DlioConfig {
  DlioWorkload workload;
  std::size_t nodes = 1;
  /// Ranks per node; Lassen runs one rank per GPU (4).
  std::size_t procsPerNode = 4;
  std::uint64_t seed = 0xd110ull;
  /// Relative jitter on per-batch compute time.
  double computeJitterFrac = 0.05;

  std::size_t totalRanks() const { return nodes * procsPerNode; }

  /// Samples one rank processes per epoch under the workload's scaling.
  std::size_t samplesPerRank() const;
  /// Total dataset size on storage (all ranks, one copy).
  Bytes datasetBytes() const;

  void validate() const;
};

template <class IO>
void fields(IO& io, DlioConfig& c) {
  io("workload", c.workload);
  io("nodes", c.nodes, kCount);
  io("procsPerNode", c.procsPerNode, kCount);
  io("seed", c.seed);
  io("computeJitterFrac", c.computeJitterFrac, kNonNegative);
}

}  // namespace hcsim
