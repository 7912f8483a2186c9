#include "dlio/dlio_config.hpp"

#include <algorithm>

#include "config/fields.hpp"

namespace hcsim {

const char* toString(ScalingMode m) {
  switch (m) {
    case ScalingMode::Weak: return "weak";
    case ScalingMode::Strong: return "strong";
  }
  return "?";
}

DlioWorkload DlioWorkload::resnet50() {
  DlioWorkload w;
  w.name = "resnet50";
  w.samples = 256;  // per rank; 1 node x 4 ranks = the paper's 1024 samples
  w.sampleSize = 150 * units::KB;
  w.transferSize = 150 * units::KB;  // one read per JPEG
  w.batchSize = 1;
  w.epochs = 1;
  w.ioThreads = 8;
  w.computeThreads = 8;
  w.prefetchDepth = 8;
  w.computeTimePerBatch = units::msec(40);  // batch-1 step on a V100
  w.scaling = ScalingMode::Weak;
  return w;
}

DlioWorkload DlioWorkload::cosmoflow() {
  DlioWorkload w;
  w.name = "cosmoflow";
  w.samples = 1024;  // total; strong scaling splits it across ranks
  w.sampleSize = 3 * units::MB;
  w.transferSize = 256 * units::KB;  // "remains constant at 256 KB"
  w.batchSize = 1;
  w.epochs = 4;
  w.ioThreads = 4;      // "four threads for the I/O data pipeline"
  w.computeThreads = 8;  // "eight threads per process for computation"
  w.prefetchDepth = 4;
  w.computeTimePerBatch = units::msec(120);
  w.scaling = ScalingMode::Strong;
  return w;
}

DlioWorkload DlioWorkload::unet3d() {
  DlioWorkload w;
  w.name = "unet3d";
  w.samples = 42;  // per rank (weak): KiTS19-scale volumes
  w.sampleSize = 140 * units::MB;
  w.transferSize = 4 * units::MB;  // npz chunked reads
  w.batchSize = 1;
  w.epochs = 2;
  w.ioThreads = 4;
  w.computeThreads = 8;
  w.prefetchDepth = 4;
  w.computeTimePerBatch = units::msec(350);  // 3D conv per volume
  w.scaling = ScalingMode::Weak;
  w.checkpointEvery = 21;  // twice per epoch
  w.checkpointBytes = units::GB;
  return w;
}

std::size_t DlioConfig::samplesPerRank() const {
  if (workload.scaling == ScalingMode::Weak) return workload.samples;
  return std::max<std::size_t>(1, workload.samples / totalRanks());
}

Bytes DlioConfig::datasetBytes() const {
  const std::size_t total = workload.scaling == ScalingMode::Weak
                                ? workload.samples * totalRanks()
                                : workload.samples;
  return static_cast<Bytes>(total) * workload.sampleSize;
}

void DlioConfig::validate() const { requireFields(*this, "DlioConfig"); }

}  // namespace hcsim
