#pragma once
// Bench-side tracing for the traced run of hcsim's benchmark.
//
// Spans are opened around calls into each src/ module from outside the
// library: spec parsing (config), environment construction and teardown
// (core), trial wrappers (sweep), the simulation run loop, the storage
// model's submit (fs, through a FileSystemModel decorator), the workload
// generator's next/onComplete (through a WorkloadSource decorator) and
// wrapped completion callbacks, and result rendering (sink). A layer's
// self time is its span time minus the part its child spans cover, so the
// layer self times plus the untraced residual add up to wall time.
// Spans are aggregated per layer in memory and written out when the
// benchmark ends. Everything here runs on the one simulation thread.

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "fs/file_system_model.hpp"
#include "workload/workload_source.hpp"

namespace perfbench {

/// Layers that own exclusive wall time in the traced run.
enum class Layer : std::size_t {
  Config,              ///< spec / trial-config parsing
  Core,                ///< makeEnvironment and environment teardown
  Sweep,               ///< trial wrapper and trial expansion
  SimRun,              ///< run-loop calls: dispatch, solve, model events, runner bookkeeping
  FsSubmit,            ///< FileSystemModel::submit / submitMeta (incl. transport posting)
  WorkloadNext,        ///< WorkloadSource::next
  WorkloadCompletion,  ///< completion callbacks and WorkloadSource::onComplete
  Sink,                ///< JSONL / CSV / table rendering
};
inline constexpr std::size_t kLayers = 8;

/// Metric name of a layer's self time ("fs.submit_s", ...).
const char* selfMetricName(Layer layer);

/// Per-layer self time, accumulated from properly nested spans.
class Tracer {
 public:
  double selfSeconds(Layer layer) const { return self_[static_cast<std::size_t>(layer)]; }
  std::uint64_t spans(Layer layer) const { return spans_[static_cast<std::size_t>(layer)]; }
  double totalSelfSeconds() const;

 private:
  friend class Span;  // the only caller, so begin/end always pair
  void begin(Layer layer);
  void end();

  using Clock = std::chrono::steady_clock;
  struct Open {
    Layer layer;
    Clock::time_point start;
    double childSeconds = 0.0;
  };
  std::vector<Open> stack_;
  std::array<double, kLayers> self_{};
  std::array<std::uint64_t, kLayers> spans_{};
};

/// RAII span; a null tracer makes it a no-op.
class Span {
 public:
  Span(Tracer* tracer, Layer layer) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(layer);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// Counters the traced run reads from the program's own accessors, summed
/// over every environment a pass builds (peakPending is a maximum).
struct LayerCounts {
  std::uint64_t envs = 0;
  std::uint64_t ringBytes = 0;
  std::uint64_t records = 0;
  std::uint64_t eventsDispatched = 0;
  std::uint64_t eventsScheduled = 0;
  std::uint64_t eventsAdjusted = 0;
  std::uint64_t eventsCancelled = 0;
  std::uint64_t peakPending = 0;
  double dispatchSec = 0.0;  ///< SelfProfiler, inclusive
  std::uint64_t rerates = 0;
  std::uint64_t solves = 0;
  double solveSec = 0.0;     ///< SelfProfiler, inclusive
  std::uint64_t fsSubmits = 0;
  std::uint64_t transportOps = 0;
  std::uint64_t doorbells = 0;
  std::uint64_t sqWaits = 0;
  std::uint64_t connSetups = 0;
  std::uint64_t nextCalls = 0;
  std::uint64_t chaosRetries = 0;
  std::uint64_t lateCompletions = 0;
  std::uint64_t failedOps = 0;
  std::uint64_t trials = 0;
  std::uint64_t sinkBytes = 0;
};

/// What a traced pass carries: the span tracer plus the counters.
struct Probe {
  Tracer tracer;
  LayerCounts counts;
};

/// Turn on the environment's self-profiler and route its model through a
/// TracedModel. Call right after makeEnvironment.
void instrument(hcsim::Environment& env, Probe& probe);

/// Add the environment's engine, network, probe and transport counters to
/// `counts`. Call when its run has finished, before teardown.
void harvest(const hcsim::Environment& env, LayerCounts& counts);

/// FileSystemModel decorator: times submit/submitMeta as the fs layer and
/// the completion callbacks it hands back as the workload-completion
/// layer; every other call forwards unchanged.
class TracedModel final : public hcsim::FileSystemModel {
 public:
  TracedModel(std::unique_ptr<hcsim::FileSystemModel> inner, Probe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  const std::string& name() const override { return inner_->name(); }
  void beginPhase(const hcsim::PhaseSpec& phase) override { inner_->beginPhase(phase); }
  void endPhase() override { inner_->endPhase(); }
  void submit(const hcsim::IoRequest& req, hcsim::IoCallback cb) override;
  void submitMeta(const hcsim::MetaRequest& req, hcsim::IoCallback cb) override;
  hcsim::Bytes totalCapacity() const override { return inner_->totalCapacity(); }
  std::size_t clientParallelism() const override { return inner_->clientParallelism(); }
  hcsim::transport::TransportProfile declaredTransportProfile() const override {
    return inner_->declaredTransportProfile();
  }
  void setTransport(hcsim::transport::TransportFabric* fabric) override {
    inner_->setTransport(fabric);
  }
  bool applyFault(const hcsim::FaultSpec& fault) override { return inner_->applyFault(fault); }
  std::size_t faultComponentCount(const std::string& component) const override {
    return inner_->faultComponentCount(component);
  }
  hcsim::Route rebuildRoute(const hcsim::FaultSpec& restored) override {
    return inner_->rebuildRoute(restored);
  }
  void exportMetrics(hcsim::telemetry::MetricsRegistry& reg) const override {
    inner_->exportMetrics(reg);
  }

 private:
  hcsim::IoCallback wrap(hcsim::IoCallback cb);

  std::unique_ptr<hcsim::FileSystemModel> inner_;
  Probe& probe_;
};

/// WorkloadSource decorator: times next() as the workload-next layer and
/// onComplete() as the workload-completion layer.
class TracedSource final : public hcsim::workload::WorkloadSource {
 public:
  TracedSource(hcsim::workload::WorkloadSource& inner, Probe& probe)
      : inner_(inner), probe_(probe) {}

  const std::string& name() const override { return inner_.name(); }
  hcsim::workload::WorkloadPlan load(const hcsim::workload::WorkloadContext& ctx) override {
    return inner_.load(ctx);
  }
  hcsim::workload::NextStatus next(std::size_t rank, hcsim::workload::WorkloadOp& out) override;
  void onComplete(std::size_t rank, const hcsim::workload::WorkloadOp& op,
                  const hcsim::IoResult& result) override;

 private:
  hcsim::workload::WorkloadSource& inner_;
  Probe& probe_;
};

}  // namespace perfbench
