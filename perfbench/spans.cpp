#include "spans.hpp"

#include <algorithm>

#include "probe/flight_recorder.hpp"
#include "probe/self_profiler.hpp"

namespace perfbench {

const char* selfMetricName(Layer layer) {
  switch (layer) {
    case Layer::Config: return "config.parse_s";
    case Layer::Core: return "core.env_build_s";
    case Layer::Sweep: return "sweep.trial_s";
    case Layer::SimRun: return "sim.run_s";
    case Layer::FsSubmit: return "fs.submit_s";
    case Layer::WorkloadNext: return "workload.next_s";
    case Layer::WorkloadCompletion: return "workload.completion_s";
    case Layer::Sink: return "sink.render_s";
  }
  return "unknown";
}

void Tracer::begin(Layer layer) { stack_.push_back({layer, Clock::now(), 0.0}); }

void Tracer::end() {
  const Open open = stack_.back();
  stack_.pop_back();
  const double span = std::chrono::duration<double>(Clock::now() - open.start).count();
  const auto i = static_cast<std::size_t>(open.layer);
  self_[i] += span - open.childSeconds;
  ++spans_[i];
  if (!stack_.empty()) stack_.back().childSeconds += span;
}

double Tracer::totalSelfSeconds() const {
  double sum = 0.0;
  for (double s : self_) sum += s;
  return sum;
}

void instrument(hcsim::Environment& env, Probe& probe) {
  env.bench->profiler().setEnabled(true);
  env.fs = std::make_unique<TracedModel>(std::move(env.fs), probe);
}

void harvest(const hcsim::Environment& env, LayerCounts& c) {
  using Bucket = hcsim::probe::SelfProfiler::Bucket;
  hcsim::TestBench& bench = *env.bench;
  const hcsim::Simulator& sim = bench.sim();
  ++c.envs;
  c.ringBytes += bench.recorder().capacity() * sizeof(hcsim::probe::Record);
  c.records += bench.recorder().totalRecorded();
  c.eventsDispatched += sim.eventsDispatched();
  c.eventsScheduled += sim.eventsScheduled();
  c.eventsAdjusted += sim.eventsAdjusted();
  c.eventsCancelled += sim.eventsCancelled();
  c.peakPending = std::max<std::uint64_t>(c.peakPending, sim.peakPendingEvents());
  c.dispatchSec += bench.profiler().seconds(Bucket::Dispatch);
  c.rerates += bench.topo().network().rerates();
  c.solves += bench.profiler().count(Bucket::Solve);
  c.solveSec += bench.profiler().seconds(Bucket::Solve);
  if (env.transport != nullptr) {
    c.transportOps += env.transport->opsPosted();
    c.doorbells += env.transport->doorbells();
    c.sqWaits += env.transport->sqWaits();
    c.connSetups += env.transport->connectionSetups();
  }
}

hcsim::IoCallback TracedModel::wrap(hcsim::IoCallback cb) {
  return [this, cb = std::move(cb)](const hcsim::IoResult& r) {
    Span span(&probe_.tracer, Layer::WorkloadCompletion);
    cb(r);
  };
}

void TracedModel::submit(const hcsim::IoRequest& req, hcsim::IoCallback cb) {
  ++probe_.counts.fsSubmits;
  Span span(&probe_.tracer, Layer::FsSubmit);
  inner_->submit(req, wrap(std::move(cb)));
}

void TracedModel::submitMeta(const hcsim::MetaRequest& req, hcsim::IoCallback cb) {
  ++probe_.counts.fsSubmits;
  Span span(&probe_.tracer, Layer::FsSubmit);
  inner_->submitMeta(req, wrap(std::move(cb)));
}

hcsim::workload::NextStatus TracedSource::next(std::size_t rank,
                                               hcsim::workload::WorkloadOp& out) {
  ++probe_.counts.nextCalls;
  Span span(&probe_.tracer, Layer::WorkloadNext);
  return inner_.next(rank, out);
}

void TracedSource::onComplete(std::size_t rank, const hcsim::workload::WorkloadOp& op,
                              const hcsim::IoResult& result) {
  Span span(&probe_.tracer, Layer::WorkloadCompletion);
  inner_.onComplete(rank, op, result);
}

}  // namespace perfbench
