#include "probe/flight_recorder.hpp"

#include <ostream>

#include "util/json.hpp"

namespace hcsim::probe {

const char* toString(RecordKind kind) {
  switch (kind) {
    case RecordKind::EngineHeartbeat: return "engine.heartbeat";
    case RecordKind::NetRebalance: return "net.rebalance";
    case RecordKind::LinkHealth: return "net.link_health";
    case RecordKind::RetryTimeout: return "fs.retry_timeout";
    case RecordKind::OpFailed: return "fs.op_failed";
    case RecordKind::LateCompletion: return "fs.late_completion";
    case RecordKind::FaultInject: return "chaos.fault_inject";
    case RecordKind::FaultRestore: return "chaos.fault_restore";
    case RecordKind::GoodputSample: return "probe.goodput_sample";
    case RecordKind::PhaseSwitch: return "workload.phase_switch";
    case RecordKind::Barrier: return "workload.barrier";
    case RecordKind::MonitorBreach: return "probe.monitor_breach";
    case RecordKind::TransportStall: return "transport.sq_stall";
  }
  return "unknown";
}

namespace {

std::size_t roundUpPow2(std::size_t n) {
  std::size_t p = 16;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : mask_(roundUpPow2(capacity) - 1),
      ring_(std::make_unique_for_overwrite<Record[]>(mask_ + 1)) {}

void FlightRecorder::clear() {
  head_ = 0;
  size_ = 0;
  total_ = 0;
}

std::vector<Record> FlightRecorder::snapshot() const {
  std::vector<Record> out;
  out.reserve(size_);
  // Oldest record sits at head_ once the ring has wrapped, at 0 before.
  const std::size_t start = size_ == capacity() ? head_ : 0;
  for (std::size_t i = 0; i < size_; ++i) out.push_back(ring_[(start + i) & mask_]);
  return out;
}

void FlightRecorder::dumpJsonl(std::ostream& out) const {
  for (const Record& r : snapshot()) {
    out << "{\"t\":" << jsonNumber(r.time) << ",\"kind\":\"" << toString(r.kind)
        << "\",\"subject\":" << jsonNumber(static_cast<double>(r.subject))
        << ",\"value\":" << jsonNumber(r.value) << "}\n";
  }
}

void FlightRecorder::dumpChromeTrace(std::ostream& out) const {
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Record& r : snapshot()) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << toString(r.kind) << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":"
        << static_cast<unsigned>(r.kind) << ",\"ts\":" << jsonNumber(r.time * 1e6)
        << ",\"args\":{\"subject\":" << jsonNumber(static_cast<double>(r.subject))
        << ",\"value\":" << jsonNumber(r.value) << "}}";
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace hcsim::probe
