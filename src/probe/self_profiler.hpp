#pragma once
// SelfProfiler — sampling-free, scoped wall-clock profiling of the
// simulator itself.
//
// Each instrumented region opens a Scope; the steady_clock delta is
// aggregated per subsystem bucket. There is no sampling thread and no
// signal handler, so the profiler works identically under sanitizers
// and in CI. Disabled (the default) every hook is a branch on a bool —
// no clock reads — preserving the bench_engine perf floor.
//
// Caveats (see docs/PROBE.md): timings are *inclusive* — the dispatch
// bucket does not include model callbacks (they are scoped separately),
// and a solve runs after the instant's callbacks, except when a reader
// inside a callback settles a pending one, which is then charged to
// both `solve` and `callback`; buckets do not sum to wall time.
// Values are wall-clock and thus NOT deterministic: sweep trials that
// collect `self.*` bypass the trial cache, and no identity gate ever
// compares them.

#include <array>
#include <chrono>
#include <cstdint>

namespace hcsim::telemetry {
class MetricsRegistry;
}

namespace hcsim::probe {

class SelfProfiler {
 public:
  enum class Bucket : std::size_t {
    Dispatch = 0,   ///< event-queue maintenance in Simulator::dispatchRoot
    Callback = 1,   ///< model/event callbacks (`fn()` bodies)
    Solve = 2,      ///< FlowNetwork max-min rate computation
    Telemetry = 3,  ///< span charging / metric export
    Sink = 4,       ///< JSONL/CSV/table rendering
  };
  static constexpr std::size_t kBuckets = 5;

  static const char* name(Bucket b);

  void setEnabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  void add(Bucket b, double seconds) {
    auto& s = slots_[static_cast<std::size_t>(b)];
    s.seconds += seconds;
    ++s.count;
  }

  double seconds(Bucket b) const { return slots_[static_cast<std::size_t>(b)].seconds; }
  std::uint64_t count(Bucket b) const { return slots_[static_cast<std::size_t>(b)].count; }
  void reset();

  /// `self.<bucket>_s` gauges plus `self.<bucket>_scopes` counters.
  void exportTo(telemetry::MetricsRegistry& reg) const;

  /// RAII timing scope. A null or disabled profiler reduces the whole
  /// scope to two branches — no clock reads.
  class Scope {
   public:
    Scope(SelfProfiler* p, Bucket b) : p_(p && p->enabled() ? p : nullptr), b_(b) {
      if (p_) start_ = std::chrono::steady_clock::now();
    }
    ~Scope() {
      if (p_) {
        const auto end = std::chrono::steady_clock::now();
        p_->add(b_, std::chrono::duration<double>(end - start_).count());
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SelfProfiler* p_;
    Bucket b_;
    std::chrono::steady_clock::time_point start_;
  };

 private:
  struct Slot {
    double seconds = 0.0;
    std::uint64_t count = 0;
  };
  bool enabled_ = false;
  std::array<Slot, kBuckets> slots_{};
};

}  // namespace hcsim::probe
