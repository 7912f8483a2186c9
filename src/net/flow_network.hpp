#pragma once
// FlowNetwork — event-driven max-min fair bandwidth allocation.
//
// Transfers are "flows": a byte count moving along a Route of Links. At
// any instant every active flow has a rate given by progressive-filling
// max-min fairness subject to (a) each link's capacity and (b) an optional
// per-flow rate cap (used to model single-stream TCP limits, per-NFS-
// session serialization, and device ceilings). Whenever a flow starts or
// finishes, the allocation is recomputed and completion events are
// re-timed — the standard flow-level network simulation technique.
// Changes at one simulated instant share one recomputation (see the
// epoch re-rating protocol below).
//
// ## Signature groups
//
// Flows with the same route, per-member rate cap and per-member weight
// (doubles compared by bit pattern) are interchangeable to progressive
// filling: they always run at the same per-member rate. They live in one
// persistent *signature group*, created when its first flow activates
// and retired when its last flow leaves. A group keeps
//
//  - a cumulative per-member service counter V (bytes each member has
//    been served since the group was created), so crediting progress
//    costs one update per group, not per flow;
//  - its flows in a min-heap on their finish target (V at join + bytes);
//    a flow's remaining bytes are `target - V`;
//  - exactly ONE completion event, timed for the heap head.
//
// Progressive filling runs over the live groups in creation order, each
// weighted by `weight x total members`, with no sort and with scratch
// buffers owned by the network, so a solve costs O(groups + links they
// touch) and allocates nothing once warm. Completions that one solve
// times for the same instant fire in group creation order.
//
// ## Epoch re-rating protocol
//
// Every change (arrival, departure, capacity or health change, reroute)
// credits progress and then *requests* a solve: the allocation is marked
// stale and the solve is deferred to the end of the current instant
// (Simulator::defer), so any number of requests at one timestamp
// coalesce into one solve, run before the clock advances. Progress is
// credited at the old rates only over time that has already passed, so
// a stale allocation is never used to move bytes. Outside event dispatch
// a request solves at once. Readers of the allocation — flowRate() and
// linkStats() — settle a pending solve before they read.
//
// A group's completion event is scheduled when the group first gets a
// positive rate, and later rebalances re-time it in place with
// `Simulator::adjustKey` — at most one heap update per live group, zero
// allocations, zero tombstones. `scheduledEta` always equals the
// absolute time the live event will fire. adjustKey assigns the event a
// fresh FIFO sequence number, so same-timestamp dispatch order is
// identical to what cancel + reschedule produced. Rebalances that would
// move the completion by less than the hysteresis tolerance skip the
// heap update but accrue the skipped correction in `etaDrift`; once the
// accrued drift exceeds its budget the completion is re-anchored, so
// error cannot accumulate across many small rebalances. One event
// completes one flow: when it fires, the head leaves the heap and the
// event is scheduled again for the next head — at `now` if that flow's
// target is already reached — so every flow still costs exactly one
// dispatched completion.
//
// ## Flow classes (hcsim::scale)
//
// A flow launched with `members = N` is a *flow class*: N statistically
// identical member flows collapsed into one entry. `bytes`, `rateCap`
// and `weight` are all PER MEMBER; the class is one heap entry that adds
// N to its group's member count, so memory and rebalance cost are flat
// in the member count. The group's solved per-unit-weight share is the
// analytic within-group split — every member receives the same
// per-member rate a standalone flow with that signature would — and
// explicit flows join groups by the same rule, so a class of N members
// is byte-identical to N coexisting singleton flows of the same
// signature (see docs/SCALE.md for the exactness contract).
// FlowCompletion reports aggregate bytes (per-member bytes x members).

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "net/link.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"

namespace hcsim {

using FlowId = std::uint64_t;

/// Everything needed to launch a transfer.
struct FlowSpec {
  Bytes bytes = 0;
  Route route;  ///< may be empty (purely latency-bound transfer)
  /// Per-flow ceiling, e.g. a single TCP stream over NFS cannot exceed
  /// ~1-1.5 GB/s regardless of link speed. Infinity = uncapped.
  Bandwidth rateCap = std::numeric_limits<Bandwidth>::infinity();
  /// Fixed delay before the first byte moves (route latency, protocol
  /// round trips, request setup).
  Seconds startupLatency = 0.0;
  /// QoS weight (> 0): progressive filling raises rates in proportion
  /// to weight, so two flows sharing a link split it weight-wise.
  double weight = 1.0;
  /// Flow-class member count (>= 1): this spec stands for `members`
  /// statistically identical flows. bytes/rateCap/weight are per member;
  /// the class claims `weight * members` of contended links and its
  /// completion reports `bytes * members` aggregate payload.
  std::uint32_t members = 1;
  /// Telemetry span identity — only consulted when the network's
  /// Telemetry sink is attached and enabled. Empty name = "flow".
  std::string spanName;
  std::uint32_t spanPid = 0;
  std::uint32_t spanTid = 0;
};

struct FlowCompletion {
  FlowId id = 0;
  Bytes bytes = 0;          ///< aggregate: per-member bytes x members
  std::uint32_t members = 1;
  SimTime startTime = 0.0;  ///< when startFlow() was called
  SimTime endTime = 0.0;    ///< when the last byte arrived
};

class FlowNetwork {
 public:
  explicit FlowNetwork(Simulator& sim) : sim_(sim) {}
  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  /// Add a link; returns its id for use in routes.
  LinkId addLink(std::string name, Bandwidth capacity, Seconds latency = 0.0);

  /// Change a link's capacity at runtime (e.g. a device whose effective
  /// throughput depends on the current access pattern). In-flight flows
  /// are re-rated immediately.
  void setLinkCapacity(LinkId id, Bandwidth capacity);

  /// Fault injection: scale a link's *effective* capacity by a health
  /// factor in [0, 1] without touching the configured capacity, so model
  /// code that re-derives capacities per phase composes with chaos
  /// degradation. In-flight flows re-rate immediately; flows whose whole
  /// path loses capacity stall (rate 0) and resume when health returns.
  void setLinkHealth(LinkId id, double health);
  double linkHealth(LinkId id) const { return links_.at(id.value).health; }

  /// Fail-stop / recover a link: health 0 / 1.
  void failLink(LinkId id) { setLinkHealth(id, 0.0); }
  void restoreLink(LinkId id) { setLinkHealth(id, 1.0); }

  /// Substitute `to` for `from` in the routes of all in-flight flows and
  /// re-rate — failover semantics (e.g. NFS retrying in-flight ops
  /// against a surviving server after a node failure). A group moves as
  /// a whole; when its new signature is already live it merges into that
  /// group and every flow keeps its remaining bytes. Returns how many
  /// flows were rerouted.
  std::size_t replaceLinkInFlows(LinkId from, LinkId to);

  std::size_t linkCount() const { return links_.size(); }
  const Link& link(LinkId id) const { return links_.at(id.value); }

  /// Sum of link latencies along a route (helper for callers building
  /// startup latencies).
  Seconds routeLatency(const Route& route) const;

  /// Launch a flow. `onComplete` fires exactly once, at the simulated
  /// time the final byte arrives.
  FlowId startFlow(const FlowSpec& spec, std::function<void(const FlowCompletion&)> onComplete);

  /// Number of flow entries currently transferring (a class of any
  /// member count is one entry — this is the memory footprint).
  std::size_t activeFlows() const { return activeFlows_; }

  /// Total member flows in flight (sum of `members` over active entries).
  std::uint64_t activeMembers() const;

  /// Current aggregate max-min rate of an active flow — per-member rate
  /// x members (0 if unknown/finished). Equals the per-member rate for
  /// singleton flows. Settles a pending solve first.
  Bandwidth flowRate(FlowId id);

  /// Completion re-timings performed since construction: fresh schedules
  /// plus in-place adjust-key updates of group completion events. A
  /// solve adds at most G, the number of live signature groups;
  /// hysteresis-skipped groups add nothing. A solve still pending in the
  /// current instant is not counted yet.
  std::uint64_t rerates() const { return rerates_; }

  /// Utilization snapshot of every link. Settles a pending solve first.
  std::vector<LinkStats> linkStats();

  /// Attach (or detach with nullptr) a telemetry sink. Spans are only
  /// opened while the sink is attached *and* enabled; flows launched
  /// with telemetry off carry a kNoSpan sentinel and cost nothing.
  void setTelemetry(telemetry::Telemetry* tel) { tel_ = tel; }
  telemetry::Telemetry* telemetry() const { return tel_; }

 private:
  /// `bottleneck` sentinels: frozen by the per-flow rate cap / by
  /// nothing (degenerate freeze), rather than by a link index.
  static constexpr std::uint32_t kFrozenByCap = 0xfffffffeu;
  static constexpr std::uint32_t kFrozenByNone = 0xffffffffu;
  static constexpr std::uint32_t kNoGroup = 0xffffffffu;

  /// One flow entry: carried through its startup latency, then a member
  /// of its signature group's finish-target heap.
  struct Flow {
    FlowId id = 0;
    double target = 0.0;        // group V at which its last byte lands
    Bytes bytes = 0;            // per member
    std::uint32_t members = 1;  // member flows this entry aggregates
    std::uint32_t spanIdx = telemetry::kNoSpan;  // open telemetry span, if any
    SimTime startTime = 0.0;
    std::function<void(const FlowCompletion&)> onComplete;
  };

  struct Group {
    std::uint64_t hash = 0;  // of (route, rateCap bits, weight bits)
    Route route;
    Bandwidth rateCap = 0.0;    // per member
    double weight = 1.0;        // per member
    std::uint64_t members = 0;  // member flows over all heap entries
    double served = 0.0;        // V: cumulative per-member service, bytes
    Bandwidth rate = 0.0;       // per member
    // What froze this group's rate in the last progressive-filling pass:
    // a link index, kFrozenByCap, or kFrozenByNone. Written
    // unconditionally (one store); read only when telemetry is on.
    std::uint32_t bottleneck = kFrozenByNone;
    std::vector<Flow> heap;     // min-heap on (target, id)
    EventId completionEvent{};  // fires for heap.front()
    // Set whenever completionEvent is (re)timed; read only while it is
    // valid: its absolute fire time, and the accrued |skipped completion
    // moves| since the last re-anchor.
    SimTime scheduledEta = -1.0;
    double etaDrift = 0.0;
  };

  /// Credit every live group with service at its current rate for the
  /// time since the last credit.
  void advanceProgress();

  /// Request a solve at the end of the current instant (at once outside
  /// event dispatch); requests made while one is pending are absorbed.
  void rebalance();

  /// Run the pending solve, if any: recompute the max-min fair
  /// allocation and (re)schedule completions.
  void settle();

  /// Weighted progressive filling over the live groups; fills each
  /// group's per-member `rate` and `bottleneck`.
  void computeMaxMinRates();

  void activate(Flow flow, const Route& route, Bandwidth rateCap, double weight);

  /// A group's completion event: retire its head flow.
  void completeHead(std::uint32_t slot);

  /// Live group with this signature (other than `skip`), or kNoGroup.
  std::uint32_t findGroup(const Route& route, Bandwidth rateCap, double weight,
                          std::uint64_t hash, std::uint32_t skip) const;
  std::uint32_t createGroup(const Route& route, Bandwidth rateCap, double weight,
                            std::uint64_t hash);
  void retireGroup(std::uint32_t slot);

  /// Interned stage id for the group's bottleneck sentinel/link (only
  /// called when telemetry is enabled).
  std::uint32_t bottleneckStage(telemetry::Telemetry& tel, const Group& g) const;

  Simulator& sim_;
  std::vector<Link> links_;
  FlowId nextFlowId_ = 1;
  std::uint64_t rerates_ = 0;
  std::size_t activeFlows_ = 0;
  SimTime lastAdvance_ = 0.0;  // when advanceProgress last credited the groups
  bool solvePending_ = false;  // a deferred settle() is queued on sim_
  telemetry::Telemetry* tel_ = nullptr;
  std::vector<Group> groups_;              // slots; retired ones keep route/heap storage
  std::vector<std::uint32_t> freeGroups_;  // retired slots, reused first
  std::vector<std::uint32_t> live_;        // live slots in creation order
  // Progressive-filling scratch, reused by every solve: per-link headroom,
  // unfrozen group weight and a membership flag (indexed by link), the
  // links the live groups touch, and the still-unfrozen group slots.
  std::vector<double> headroom_;
  std::vector<double> unfrozenWeight_;
  std::vector<char> inSolve_;
  std::vector<std::uint32_t> solveLinks_;
  std::vector<std::uint32_t> unfrozen_;
};

}  // namespace hcsim
