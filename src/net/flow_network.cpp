#include "net/flow_network.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "probe/flight_recorder.hpp"
#include "probe/self_profiler.hpp"

namespace hcsim {

namespace {
// Relative rate change below which we do not bother re-timing the
// completion event (hysteresis to avoid event churn).
constexpr double kRateHysteresis = 1e-9;
// Budget for completion-time corrections skipped under hysteresis,
// relative to max(1, eta) like the hysteresis itself. Once the accrued
// skips exceed this the completion is re-anchored, bounding cumulative
// drift across arbitrarily many small rebalances to ~100 skips' worth.
constexpr double kEtaDriftBudget = 100 * kRateHysteresis;

bool sameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// FNV-1a over the link ids and the cap/weight bit patterns. Only a
/// filter: lookups confirm a hash match against the stored signature.
std::uint64_t signatureHash(const Route& route, Bandwidth rateCap, double weight) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  for (LinkId l : route) mix(l.value);
  mix(std::bit_cast<std::uint64_t>(rateCap));
  mix(std::bit_cast<std::uint64_t>(weight));
  return h;
}

/// Heap order for a group's flows. The std heap algorithms keep the
/// comparator's greatest element in front, so "finishes later" puts the
/// earliest target (lowest id on ties) at the head.
constexpr auto finishesLater = [](const auto& a, const auto& b) {
  if (a.target != b.target) return a.target > b.target;
  return a.id > b.id;
};
}  // namespace

LinkId FlowNetwork::addLink(std::string name, Bandwidth capacity, Seconds latency) {
  Link l;
  l.name = std::move(name);
  l.capacity = capacity;
  l.latency = latency;
  links_.push_back(std::move(l));
  return LinkId{static_cast<std::uint32_t>(links_.size() - 1)};
}

void FlowNetwork::setLinkCapacity(LinkId id, Bandwidth capacity) {
  Link& l = links_.at(id.value);
  if (l.capacity == capacity) return;
  advanceProgress();  // credit progress at the old rates first
  l.capacity = capacity;
  rebalance();
}

void FlowNetwork::setLinkHealth(LinkId id, double health) {
  Link& l = links_.at(id.value);
  const double clamped = std::min(1.0, std::max(0.0, health));
  if (l.health == clamped) return;
  advanceProgress();  // credit progress at the old rates first
  l.health = clamped;
  if (probe::FlightRecorder* rec = sim_.recorder()) {
    rec->record(sim_.now(), probe::RecordKind::LinkHealth, id.value, clamped);
  }
  rebalance();
}

std::size_t FlowNetwork::replaceLinkInFlows(LinkId from, LinkId to) {
  advanceProgress();
  // A delayed flow joins no solve until it activates, so moving one
  // alone changes no rate.
  std::size_t delayed = 0;
  for (Delayed& d : delayed_) {
    if (!d.waiting || std::find(d.route.begin(), d.route.end(), from) == d.route.end()) continue;
    std::replace(d.route.begin(), d.route.end(), from, to);
    ++delayed;
  }
  std::size_t rerouted = 0;
  for (std::size_t i = 0; i < live_.size();) {
    const std::uint32_t slot = live_[i];
    Group& g = groups_[slot];
    if (std::find(g.route.begin(), g.route.end(), from) == g.route.end()) {
      ++i;
      continue;
    }
    // Every member shares the route, so the whole group moves.
    std::replace(g.route.begin(), g.route.end(), from, to);
    g.hash = signatureHash(g.route, g.rateCap, g.weight);
    rerouted += g.heap.size();
    const std::uint32_t into = findGroup(g.route, g.rateCap, g.weight, g.hash, slot);
    if (into == kNoGroup) {
      ++i;
      continue;
    }
    // The new signature is already live: merge, re-basing each flow's
    // target on the surviving group's V so it keeps its remaining bytes.
    Group& dst = groups_[into];
    for (Flow& f : g.heap) {
      f.target = dst.served + (f.target - g.served);
      dst.heap.push_back(std::move(f));
      std::push_heap(dst.heap.begin(), dst.heap.end(), finishesLater);
    }
    dst.members += g.members;
    retireGroup(slot);  // erases live_[i]
  }
  if (rerouted > 0) rebalance();
  return rerouted + delayed;
}

Seconds FlowNetwork::routeLatency(const Route& route) const {
  Seconds total = 0.0;
  for (LinkId id : route) total += links_.at(id.value).latency;
  return total;
}

FlowId FlowNetwork::startFlow(const FlowSpec& spec,
                              std::function<void(const FlowCompletion&)> onComplete) {
  if (!(spec.weight > 0.0)) {
    throw std::invalid_argument("FlowNetwork: flow weight must be > 0");
  }
  if (spec.members == 0) {
    throw std::invalid_argument("FlowNetwork: flow class must have >= 1 member");
  }
  const FlowId id = nextFlowId_++;
  Flow flow;
  flow.id = id;
  flow.bytes = spec.bytes;
  flow.members = spec.members;
  flow.startTime = sim_.now();
  flow.onComplete = std::move(onComplete);

  if (tel_ && tel_->enabled()) {
    flow.spanIdx = tel_->beginSpan(spec.spanName.empty() ? "flow" : spec.spanName, spec.spanPid,
                                   spec.spanTid, flow.startTime,
                                   static_cast<double>(spec.bytes) * spec.members);
    if (spec.startupLatency > 0.0) {
      tel_->accrue(flow.spanIdx, tel_->stageId("startup"), spec.startupLatency, 0.0);
    }
  }

  if (spec.startupLatency > 0.0) {
    std::uint32_t slot;
    if (!freeDelayed_.empty()) {
      slot = freeDelayed_.back();
      freeDelayed_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(delayed_.size());
      delayed_.emplace_back();
    }
    Delayed& d = delayed_[slot];
    d.flow = std::move(flow);
    d.route.assign(spec.route.begin(), spec.route.end());  // reuses the slot's storage
    d.rateCap = spec.rateCap;
    d.weight = spec.weight;
    d.waiting = true;
    sim_.schedule(spec.startupLatency, [this, slot] { activateDelayed(slot); });
  } else {
    activate(std::move(flow), spec.route, spec.rateCap, spec.weight);
  }
  return id;
}

void FlowNetwork::activate(Flow flow, const Route& route, Bandwidth rateCap, double weight) {
  if (flow.bytes == 0) {
    // Zero-byte flow: completes as soon as its startup latency elapsed.
    if (tel_ && flow.spanIdx != telemetry::kNoSpan) tel_->endSpan(flow.spanIdx, sim_.now());
    if (flow.onComplete) {
      flow.onComplete(FlowCompletion{flow.id, 0, flow.members, flow.startTime, sim_.now()});
    }
    return;
  }
  advanceProgress();
  const std::uint64_t hash = signatureHash(route, rateCap, weight);
  std::uint32_t slot = findGroup(route, rateCap, weight, hash, kNoGroup);
  if (slot == kNoGroup) slot = createGroup(route, rateCap, weight, hash);
  Group& g = groups_[slot];
  flow.target = g.served + static_cast<double>(flow.bytes);
  g.members += flow.members;
  g.heap.push_back(std::move(flow));
  std::push_heap(g.heap.begin(), g.heap.end(), finishesLater);
  ++activeFlows_;
  rebalance();
}

std::uint32_t FlowNetwork::findGroup(const Route& route, Bandwidth rateCap, double weight,
                                     std::uint64_t hash, std::uint32_t skip) const {
  // A linear pass over the stored hashes: every lookup is followed by a
  // solve over all live groups anyway, and nothing is copied or allocated.
  for (std::uint32_t slot : live_) {
    const Group& g = groups_[slot];
    if (g.hash == hash && slot != skip && g.route == route && sameBits(g.rateCap, rateCap) &&
        sameBits(g.weight, weight)) {
      return slot;
    }
  }
  return kNoGroup;
}

std::uint32_t FlowNetwork::createGroup(const Route& route, Bandwidth rateCap, double weight,
                                       std::uint64_t hash) {
  std::uint32_t slot;
  if (!freeGroups_.empty()) {
    slot = freeGroups_.back();
    freeGroups_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(groups_.size());
    groups_.emplace_back();
  }
  Group& g = groups_[slot];
  g.hash = hash;
  g.route.assign(route.begin(), route.end());  // reuses a retired slot's storage
  g.rateCap = rateCap;
  g.weight = weight;
  g.members = 0;
  g.served = 0.0;
  live_.push_back(slot);
  return slot;
}

void FlowNetwork::retireGroup(std::uint32_t slot) {
  Group& g = groups_[slot];
  if (g.completionEvent.valid()) sim_.cancel(g.completionEvent);
  g.completionEvent = EventId{};
  g.heap.clear();  // keeps its capacity for the slot's next group
  live_.erase(std::find(live_.begin(), live_.end(), slot));
  freeGroups_.push_back(slot);
}

std::uint32_t FlowNetwork::bottleneckStage(telemetry::Telemetry& tel, const Group& g) const {
  if (g.bottleneck == kFrozenByCap) return tel.stageId("stream-cap");
  if (g.bottleneck == kFrozenByNone || g.bottleneck >= links_.size()) {
    return tel.stageId("unconstrained");
  }
  return tel.stageForLink(g.bottleneck, links_[g.bottleneck].name);
}

void FlowNetwork::advanceProgress() {
  const SimTime now = sim_.now();
  const SimTime dt = now - lastAdvance_;
  lastAdvance_ = now;
  if (!(dt > 0.0)) return;
  // One enabled-check per pass; `tel` stays null on the common path so
  // the loop body carries a single dead branch when telemetry is off.
  telemetry::Telemetry* tel = (tel_ && tel_->enabled()) ? tel_ : nullptr;
  for (std::uint32_t slot : live_) {
    Group& g = groups_[slot];
    if (g.rate <= 0.0) continue;
    const double step = g.rate * dt;  // per member
    // Links carry the aggregate. A member already past its target keeps
    // being credited until its completion fires; completeHead settles
    // that overshoot with a signed residue.
    const double carried = step * static_cast<double>(g.members);
    for (LinkId lid : g.route) links_[lid.value].bytesCarried += carried;
    if (tel) {
      const std::uint32_t stage = bottleneckStage(*tel, g);
      for (const Flow& f : g.heap) {
        if (f.spanIdx == telemetry::kNoSpan) continue;
        const double moved = std::clamp(f.target - g.served, 0.0, step);
        tel->accrue(f.spanIdx, stage, dt, moved * static_cast<double>(f.members));
      }
    }
    g.served += step;
  }
}

void FlowNetwork::computeMaxMinRates() {
  // Hierarchical weighted progressive filling: the members of a group
  // are interchangeable, so the group fills as ONE entry whose link
  // weight is `weight x members`, and every member then runs at the
  // group's per-member rate. This is what makes a flow class of N
  // members byte-identical to N coexisting singleton flows: both present
  // the same group to the solver.
  const auto fillWeight = [](const Group& g) {
    return g.weight * static_cast<double>(g.members);
  };
  if (inSolve_.size() < links_.size()) {
    headroom_.resize(links_.size());
    unfrozenWeight_.resize(links_.size());
    inSolve_.resize(links_.size(), 0);
  }
  solveLinks_.clear();
  unfrozen_.clear();
  for (std::uint32_t slot : live_) {
    Group& g = groups_[slot];
    g.rate = 0.0;
    g.bottleneck = kFrozenByNone;
    unfrozen_.push_back(slot);
    for (LinkId lid : g.route) {
      const std::uint32_t l = lid.value;
      if (!inSolve_[l]) {
        inSolve_[l] = 1;
        solveLinks_.push_back(l);
        headroom_[l] = links_[l].capacity * links_[l].health;
        unfrozenWeight_[l] = 0.0;
      }
      unfrozenWeight_[l] += fillWeight(g);
    }
  }
  for (std::uint32_t l : solveLinks_) inSolve_[l] = 0;

  // Each round freezes at least one group, so rounds are bounded; guard
  // against regressions that would otherwise spin silently.
  std::size_t rounds = 0;
  const std::size_t maxRounds = unfrozen_.size() + solveLinks_.size() + 2;

  while (!unfrozen_.empty()) {
    if (++rounds > maxRounds) {
      throw std::logic_error("FlowNetwork: progressive filling failed to converge");
    }
    // Max per-unit-weight increment permitted by links...
    double delta = std::numeric_limits<double>::infinity();
    for (std::uint32_t l : solveLinks_) {
      if (unfrozenWeight_[l] > 1e-12) delta = std::min(delta, headroom_[l] / unfrozenWeight_[l]);
    }
    // ... and by per-member caps (each member gains weight*delta per step).
    for (std::uint32_t slot : unfrozen_) {
      const Group& g = groups_[slot];
      delta = std::min(delta, (g.rateCap - g.rate) / g.weight);
    }
    if (!std::isfinite(delta)) {
      // No route constraints at all: every unfrozen group is capped only
      // by its rateCap, which must be infinite here. Treat as unbounded —
      // physically this means "completes at startup latency"; give them a
      // huge but finite rate so completion times stay representable.
      delta = 1e18;
    }
    if (delta < 0.0) delta = 0.0;

    for (std::uint32_t slot : unfrozen_) {
      Group& g = groups_[slot];
      g.rate += delta * g.weight;                    // per member
      const double claimed = delta * fillWeight(g);  // whole group
      for (LinkId lid : g.route) headroom_[lid.value] -= claimed;
    }

    // Freeze: capped groups first, then groups crossing a saturated link.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < unfrozen_.size(); ++i) {
      Group& g = groups_[unfrozen_[i]];
      bool freeze = g.rate >= g.rateCap - 1e-12;
      if (freeze) {
        g.bottleneck = kFrozenByCap;
      } else {
        for (LinkId lid : g.route) {
          const Link& l = links_[lid.value];
          if (headroom_[lid.value] <= 1e-9 * l.capacity * l.health + 1e-12) {
            freeze = true;
            g.bottleneck = lid.value;
            break;
          }
        }
      }
      if (freeze) {
        for (LinkId lid : g.route) unfrozenWeight_[lid.value] -= fillWeight(g);
      } else {
        unfrozen_[kept++] = unfrozen_[i];
      }
    }
    // delta == 0 with nothing to freeze can only happen on degenerate
    // zero-capacity links; freeze everything to guarantee termination.
    if (kept == unfrozen_.size()) kept = 0;
    unfrozen_.resize(kept);
  }
}

void FlowNetwork::rebalance() {
  if (solvePending_) return;
  solvePending_ = true;
  sim_.defer([this] { settle(); });
}

void FlowNetwork::settle() {
  if (!solvePending_) return;
  solvePending_ = false;
  {
    probe::SelfProfiler::Scope scope(sim_.profiler(), probe::SelfProfiler::Bucket::Solve);
    computeMaxMinRates();
  }
  if (probe::FlightRecorder* rec = sim_.recorder()) {
    rec->record(sim_.now(), probe::RecordKind::NetRebalance,
                static_cast<std::uint32_t>(activeFlows_), static_cast<double>(rerates_));
  }
  const SimTime now = sim_.now();
  for (std::uint32_t slot : live_) {
    Group& g = groups_[slot];
    if (g.rate <= 0.0) {
      // Stalled group (zero-capacity path): leave it unscheduled; a later
      // solve schedules the completion once capacity appears.
      if (g.completionEvent.valid()) {
        sim_.cancel(g.completionEvent);
        g.completionEvent = EventId{};
      }
      continue;
    }
    // Re-time the head's completion at the new rate (now, if its target
    // is already reached).
    const Seconds eta = std::max(0.0, g.heap.front().target - g.served) / g.rate;
    const SimTime newCompletion = now + eta;
    if (g.completionEvent.valid()) {
      // Skip churn if completion time barely moved — but account the
      // skipped correction, and re-anchor once the accrued drift leaves
      // its budget, so many small rebalances cannot compound error.
      const double scale = std::max(1.0, std::fabs(eta));
      const double drift = std::fabs(eta - (g.scheduledEta - now));
      if (drift <= kRateHysteresis * scale && g.etaDrift + drift <= kEtaDriftBudget * scale) {
        g.etaDrift += drift;
        continue;
      }
      ++rerates_;
      g.scheduledEta = newCompletion;
      g.etaDrift = 0.0;
      sim_.adjustKey(g.completionEvent, newCompletion);
      continue;
    }
    ++rerates_;
    g.scheduledEta = newCompletion;
    g.etaDrift = 0.0;
    g.completionEvent = sim_.scheduleAt(newCompletion, [this, slot] { completeHead(slot); });
  }
}

void FlowNetwork::completeHead(std::uint32_t slot) {
  advanceProgress();
  Group& g = groups_[slot];
  g.completionEvent = EventId{};  // this event just fired
  if (g.heap.front().target - g.served > 1.0) {
    // Defensive: floating-point drift left real bytes outstanding; let
    // the next solve schedule a fresh event.
    rebalance();
    return;
  }
  std::pop_heap(g.heap.begin(), g.heap.end(), finishesLater);
  Flow f = std::move(g.heap.back());
  g.heap.pop_back();
  g.members -= f.members;
  --activeFlows_;
  // Settle the float residue — bytes not yet credited, or (negative) the
  // overshoot credited since the target was reached — so links carry
  // exactly the flow's payload.
  const double residue = (f.target - g.served) * static_cast<double>(f.members);
  for (LinkId lid : g.route) links_[lid.value].bytesCarried += residue;
  if (g.heap.empty()) retireGroup(slot);
  if (tel_ && f.spanIdx != telemetry::kNoSpan) tel_->endSpan(f.spanIdx, sim_.now());
  const FlowCompletion done{f.id, f.bytes * f.members, f.members, f.startTime, sim_.now()};
  rebalance();
  if (f.onComplete) f.onComplete(done);
}

void FlowNetwork::activateDelayed(std::uint32_t slot) {
  Delayed& d = delayed_[slot];
  d.waiting = false;
  // The slot is freed only after activate: a zero-byte flow's callback
  // may start flows, and must not reuse the route activate reads.
  activate(std::move(d.flow), d.route, d.rateCap, d.weight);
  freeDelayed_.push_back(slot);
}

Bandwidth FlowNetwork::flowRate(FlowId id) {
  settle();
  for (std::uint32_t slot : live_) {
    const Group& g = groups_[slot];
    for (const Flow& f : g.heap) {
      if (f.id == id) return g.rate * static_cast<double>(f.members);
    }
  }
  return 0.0;
}

std::uint64_t FlowNetwork::activeMembers() const {
  std::uint64_t total = 0;
  for (std::uint32_t slot : live_) total += groups_[slot].members;
  return total;
}

std::vector<LinkStats> FlowNetwork::linkStats() {
  settle();
  std::vector<LinkStats> out;
  out.reserve(links_.size());
  std::vector<Bandwidth> alloc(links_.size(), 0.0);
  for (std::uint32_t slot : live_) {
    const Group& g = groups_[slot];
    const double aggregate = g.rate * static_cast<double>(g.members);
    for (LinkId lid : g.route) alloc[lid.value] += aggregate;
  }
  for (std::size_t i = 0; i < links_.size(); ++i) {
    // Report the *effective* capacity so degraded links show up in
    // utilization snapshots; identical to the configured capacity when
    // healthy (capacity * 1.0 is exact).
    out.push_back(LinkStats{links_[i].name, links_[i].capacity * links_[i].health,
                            links_[i].latency, alloc[i], links_[i].bytesCarried});
  }
  return out;
}

}  // namespace hcsim
