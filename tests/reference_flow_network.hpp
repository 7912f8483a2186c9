#pragma once
// Test-only reference max-min flow solver: the straightforward design
// the production FlowNetwork is checked against.
//
// Every arrival, departure, capacity/health change and reroute advances
// every flow's own remaining-byte ledger, sorts all active flows by
// signature (route, per-member rate cap, per-member weight), regroups
// them, runs weighted progressive filling over the groups in ascending
// lowest-member-id order, and re-times one completion event PER FLOW
// with the same hysteresis and eta-drift budget as production. That is
// O(F log F) work per event, which is why production keeps persistent
// signature groups instead; the two must agree on every per-flow rate
// and completion time (tests/test_flow_differential.cpp).
//
// Telemetry, the flight recorder and the self-profiler are left out:
// they are observe-only, so there is nothing to compare.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "net/flow_network.hpp"

namespace hcsim::reference {

class FlowNetwork {
 public:
  explicit FlowNetwork(Simulator& sim) : sim_(sim) {}
  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  LinkId addLink(std::string name, Bandwidth capacity, Seconds latency = 0.0) {
    Link l;
    l.name = std::move(name);
    l.capacity = capacity;
    l.latency = latency;
    links_.push_back(std::move(l));
    return LinkId{static_cast<std::uint32_t>(links_.size() - 1)};
  }

  void setLinkCapacity(LinkId id, Bandwidth capacity) {
    Link& l = links_.at(id.value);
    if (l.capacity == capacity) return;
    advanceProgress();
    l.capacity = capacity;
    rebalance();
  }

  void setLinkHealth(LinkId id, double health) {
    Link& l = links_.at(id.value);
    const double clamped = std::min(1.0, std::max(0.0, health));
    if (l.health == clamped) return;
    advanceProgress();
    l.health = clamped;
    rebalance();
  }

  std::size_t replaceLinkInFlows(LinkId from, LinkId to) {
    advanceProgress();
    const auto reroute = [from, to](ActiveFlow& f) {
      bool touched = false;
      for (LinkId& l : f.route) {
        if (l == from) {
          l = to;
          touched = true;
        }
      }
      return touched;
    };
    std::size_t rerouted = 0;
    for (auto& [id, f] : active_) rerouted += reroute(f) ? 1 : 0;
    // A flow in its startup delay takes the new route when it activates;
    // until then it holds no bandwidth, so it triggers no rebalance.
    std::size_t delayed = 0;
    for (auto& [id, f] : delayed_) delayed += reroute(f) ? 1 : 0;
    if (rerouted > 0) rebalance();
    return rerouted + delayed;
  }

  const Link& link(LinkId id) const { return links_.at(id.value); }

  FlowId startFlow(const FlowSpec& spec, std::function<void(const FlowCompletion&)> onComplete) {
    if (!(spec.weight > 0.0)) throw std::invalid_argument("reference: flow weight must be > 0");
    if (spec.members == 0) throw std::invalid_argument("reference: flow class needs >= 1 member");
    ActiveFlow flow;
    flow.id = nextFlowId_++;
    flow.route = spec.route;
    flow.rateCap = spec.rateCap;
    flow.weight = spec.weight;
    flow.members = spec.members;
    flow.remaining = static_cast<double>(spec.bytes);
    flow.totalBytes = spec.bytes;
    flow.startTime = sim_.now();
    flow.onComplete = std::move(onComplete);
    const FlowId id = flow.id;
    if (spec.startupLatency > 0.0) {
      delayed_.emplace(id, std::move(flow));
      sim_.schedule(spec.startupLatency,
                    [this, id] { activate(std::move(delayed_.extract(id).mapped())); });
    } else {
      activate(std::move(flow));
    }
    return id;
  }

  std::size_t activeFlows() const { return active_.size(); }

  /// Aggregate rate (per-member rate x members); 0 when not active.
  Bandwidth flowRate(FlowId id) const {
    const auto it = active_.find(id);
    if (it == active_.end()) return 0.0;
    return it->second.rate * static_cast<double>(it->second.members);
  }

 private:
  static constexpr double kByteEpsilon = 1e-6;
  static constexpr double kRateHysteresis = 1e-9;
  static constexpr double kEtaDriftBudget = 100 * kRateHysteresis;

  struct ActiveFlow {
    FlowId id = 0;
    Route route;
    Bandwidth rateCap = 0.0;  // per member
    double weight = 1.0;      // per member
    std::uint32_t members = 1;
    double remaining = 0.0;  // per member
    Bytes totalBytes = 0;    // per member
    SimTime startTime = 0.0;
    SimTime lastUpdate = 0.0;
    Bandwidth rate = 0.0;  // per member
    SimTime scheduledEta = -1.0;
    double etaDrift = 0.0;
    EventId completionEvent{};
    std::function<void(const FlowCompletion&)> onComplete;
  };

  void activate(ActiveFlow flow) {
    flow.lastUpdate = sim_.now();
    if (flow.remaining <= kByteEpsilon) {
      const FlowCompletion done{flow.id, flow.totalBytes * flow.members, flow.members,
                                flow.startTime, sim_.now()};
      if (flow.onComplete) flow.onComplete(done);
      return;
    }
    const FlowId id = flow.id;
    active_.emplace(id, std::move(flow));
    advanceProgress();
    rebalance();
  }

  void advanceProgress() {
    const SimTime now = sim_.now();
    for (auto& [id, f] : active_) {
      const SimTime dt = now - f.lastUpdate;
      if (dt > 0.0 && f.rate > 0.0) {
        const double moved = std::min(f.remaining, f.rate * dt);
        f.remaining -= moved;
        const double carried = moved * static_cast<double>(f.members);
        for (LinkId lid : f.route) links_[lid.value].bytesCarried += carried;
      }
      f.lastUpdate = now;
    }
  }

  void computeMaxMinRates() {
    const auto sameSignature = [](const ActiveFlow* a, const ActiveFlow* b) {
      return a->route == b->route &&
             std::bit_cast<std::uint64_t>(a->rateCap) == std::bit_cast<std::uint64_t>(b->rateCap) &&
             std::bit_cast<std::uint64_t>(a->weight) == std::bit_cast<std::uint64_t>(b->weight);
    };
    const auto signatureLess = [](const ActiveFlow* a, const ActiveFlow* b) {
      if (a->route != b->route) {
        return std::lexicographical_compare(
            a->route.begin(), a->route.end(), b->route.begin(), b->route.end(),
            [](LinkId x, LinkId y) { return x.value < y.value; });
      }
      const auto capA = std::bit_cast<std::uint64_t>(a->rateCap);
      const auto capB = std::bit_cast<std::uint64_t>(b->rateCap);
      if (capA != capB) return capA < capB;
      return std::bit_cast<std::uint64_t>(a->weight) < std::bit_cast<std::uint64_t>(b->weight);
    };

    std::vector<double> headroom(links_.size());
    std::vector<double> unfrozenWeightOnLink(links_.size(), 0.0);
    for (std::size_t i = 0; i < links_.size(); ++i) {
      headroom[i] = links_[i].capacity * links_[i].health;
    }

    std::vector<ActiveFlow*> flows;
    flows.reserve(active_.size());
    for (auto& [id, f] : active_) {
      f.rate = 0.0;
      flows.push_back(&f);
    }
    std::sort(flows.begin(), flows.end(),
              [&sameSignature, &signatureLess](const ActiveFlow* a, const ActiveFlow* b) {
                if (!sameSignature(a, b)) return signatureLess(a, b);
                return a->id < b->id;
              });

    struct Group {
      ActiveFlow* rep = nullptr;  // lowest-id member
      std::size_t first = 0;      // [first, last) range in `flows`
      std::size_t last = 0;
      double weight = 0.0;  // per-member weight x members
      double rate = 0.0;    // per member
    };
    std::vector<Group> groups;
    for (std::size_t i = 0; i < flows.size();) {
      std::size_t j = i;
      std::uint64_t members = 0;
      ActiveFlow* rep = flows[i];
      while (j < flows.size() && sameSignature(flows[i], flows[j])) {
        members += flows[j]->members;
        if (flows[j]->id < rep->id) rep = flows[j];
        ++j;
      }
      groups.push_back(Group{rep, i, j, rep->weight * static_cast<double>(members), 0.0});
      i = j;
    }
    std::sort(groups.begin(), groups.end(),
              [](const Group& a, const Group& b) { return a.rep->id < b.rep->id; });
    for (const Group& g : groups) {
      for (LinkId lid : g.rep->route) unfrozenWeightOnLink[lid.value] += g.weight;
    }

    std::vector<bool> frozen(groups.size(), false);
    std::size_t unfrozen = groups.size();
    std::size_t rounds = 0;
    const std::size_t maxRounds = groups.size() + links_.size() + 2;
    while (unfrozen > 0) {
      if (++rounds > maxRounds) throw std::logic_error("reference: filling did not converge");
      double delta = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < links_.size(); ++i) {
        if (unfrozenWeightOnLink[i] > 1e-12) {
          delta = std::min(delta, headroom[i] / unfrozenWeightOnLink[i]);
        }
      }
      for (std::size_t i = 0; i < groups.size(); ++i) {
        if (!frozen[i]) {
          delta = std::min(delta, (groups[i].rep->rateCap - groups[i].rate) / groups[i].rep->weight);
        }
      }
      if (!std::isfinite(delta)) delta = 1e18;
      if (delta < 0.0) delta = 0.0;
      for (std::size_t i = 0; i < groups.size(); ++i) {
        if (frozen[i]) continue;
        groups[i].rate += delta * groups[i].rep->weight;
        const double claimed = delta * groups[i].weight;
        for (LinkId lid : groups[i].rep->route) headroom[lid.value] -= claimed;
      }
      std::size_t newlyFrozen = 0;
      for (std::size_t i = 0; i < groups.size(); ++i) {
        if (frozen[i]) continue;
        bool freeze = groups[i].rate >= groups[i].rep->rateCap - 1e-12;
        if (!freeze) {
          for (LinkId lid : groups[i].rep->route) {
            if (headroom[lid.value] <=
                1e-9 * links_[lid.value].capacity * links_[lid.value].health + 1e-12) {
              freeze = true;
              break;
            }
          }
        }
        if (freeze) {
          frozen[i] = true;
          ++newlyFrozen;
          for (LinkId lid : groups[i].rep->route) {
            unfrozenWeightOnLink[lid.value] -= groups[i].weight;
          }
        }
      }
      unfrozen -= newlyFrozen;
      if (newlyFrozen == 0) unfrozen = 0;  // degenerate zero-capacity links
    }
    for (const Group& g : groups) {
      for (std::size_t i = g.first; i < g.last; ++i) flows[i]->rate = g.rate;
    }
  }

  void rebalance() {
    computeMaxMinRates();
    const SimTime now = sim_.now();
    for (auto& [id, f] : active_) {
      if (f.rate <= 0.0) {
        if (f.completionEvent.valid()) {
          sim_.cancel(f.completionEvent);
          f.completionEvent = EventId{};
          f.scheduledEta = -1.0;
          f.etaDrift = 0.0;
        }
        continue;
      }
      const Seconds eta = f.remaining / f.rate;
      const SimTime newCompletion = now + eta;
      if (f.completionEvent.valid()) {
        const double scale = std::max(1.0, std::fabs(eta));
        const double drift = std::fabs(eta - (f.scheduledEta - now));
        if (drift <= kRateHysteresis * scale && f.etaDrift + drift <= kEtaDriftBudget * scale) {
          f.etaDrift += drift;
          continue;
        }
        f.scheduledEta = newCompletion;
        f.etaDrift = 0.0;
        sim_.adjustKey(f.completionEvent, newCompletion);
        continue;
      }
      const FlowId fid = id;
      f.scheduledEta = newCompletion;
      f.etaDrift = 0.0;
      f.completionEvent = sim_.scheduleAt(newCompletion, [this, fid] { finish(fid); });
    }
  }

  void finish(FlowId id) {
    auto it = active_.find(id);
    if (it == active_.end()) return;
    advanceProgress();
    if (it->second.remaining > 1.0) {
      it->second.completionEvent = EventId{};
      it->second.scheduledEta = -1.0;
      it->second.etaDrift = 0.0;
      rebalance();
      return;
    }
    ActiveFlow f = std::move(it->second);
    active_.erase(it);
    if (f.remaining > 0.0) {
      const double residue = f.remaining * static_cast<double>(f.members);
      for (LinkId lid : f.route) links_[lid.value].bytesCarried += residue;
    }
    const FlowCompletion done{f.id, f.totalBytes * f.members, f.members, f.startTime, sim_.now()};
    rebalance();
    if (f.onComplete) f.onComplete(done);
  }

  Simulator& sim_;
  std::vector<Link> links_;
  FlowId nextFlowId_ = 1;
  std::unordered_map<FlowId, ActiveFlow> active_;
  std::unordered_map<FlowId, ActiveFlow> delayed_;  // in their startup delay
};

}  // namespace hcsim::reference
