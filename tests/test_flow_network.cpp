#include "net/flow_network.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "probe/self_profiler.hpp"

namespace hcsim {
namespace {

struct Harness {
  Simulator sim;
  FlowNetwork net{sim};
};

TEST(FlowNetwork, SingleFlowUsesFullLink) {
  Harness h;
  const LinkId l = h.net.addLink("l", 100.0);  // 100 B/s
  SimTime end = -1;
  h.net.startFlow({1000, {l}}, [&](const FlowCompletion& c) { end = c.endTime; });
  h.sim.run();
  EXPECT_DOUBLE_EQ(end, 10.0);
}

TEST(FlowNetwork, TwoFlowsShareFairly) {
  Harness h;
  const LinkId l = h.net.addLink("l", 100.0);
  std::vector<SimTime> ends;
  for (int i = 0; i < 2; ++i) {
    h.net.startFlow({1000, {l}}, [&](const FlowCompletion& c) { ends.push_back(c.endTime); });
  }
  h.sim.run();
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_NEAR(ends[0], 20.0, 1e-9);
  EXPECT_NEAR(ends[1], 20.0, 1e-9);
}

TEST(FlowNetwork, RateCapLimitsBelowLinkShare) {
  Harness h;
  const LinkId l = h.net.addLink("l", 100.0);
  SimTime end = -1;
  FlowSpec spec{1000, {l}};
  spec.rateCap = 10.0;
  h.net.startFlow(spec, [&](const FlowCompletion& c) { end = c.endTime; });
  h.sim.run();
  EXPECT_DOUBLE_EQ(end, 100.0);
}

TEST(FlowNetwork, CappedFlowLeavesHeadroomToOthers) {
  // Max-min: capped flow gets 10, the other gets 90.
  Harness h;
  const LinkId l = h.net.addLink("l", 100.0);
  SimTime endCapped = -1, endFree = -1;
  FlowSpec capped{1000, {l}};
  capped.rateCap = 10.0;
  h.net.startFlow(capped, [&](const FlowCompletion& c) { endCapped = c.endTime; });
  h.net.startFlow({1000, {l}}, [&](const FlowCompletion& c) { endFree = c.endTime; });
  h.sim.run();
  // Free flow: 1000 B at 90 B/s = 11.1s. Capped: 100s.
  EXPECT_NEAR(endFree, 1000.0 / 90.0, 1e-6);
  EXPECT_NEAR(endCapped, 100.0, 1e-6);
}

TEST(FlowNetwork, BottleneckIsMinAlongRoute) {
  Harness h;
  const LinkId fast = h.net.addLink("fast", 1000.0);
  const LinkId slow = h.net.addLink("slow", 10.0);
  SimTime end = -1;
  h.net.startFlow({100, {fast, slow}}, [&](const FlowCompletion& c) { end = c.endTime; });
  h.sim.run();
  EXPECT_DOUBLE_EQ(end, 10.0);
}

TEST(FlowNetwork, MaxMinClassicTriangle) {
  // Two links A(100), B(100). Flow1 uses A, Flow2 uses B, Flow3 uses A+B.
  // Max-min: all start at 50; flow1/flow2 then grab leftover: 50 each ->
  // flows on single links rise to 50 + remaining... progressive filling
  // yields rate(f3)=50, rate(f1)=rate(f2)=50. After f3 finishes f1/f2 get 100.
  Harness h;
  const LinkId a = h.net.addLink("a", 100.0);
  const LinkId b = h.net.addLink("b", 100.0);
  SimTime e1 = -1, e2 = -1, e3 = -1;
  h.net.startFlow({10000, {a}}, [&](const FlowCompletion& c) { e1 = c.endTime; });
  h.net.startFlow({10000, {b}}, [&](const FlowCompletion& c) { e2 = c.endTime; });
  h.net.startFlow({1000, {a, b}}, [&](const FlowCompletion& c) { e3 = c.endTime; });
  h.sim.run();
  EXPECT_NEAR(e3, 20.0, 1e-6);  // 1000 B at 50 B/s
  // f1: 20s at 50 B/s = 1000 B done, then 9000 B at 100 B/s = 90s more.
  EXPECT_NEAR(e1, 110.0, 1e-6);
  EXPECT_NEAR(e2, 110.0, 1e-6);
}

TEST(FlowNetwork, DepartureRerates) {
  Harness h;
  const LinkId l = h.net.addLink("l", 100.0);
  SimTime eShort = -1, eLong = -1;
  h.net.startFlow({500, {l}}, [&](const FlowCompletion& c) { eShort = c.endTime; });
  h.net.startFlow({1000, {l}}, [&](const FlowCompletion& c) { eLong = c.endTime; });
  h.sim.run();
  // Both at 50 B/s; short ends at 10s (500B). Long has 500B left, now at
  // 100 B/s -> ends at 15s.
  EXPECT_NEAR(eShort, 10.0, 1e-9);
  EXPECT_NEAR(eLong, 15.0, 1e-9);
}

TEST(FlowNetwork, ArrivalRerates) {
  Harness h;
  const LinkId l = h.net.addLink("l", 100.0);
  SimTime e1 = -1, e2 = -1;
  h.net.startFlow({1000, {l}}, [&](const FlowCompletion& c) { e1 = c.endTime; });
  // Second flow arrives at t=5 (after 500B of flow1 moved at 100 B/s).
  h.sim.schedule(5.0, [&] {
    h.net.startFlow({250, {l}}, [&](const FlowCompletion& c) { e2 = c.endTime; });
  });
  h.sim.run();
  // From t=5: both at 50 B/s. Flow2: 250B -> ends t=10. Flow1: 250B moved
  // by t=10 (250 left), then 100 B/s -> ends t=12.5.
  EXPECT_NEAR(e2, 10.0, 1e-9);
  EXPECT_NEAR(e1, 12.5, 1e-9);
}

TEST(FlowNetwork, StartupLatencyDelaysTransfer) {
  Harness h;
  const LinkId l = h.net.addLink("l", 100.0);
  SimTime end = -1;
  FlowSpec spec{1000, {l}};
  spec.startupLatency = 2.0;
  h.net.startFlow(spec, [&](const FlowCompletion& c) { end = c.endTime; });
  h.sim.run();
  EXPECT_DOUBLE_EQ(end, 12.0);
}

TEST(FlowNetwork, ZeroByteFlowCompletesAfterLatency) {
  Harness h;
  const LinkId l = h.net.addLink("l", 100.0);
  SimTime end = -1;
  FlowSpec spec{0, {l}};
  spec.startupLatency = 3.0;
  h.net.startFlow(spec, [&](const FlowCompletion& c) { end = c.endTime; });
  h.sim.run();
  EXPECT_DOUBLE_EQ(end, 3.0);
}

TEST(FlowNetwork, EmptyRouteUsesRateCap) {
  Harness h;
  SimTime end = -1;
  FlowSpec spec{1000, {}};
  spec.rateCap = 100.0;
  h.net.startFlow(spec, [&](const FlowCompletion& c) { end = c.endTime; });
  h.sim.run();
  EXPECT_DOUBLE_EQ(end, 10.0);
}

TEST(FlowNetwork, CompletionReportsBytesAndStart) {
  Harness h;
  const LinkId l = h.net.addLink("l", 10.0);
  FlowCompletion got{};
  h.sim.schedule(1.0, [&] {
    h.net.startFlow({50, {l}}, [&](const FlowCompletion& c) { got = c; });
  });
  h.sim.run();
  EXPECT_EQ(got.bytes, 50u);
  EXPECT_DOUBLE_EQ(got.startTime, 1.0);
  EXPECT_DOUBLE_EQ(got.endTime, 6.0);
}

TEST(FlowNetwork, BytesCarriedConservation) {
  Harness h;
  const LinkId a = h.net.addLink("a", 100.0);
  const LinkId b = h.net.addLink("b", 40.0);
  for (int i = 0; i < 7; ++i) {
    h.net.startFlow({1000, {a, b}}, nullptr);
  }
  h.sim.run();
  EXPECT_NEAR(h.net.link(a).bytesCarried, 7000.0, 1.0);
  EXPECT_NEAR(h.net.link(b).bytesCarried, 7000.0, 1.0);
}

TEST(FlowNetwork, SetLinkCapacityReratesInFlight) {
  Harness h;
  const LinkId l = h.net.addLink("l", 100.0);
  SimTime end = -1;
  h.net.startFlow({1000, {l}}, [&](const FlowCompletion& c) { end = c.endTime; });
  h.sim.schedule(5.0, [&] { h.net.setLinkCapacity(l, 50.0); });
  h.sim.run();
  // 500B in first 5s, remaining 500B at 50 B/s -> ends at 15s.
  EXPECT_NEAR(end, 15.0, 1e-9);
}

TEST(FlowNetwork, ZeroCapacityLinkStallsUntilRaised) {
  Harness h;
  const LinkId l = h.net.addLink("l", 0.0);
  SimTime end = -1;
  h.net.startFlow({100, {l}}, [&](const FlowCompletion& c) { end = c.endTime; });
  h.sim.schedule(2.0, [&] { h.net.setLinkCapacity(l, 100.0); });
  h.sim.runUntil(100.0);
  EXPECT_NEAR(end, 3.0, 1e-9);
}

TEST(FlowNetwork, ReplaceLinkReroutesInFlight) {
  Harness h;
  const LinkId a = h.net.addLink("a", 100.0);
  const LinkId b = h.net.addLink("b", 50.0);
  SimTime end = -1;
  h.net.startFlow({1000, {a}}, [&](const FlowCompletion& c) { end = c.endTime; });
  // At t=5 (500B moved at 100 B/s), fail over a -> b.
  h.sim.schedule(5.0, [&] { EXPECT_EQ(h.net.replaceLinkInFlows(a, b), 1u); });
  h.sim.run();
  // Remaining 500B at 50 B/s: ends at 15s.
  EXPECT_NEAR(end, 15.0, 1e-9);
}

TEST(FlowNetwork, ReplaceLinkNoMatchesIsNoop) {
  Harness h;
  const LinkId a = h.net.addLink("a", 100.0);
  const LinkId b = h.net.addLink("b", 100.0);
  const LinkId c = h.net.addLink("c", 100.0);
  h.net.startFlow({1000, {a}}, nullptr);
  EXPECT_EQ(h.net.replaceLinkInFlows(b, c), 0u);
  h.sim.run();
}

TEST(FlowNetwork, StalledFlowRescuedByFailover) {
  // A flow stranded on a zero-capacity link completes once rerouted —
  // and the simulator must not livelock while it is stalled.
  Harness h;
  const LinkId dead = h.net.addLink("dead", 100.0);
  const LinkId live = h.net.addLink("live", 100.0);
  SimTime end = -1;
  h.net.startFlow({1000, {dead}}, [&](const FlowCompletion& c) { end = c.endTime; });
  h.sim.schedule(1.0, [&] { h.net.setLinkCapacity(dead, 0.0); });
  h.sim.schedule(4.0, [&] { h.net.replaceLinkInFlows(dead, live); });
  h.sim.run();
  // 100B moved by t=1, stall until t=4, 900B at 100 B/s -> t=13.
  EXPECT_NEAR(end, 13.0, 1e-9);
}

TEST(FlowNetwork, PermanentlyStalledFlowDoesNotLivelock) {
  Harness h;
  const LinkId dead = h.net.addLink("dead", 0.0);
  bool completed = false;
  h.net.startFlow({1000, {dead}}, [&](const FlowCompletion&) { completed = true; });
  h.sim.run();  // must drain immediately: stalled flow holds no event
  EXPECT_FALSE(completed);
  EXPECT_EQ(h.net.activeFlows(), 1u);
  EXPECT_LT(h.sim.eventsDispatched(), 10u);
}

TEST(FlowNetwork, ActiveFlowsAndRates) {
  Harness h;
  const LinkId l = h.net.addLink("l", 100.0);
  const FlowId f1 = h.net.startFlow({1000, {l}}, nullptr);
  const FlowId f2 = h.net.startFlow({1000, {l}}, nullptr);
  EXPECT_EQ(h.net.activeFlows(), 2u);
  EXPECT_NEAR(h.net.flowRate(f1), 50.0, 1e-9);
  EXPECT_NEAR(h.net.flowRate(f2), 50.0, 1e-9);
  h.sim.run();
  EXPECT_EQ(h.net.activeFlows(), 0u);
  EXPECT_EQ(h.net.flowRate(f1), 0.0);
}

TEST(FlowNetwork, LinkStatsReportAllocation) {
  Harness h;
  const LinkId l = h.net.addLink("shared", 100.0);
  h.net.startFlow({10000, {l}}, nullptr);
  h.net.startFlow({10000, {l}}, nullptr);
  const auto stats = h.net.linkStats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].name, "shared");
  EXPECT_NEAR(stats[0].allocated, 100.0, 1e-9);
  h.sim.run();
}

TEST(FlowNetwork, RouteLatencySumsLinks) {
  Harness h;
  const LinkId a = h.net.addLink("a", 1.0, 0.25);
  const LinkId b = h.net.addLink("b", 1.0, 0.5);
  EXPECT_DOUBLE_EQ(h.net.routeLatency({a, b}), 0.75);
  EXPECT_DOUBLE_EQ(h.net.routeLatency({}), 0.0);
}

// ---- Property: max-min fairness invariants over random topologies ----

class MaxMinPropertyTest : public ::testing::TestWithParam<int> {};

TEST(FlowNetwork, HysteresisSkipsSubThresholdRerates) {
  Harness h;
  const LinkId l = h.net.addLink("l", 100.0);
  h.net.startFlow({1000, {l}}, [](const FlowCompletion&) {});
  const std::uint64_t scheduled = h.net.rerates();
  // A capacity wiggle far below the hysteresis threshold must not
  // re-time the completion event.
  h.sim.runUntil(1.0);
  h.net.setLinkCapacity(l, 100.0 * (1.0 - 1e-10));
  EXPECT_EQ(h.net.rerates(), scheduled);
  h.sim.run();
}

// Regression: the eta-tolerance fast path must keep comparing against
// the *scheduled* completion (and re-anchor when the accrued error
// leaves its budget). A stale-anchor bug lets thousands of individually
// sub-threshold rate nudges compound into an unbounded completion error.
TEST(FlowNetwork, ManyTinyReratesHaveBoundedCompletionError) {
  Harness h;
  double capacity = 100.0;
  const LinkId l = h.net.addLink("l", capacity);
  SimTime end = -1.0;
  h.net.startFlow({1000, {l}}, [&](const FlowCompletion& c) { end = c.endTime; });

  // 2000 capacity decrements of 1e-10 relative, one per millisecond —
  // each moves the 10 s eta by ~1e-9 s, well under the 1e-8 s hysteresis
  // window. Track the exact byte ledger alongside.
  double remaining = 1000.0;
  double prev = 0.0;
  for (int i = 1; i <= 2000; ++i) {
    const SimTime t = i * 0.001;
    h.sim.runUntil(t);
    remaining -= capacity * (t - prev);
    prev = t;
    capacity *= 1.0 - 1e-10;
    h.net.setLinkCapacity(l, capacity);
  }
  h.sim.run();
  const double trueEnd = prev + remaining / capacity;
  ASSERT_GT(end, 0.0);
  EXPECT_NEAR(end, trueEnd, 1e-6);
  // The drift bound forces genuine re-anchors along the way.
  EXPECT_GT(h.net.rerates(), 1u);
}

// rerates() counts completion-event schedules plus in-place re-timings.
// Completion events belong to signature groups, not flows: these two
// flows share route, cap and weight, so they share one event, timed for
// whichever finishes first. That is what keeps work per event
// proportional to groups.
TEST(FlowNetwork, ReratesCountsEpochAdvances) {
  Harness h;
  const LinkId l = h.net.addLink("l", 100.0);
  EXPECT_EQ(h.net.rerates(), 0u);
  h.net.startFlow({500, {l}}, [](const FlowCompletion&) {});
  EXPECT_EQ(h.net.rerates(), 1u);  // the group's first completion schedule
  h.net.startFlow({1000, {l}}, [](const FlowCompletion&) {});
  // The arrival halves the group's rate: its one event is re-timed once.
  EXPECT_EQ(h.net.rerates(), 2u);
  h.sim.run();
  // The short flow's departure schedules the event for the survivor.
  EXPECT_EQ(h.net.rerates(), 3u);
}

// 1,000 flows of one signature arriving one at a time, then draining:
// every arrival and every departure re-times at most the group's one
// completion event, and that event is the only one pending.
TEST(FlowNetwork, SameSignatureFlowsShareOneCompletionEvent) {
  Harness h;
  const LinkId l = h.net.addLink("l", 1e6);
  constexpr int kFlows = 1000;
  int completed = 0;
  std::uint64_t seen = 0;
  const auto onDone = [&](const FlowCompletion&) {
    ++completed;
    EXPECT_LE(h.net.rerates() - seen, 1u);
    EXPECT_LE(h.sim.pendingEvents(), 1u);
    seen = h.net.rerates();
  };
  for (int i = 0; i < kFlows; ++i) {
    h.sim.runUntil(1e-3 * i);
    seen = h.net.rerates();
    // Varied sizes, so the group's earliest finisher keeps changing.
    const Bytes bytes = 1'000'000 + static_cast<Bytes>((i * 7919) % 1000) * 1000;
    h.net.startFlow({bytes, {l}}, onDone);
    EXPECT_LE(h.net.rerates() - seen, 1u);
    EXPECT_EQ(h.sim.pendingEvents(), 1u);
  }
  EXPECT_EQ(h.net.activeFlows(), static_cast<std::size_t>(kFlows));
  seen = h.net.rerates();
  h.sim.run();
  EXPECT_EQ(completed, kFlows);
  EXPECT_EQ(h.sim.eventsDispatched(), static_cast<std::uint64_t>(kFlows));
}

// The DAOS write shape: a client replicates one write to three targets,
// so three flows on three routes that share the client link activate at
// one instant. Changes at one instant share one solve, and the equal-rate
// replicas then finish together at another instant and another solve.
TEST(FlowNetwork, SameInstantActivationsCostOneSolve) {
  Harness h;
  probe::SelfProfiler prof;
  prof.setEnabled(true);
  h.sim.setProfiler(&prof);
  const LinkId client = h.net.addLink("client", 300.0);
  std::vector<SimTime> ends;
  for (int i = 0; i < 3; ++i) {
    const LinkId target = h.net.addLink("target" + std::to_string(i), 1000.0);
    FlowSpec spec{600, {client, target}};
    spec.startupLatency = 0.5;
    h.net.startFlow(spec, [&](const FlowCompletion& c) { ends.push_back(c.endTime); });
  }
  const auto solves = [&] { return prof.count(probe::SelfProfiler::Bucket::Solve); };
  h.sim.runUntil(0.5);
  EXPECT_EQ(solves(), 1u);
  h.sim.run();
  EXPECT_EQ(solves(), 2u);
  // 600 B at a third of the client link each, after 0.5 s of startup.
  EXPECT_EQ(ends, (std::vector<SimTime>{6.5, 6.5, 6.5}));
  // Three activations plus three completions: deferral adds no event.
  EXPECT_EQ(h.sim.eventsDispatched(), 6u);
}

// A reader inside an instant sees the max-min rates of the flows active
// at that moment, not the allocation of the previous solve.
TEST(FlowNetwork, FlowRateMidInstantIsTheSettledMaxMinRate) {
  Harness h;
  const LinkId client = h.net.addLink("client", 300.0);
  std::vector<FlowId> ids;
  const auto start = [&](int i) {
    const LinkId target = h.net.addLink("target" + std::to_string(i), 1000.0);
    FlowSpec spec{600, {client, target}};
    spec.startupLatency = 0.5;
    ids.push_back(h.net.startFlow(spec, nullptr));
  };
  std::vector<Bandwidth> seen;
  start(0);
  start(1);
  // Dispatched at 0.5 between the second and the third activation.
  h.sim.scheduleAt(0.5, [&] {
    for (FlowId id : ids) seen.push_back(h.net.flowRate(id));
  });
  start(2);
  h.sim.runUntil(0.5);
  EXPECT_EQ(seen, (std::vector<Bandwidth>{150.0, 150.0, 0.0}));
  for (FlowId id : ids) EXPECT_EQ(h.net.flowRate(id), 100.0);
  h.sim.run();
  EXPECT_EQ(h.net.activeFlows(), 0u);
}

TEST_P(MaxMinPropertyTest, NoLinkOversubscribedAndWorkConserving) {
  const int seed = GetParam();
  Harness h;
  std::vector<LinkId> links;
  const int nLinks = 3 + seed % 4;
  for (int i = 0; i < nLinks; ++i) {
    links.push_back(h.net.addLink("l" + std::to_string(i), 50.0 + 13.0 * ((seed + i) % 7)));
  }
  std::vector<FlowId> flows;
  const int nFlows = 4 + seed % 9;
  for (int f = 0; f < nFlows; ++f) {
    Route route;
    for (int i = 0; i < nLinks; ++i) {
      if ((seed * 31 + f * 17 + i) % 3 == 0) route.push_back(links[static_cast<std::size_t>(i)]);
    }
    if (route.empty()) route.push_back(links[0]);
    FlowSpec spec{100000, route};
    if (f % 4 == 1) spec.rateCap = 20.0;
    flows.push_back(h.net.startFlow(spec, nullptr));
  }

  // Invariant 1: no link carries more than its capacity.
  for (const auto& ls : h.net.linkStats()) {
    EXPECT_LE(ls.allocated, ls.capacity * (1.0 + 1e-9)) << ls.name;
  }
  // Invariant 2: every flow has a positive rate (work conservation).
  for (FlowId f : flows) EXPECT_GT(h.net.flowRate(f), 0.0);
  // Invariant 3: some link is saturated OR every flow is at its cap.
  bool saturated = false;
  for (const auto& ls : h.net.linkStats()) {
    if (ls.allocated >= ls.capacity * (1.0 - 1e-6) && ls.allocated > 0.0) saturated = true;
  }
  bool allCapped = true;
  for (FlowId f : flows) {
    if (h.net.flowRate(f) < 20.0 * (1.0 - 1e-9)) {
      // not at the cap (only some flows are capped anyway)
    }
  }
  (void)allCapped;
  EXPECT_TRUE(saturated);
  h.sim.run();  // must drain without hanging
  EXPECT_EQ(h.net.activeFlows(), 0u);
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, MaxMinPropertyTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace hcsim
