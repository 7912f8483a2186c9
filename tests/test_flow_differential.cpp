// Differential test of the flow solver: the production FlowNetwork
// (persistent signature groups, per-group virtual time, one completion
// event per group) against the test-only reference solver in
// reference_flow_network.hpp (sort, regroup and fill on every event, one
// completion event per flow). Both replay the same seeded script: random
// topologies, rate caps, weights and member counts from 1 to 10^4,
// bursts of same-signature flows joining at staggered times, and mid-run
// setLinkHealth, setLinkCapacity and replaceLinkInFlows. A second seed
// set replays each script snapped to a time grid, so that several steps
// share one instant and probes read rates in the middle of it. Every
// per-flow rate sampled along the way, every completion time and every
// link's carried bytes must agree within 1e-9 relative.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "net/flow_network.hpp"
#include "reference_flow_network.hpp"
#include "util/random.hpp"

namespace hcsim {
namespace {

constexpr double kRelTol = 1e-9;

bool agrees(double a, double b) {
  return std::fabs(a - b) <= kRelTol * std::max(std::fabs(a), std::fabs(b));
}

/// One scripted step, replayed identically against both networks.
struct Step {
  enum class Kind { Start, Capacity, Health, Reroute, Probe };
  Kind kind = Kind::Probe;
  SimTime at = 0.0;
  FlowSpec spec;         // Start
  std::size_t link = 0;  // Capacity, Health; Reroute: from
  std::size_t to = 0;    // Reroute
  double value = 0.0;    // Capacity: bytes/s; Health: factor
};

struct Script {
  std::vector<Bandwidth> links;
  std::vector<Step> steps;

  void start(SimTime at, FlowSpec spec) {
    Step s;
    s.kind = Step::Kind::Start;
    s.at = at;
    s.spec = std::move(spec);
    steps.push_back(std::move(s));
  }
  void change(Step::Kind kind, SimTime at, std::size_t link, double value) {
    Step s;
    s.kind = kind;
    s.at = at;
    s.link = link;
    s.value = value;
    steps.push_back(std::move(s));
  }
  void reroute(SimTime at, std::size_t from, std::size_t to) {
    Step s;
    s.kind = Step::Kind::Reroute;
    s.at = at;
    s.link = from;
    s.to = to;
    steps.push_back(std::move(s));
  }
  void probe(SimTime at) {
    Step s;
    s.at = at;
    steps.push_back(std::move(s));
  }
};

/// What one network produced for a script.
struct Outcome {
  std::map<FlowId, FlowCompletion> done;
  std::vector<std::vector<Bandwidth>> probes;  // every started flow's rate, per probe
  std::vector<std::size_t> rerouted;
  std::vector<double> carried;  // per link, after the run
};

template <class Net>
Outcome replay(const Script& script) {
  Simulator sim;
  Net net(sim);
  std::vector<LinkId> links;
  for (Bandwidth cap : script.links) {
    links.push_back(net.addLink("l" + std::to_string(links.size()), cap));
  }
  Outcome out;
  FlowId lastId = 0;
  for (const Step& step : script.steps) {
    sim.scheduleAt(step.at, [&, s = &step] {
      switch (s->kind) {
        case Step::Kind::Start:
          lastId = net.startFlow(s->spec, [&out](const FlowCompletion& c) { out.done[c.id] = c; });
          break;
        case Step::Kind::Capacity:
          net.setLinkCapacity(links[s->link], s->value);
          break;
        case Step::Kind::Health:
          net.setLinkHealth(links[s->link], s->value);
          break;
        case Step::Kind::Reroute:
          out.rerouted.push_back(net.replaceLinkInFlows(links[s->link], links[s->to]));
          break;
        case Step::Kind::Probe: {
          std::vector<Bandwidth> rates;
          for (FlowId id = 1; id <= lastId; ++id) rates.push_back(net.flowRate(id));
          out.probes.push_back(std::move(rates));
          break;
        }
      }
    });
  }
  sim.run();
  for (LinkId l : links) out.carried.push_back(net.link(l).bytesCarried);
  return out;
}

void expectAgree(const Outcome& got, const Outcome& want) {
  ASSERT_EQ(got.done.size(), want.done.size());
  for (const auto& [id, w] : want.done) {
    const auto it = got.done.find(id);
    ASSERT_NE(it, got.done.end()) << "flow " << id << " never completed";
    const FlowCompletion& g = it->second;
    EXPECT_EQ(g.bytes, w.bytes) << "flow " << id;
    EXPECT_EQ(g.members, w.members) << "flow " << id;
    EXPECT_EQ(g.startTime, w.startTime) << "flow " << id;
    EXPECT_TRUE(agrees(g.endTime, w.endTime))
        << "flow " << id << " ends at " << g.endTime << ", reference " << w.endTime;
  }
  ASSERT_EQ(got.probes.size(), want.probes.size());
  for (std::size_t p = 0; p < want.probes.size(); ++p) {
    ASSERT_EQ(got.probes[p].size(), want.probes[p].size()) << "probe " << p;
    for (std::size_t i = 0; i < want.probes[p].size(); ++i) {
      EXPECT_TRUE(agrees(got.probes[p][i], want.probes[p][i]))
          << "probe " << p << " flow " << i + 1 << ": rate " << got.probes[p][i]
          << ", reference " << want.probes[p][i];
    }
  }
  EXPECT_EQ(got.rerouted, want.rerouted);
  ASSERT_EQ(got.carried.size(), want.carried.size());
  for (std::size_t l = 0; l < want.carried.size(); ++l) {
    EXPECT_TRUE(agrees(got.carried[l], want.carried[l]))
        << "link " << l << " carried " << got.carried[l] << ", reference " << want.carried[l];
  }
}

Script randomScript(std::uint64_t seed) {
  Rng rng(seed);
  Script sc;
  const std::size_t nLinks = 3 + rng.uniformInt(5);
  for (std::size_t i = 0; i < nLinks; ++i) sc.links.push_back(1e4 * (1.0 + rng.uniformInt(10)));

  // A small pool of signatures, so groups really hold several flows.
  const double inf = std::numeric_limits<double>::infinity();
  const double caps[] = {inf, inf, inf, 2e3, 1.5e4};
  const double weights[] = {1.0, 1.0, 2.0, 0.5, 3.0};
  const std::uint32_t members[] = {1, 1, 1, 3, 10, 250, 10000};
  std::vector<FlowSpec> signatures(3 + rng.uniformInt(6));
  for (FlowSpec& s : signatures) {
    const std::size_t hops = 1 + rng.uniformInt(3);
    while (s.route.size() < hops) {
      const LinkId l{static_cast<std::uint32_t>(rng.uniformInt(nLinks))};
      if (std::find(s.route.begin(), s.route.end(), l) == s.route.end()) s.route.push_back(l);
    }
    s.rateCap = caps[rng.uniformInt(5)];
    s.weight = weights[rng.uniformInt(5)];
  }
  const auto flow = [&](const FlowSpec& signature) {
    FlowSpec s = signature;
    s.bytes = 1000 + rng.uniformInt(200000);
    s.members = members[rng.uniformInt(7)];
    s.startupLatency = rng.uniform() < 0.5 ? 0.0 : 0.05 * rng.uniform();
    return s;
  };

  const SimTime horizon = 5.0;
  const std::size_t arrivals = 15 + rng.uniformInt(30);
  for (std::size_t i = 0; i < arrivals; ++i) {
    sc.start(horizon * rng.uniform(), flow(signatures[rng.uniformInt(signatures.size())]));
  }
  // Bursts: one signature, several flows joining at staggered times.
  for (int b = 0; b < 2; ++b) {
    const FlowSpec& signature = signatures[rng.uniformInt(signatures.size())];
    const SimTime t0 = horizon * rng.uniform();
    const SimTime gap = 0.01 + 0.1 * rng.uniform();
    const std::size_t k = 5 + rng.uniformInt(20);
    for (std::size_t j = 0; j < k; ++j) sc.start(t0 + gap * static_cast<double>(j), flow(signature));
  }
  // Mid-run capacity changes, fail-stop / fail-slow with restores, and
  // one reroute (a merge whenever the moved signature meets a live one).
  for (int c = 0; c < 3; ++c) {
    sc.change(Step::Kind::Capacity, horizon * rng.uniform(), rng.uniformInt(nLinks),
              1e4 * (1.0 + rng.uniformInt(10)));
  }
  for (int h = 0; h < 2; ++h) {
    const std::size_t link = rng.uniformInt(nLinks);
    const SimTime at = horizon * rng.uniform();
    sc.change(Step::Kind::Health, at, link, rng.uniform() < 0.5 ? 0.0 : 0.3);
    sc.change(Step::Kind::Health, at + 0.5 + 2.0 * rng.uniform(), link, 1.0);
  }
  const std::size_t from = rng.uniformInt(nLinks);
  sc.reroute(horizon * rng.uniform(), from, (from + 1 + rng.uniformInt(nLinks - 1)) % nLinks);
  for (int p = 0; p < 25; ++p) sc.probe(1.5 * horizon * rng.uniform());
  return sc;
}

/// The same script with every step on a 0.25 s grid and every non-zero
/// startup latency at 0.05 s, so that arrivals, activations, link changes
/// and probes share instants, and probes read rates mid-instant.
Script onGrid(Script sc) {
  for (Step& s : sc.steps) {
    s.at = 0.25 * std::round(s.at / 0.25);
    if (s.spec.startupLatency > 0.0) s.spec.startupLatency = 0.05;
  }
  return sc;
}

void expectMatchesReference(const Script& script) {
  const Outcome want = replay<reference::FlowNetwork>(script);
  const Outcome got = replay<FlowNetwork>(script);
  ASSERT_FALSE(want.done.empty());
  expectAgree(got, want);
}

class FlowDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowDifferential, GroupsMatchPerFlowReference) {
  expectMatchesReference(randomScript(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowDifferential, ::testing::Range<std::uint64_t>(1, 41));

class FlowDifferentialSameInstant : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowDifferentialSameInstant, GroupsMatchPerFlowReference) {
  expectMatchesReference(onGrid(randomScript(GetParam())));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowDifferentialSameInstant,
                         ::testing::Range<std::uint64_t>(1, 201));

FlowSpec onRoute(Route route, Bytes bytes) {
  FlowSpec s;
  s.route = std::move(route);
  s.bytes = bytes;
  return s;
}

// A reroute whose new signature is already live merges the moved group
// into it, and every moved flow keeps its remaining bytes.
TEST(FlowDifferentialCase, RerouteMergesIntoLiveGroup) {
  Script sc;
  sc.links = {100.0, 150.0, 1000.0};  // a, b, shared
  const LinkId a{0}, b{1}, shared{2};
  sc.start(0.0, onRoute({a, shared}, 1000));
  sc.start(0.5, onRoute({a, shared}, 3000));
  sc.start(0.2, onRoute({b, shared}, 2000));
  sc.start(1.0, onRoute({b, shared}, 500));
  sc.reroute(2.0, 0, 1);
  for (SimTime t : {1.5, 2.5, 7.0, 20.0}) sc.probe(t);
  const Outcome want = replay<reference::FlowNetwork>(sc);
  const Outcome got = replay<FlowNetwork>(sc);
  EXPECT_EQ(got.rerouted, std::vector<std::size_t>{2});
  expectAgree(got, want);
}

// A reroute reaches flows still in their startup delay: they start on
// the new route, so failing the old link right after strands none.
TEST(FlowDifferentialCase, RerouteReachesFlowsInTheirStartupDelay) {
  Script sc;
  sc.links = {100.0, 150.0, 1000.0};  // old, new, shared
  const LinkId old{0}, fresh{1}, shared{2};
  FlowSpec delayed = onRoute({old, shared}, 1000);
  delayed.startupLatency = 0.5;
  sc.start(0.0, delayed);
  sc.start(0.1, delayed);
  sc.start(0.0, onRoute({old, shared}, 2000));    // live at the reroute
  sc.start(0.2, onRoute({fresh, shared}, 500));  // already on the new link
  sc.reroute(0.3, 0, 1);
  sc.change(Step::Kind::Health, 0.3, 0, 0.0);
  for (SimTime t : {0.4, 0.55, 0.7, 5.0}) sc.probe(t);
  const Outcome want = replay<reference::FlowNetwork>(sc);
  const Outcome got = replay<FlowNetwork>(sc);
  EXPECT_EQ(got.rerouted, std::vector<std::size_t>{3});
  ASSERT_EQ(want.done.size(), 4u);
  expectAgree(got, want);
}

// 500 same-signature flows joining 1 ms apart next to a capped competitor
// and a class, with a capacity drop while the burst drains.
TEST(FlowDifferentialCase, LargeStaggeredBurst) {
  Script sc;
  sc.links = {1e6};
  const LinkId l{0};
  for (int i = 0; i < 500; ++i) {
    sc.start(1e-3 * i, onRoute({l}, 20'000 + static_cast<Bytes>((i * 7919) % 997) * 50));
  }
  FlowSpec capped = onRoute({l}, 2'000'000);
  capped.rateCap = 5e3;
  sc.start(0.1, capped);
  FlowSpec cls = onRoute({l}, 40'000);
  cls.members = 10000;
  sc.start(0.25, cls);
  sc.change(Step::Kind::Capacity, 0.3, 0, 4e5);
  for (int p = 0; p < 10; ++p) sc.probe(0.05 + 0.1 * p);
  const Outcome want = replay<reference::FlowNetwork>(sc);
  const Outcome got = replay<FlowNetwork>(sc);
  ASSERT_EQ(want.done.size(), 502u);
  expectAgree(got, want);
}

}  // namespace
}  // namespace hcsim
