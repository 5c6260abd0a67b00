// Tests for delayed deployments (S5) and the monotonicity machinery of
// Sec. 2.1: Lemma 1 (delaying more never increases visit counts), Lemma 2
// (sandwich between R[k] at tau and at T), Lemma 3 (slow-down lemma), and
// Yanovski et al.'s corollary that adding agents cannot slow exploration.

#include "core/delayed.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/initializers.hpp"
#include "core/ring_rotor_router.hpp"
#include "core/rotor_router.hpp"
#include "graph/generators.hpp"
#include "sim/measure.hpp"

namespace rr::core {
namespace {

TEST(Delayed, NoDelayMatchesPlainStep) {
  RingRotorRouter a(20, {3, 9});
  RingRotorRouter b(20, {3, 9});
  NoDelay no_delay;
  for (int t = 0; t < 100; ++t) {
    a.step();
    b.step_delayed(no_delay);
    ASSERT_EQ(a.config_hash(), b.config_hash());
  }
}

TEST(Delayed, HoldAtNodesFreezesListedNodes) {
  HoldAtNodes hold({5u});
  RingRotorRouter rr(20, {5, 10});
  for (int t = 0; t < 10; ++t) rr.step_delayed(hold);
  EXPECT_EQ(rr.agents_at(5), 1u);
  EXPECT_NE(rr.agents_at(10), 1u);  // the free agent moved away
  hold.release(5);
  rr.step_delayed(hold);
  EXPECT_EQ(rr.agents_at(5), 0u);
}

TEST(Delayed, ReleaseFromSourceBudget) {
  ReleaseFromSource sched(0, 2);  // release only 2 of the agents at node 0
  RingRotorRouter rr(20, {0, 0, 0, 0, 0});
  rr.step_delayed(sched);
  EXPECT_EQ(rr.agents_at(0), 3u);
  EXPECT_EQ(rr.agents_at(1) + rr.agents_at(19), 2u);
}

TEST(Delayed, Lemma1DelayingMoreNeverIncreasesVisits) {
  // D1 delays a superset of what D2 delays => n^D1_v(t) <= n^D2_v(t).
  Rng rng(11);
  for (int trial = 0; trial < 8; ++trial) {
    const NodeId n = 20 + rng.bounded(30);
    const std::uint32_t k = 2 + rng.bounded(5);
    auto agents = place_random(n, k, rng);
    auto ptrs = pointers_random(n, rng);
    RingRotorRouter d1(n, agents, ptrs);
    RingRotorRouter d2(n, agents, ptrs);
    // D2 holds agents at even nodes on rounds divisible by 3; D1 holds
    // those AND agents at node < n/2 on rounds divisible by 5.
    auto delay2 = [](NodeId v, std::uint64_t t, std::uint32_t present) {
      return (v % 2 == 0 && t % 3 == 0) ? present : 0u;
    };
    auto delay1 = [n, &delay2](NodeId v, std::uint64_t t, std::uint32_t present) {
      std::uint32_t d = delay2(v, t, present);
      if (v < n / 2 && t % 5 == 0) d = present;
      return d;
    };
    for (int t = 0; t < 150; ++t) {
      d1.step_delayed(delay1);
      d2.step_delayed(delay2);
      for (NodeId v = 0; v < n; ++v) {
        ASSERT_LE(d1.visits(v), d2.visits(v))
            << "trial " << trial << " t " << t << " v " << v;
      }
    }
  }
}

TEST(Delayed, Lemma1AddingAgentsNeverDecreasesVisits) {
  // R[k-1] is R[k] with one agent permanently stopped (Yanovski et al.):
  // visits under R[k-1] <= visits under R[k] for identical other starts.
  const NodeId n = 40;
  std::vector<NodeId> starts = {0, 7, 15, 22};
  auto ptrs = pointers_toward(n, 0);
  RingRotorRouter more(n, starts, ptrs);
  std::vector<NodeId> fewer_starts(starts.begin(), starts.end() - 1);
  RingRotorRouter fewer(n, fewer_starts, ptrs);
  for (int t = 0; t < 400; ++t) {
    more.step();
    fewer.step();
    for (NodeId v = 0; v < n; ++v) {
      if (v == starts.back()) continue;  // the extra agent's start differs
      ASSERT_LE(fewer.visits(v), more.visits(v)) << "t " << t << " v " << v;
    }
  }
}

TEST(Delayed, Lemma2SandwichOnVisitCounts) {
  // n^R[k]_v(tau) <= n^D_v(T) <= n^R[k]_v(T) where tau = fully-active rounds.
  const NodeId n = 36;
  const std::vector<NodeId> agents = {3, 18, 30};
  const auto ptrs = pointers_negative(n, agents);
  RingRotorRouter delayed(n, agents, ptrs);
  RingRotorRouter undelayed(n, agents, ptrs);

  // Delay pattern: hold everything at node 3 every 4th round.
  auto delay = [](NodeId v, std::uint64_t t, std::uint32_t present) {
    return (v == 3 && t % 4 == 0) ? present : 0u;
  };
  SlowdownTracker tracker;
  const std::uint64_t T = 300;
  for (std::uint64_t t = 0; t < T; ++t) tracker.step(delayed, delay);
  const std::uint64_t tau = tracker.active_rounds();
  ASSERT_LT(tau, T);

  RingRotorRouter at_tau(n, agents, ptrs);
  at_tau.run(tau);
  undelayed.run(T);
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_LE(at_tau.visits(v), delayed.visits(v)) << "v " << v;
    EXPECT_LE(delayed.visits(v), undelayed.visits(v)) << "v " << v;
  }
}

TEST(Delayed, Lemma3SlowdownBoundsCoverTime) {
  // tau <= C(R[k]) <= T for any delayed deployment that covers at T.
  const NodeId n = 48;
  const std::vector<NodeId> agents = {0, 0, 24};
  const auto ptrs = pointers_toward(n, 0);

  RingRotorRouter delayed(n, agents, ptrs);
  SlowdownTracker tracker;
  auto delay = [](NodeId v, std::uint64_t t, std::uint32_t present) {
    return (v % 3 == 0 && t % 2 == 0) ? present : 0u;
  };
  while (!delayed.all_covered()) {
    tracker.step(delayed, delay);
    ASSERT_LT(tracker.total_rounds(), 100000u) << "delayed deployment stuck";
  }
  const std::uint64_t T = tracker.total_rounds();
  const std::uint64_t tau = tracker.active_rounds();

  const std::uint64_t cover = sim::cover_time(*sim::create_engine(
      "ring", graph::GraphDescriptor::ring(n), agents, ptrs));
  EXPECT_GE(cover, tau);
  EXPECT_LE(cover, T);
}

TEST(Delayed, GeneralGraphLemma1Monotonicity) {
  // Same monotonicity on a non-ring topology via the general engine.
  graph::CsrGraph g = graph::torus(5, 5);
  const std::vector<graph::NodeId> agents = {0, 12};
  RotorRouter d1(g, agents);
  RotorRouter d2(g, agents);
  auto delay1 = [](graph::NodeId v, std::uint64_t, std::uint32_t present) {
    return v < 10 ? present : 0u;
  };
  for (int t = 0; t < 200; ++t) {
    d1.step_delayed(delay1);
    d2.step();
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_LE(d1.visits(v), d2.visits(v)) << "t " << t << " v " << v;
    }
  }
}

TEST(Delayed, SlowdownTrackerCountsActiveRounds) {
  RingRotorRouter rr(12, {0, 6});
  SlowdownTracker tracker;
  // Hold node 0's agents on rounds 1..5 only.
  auto delay = [](NodeId v, std::uint64_t t, std::uint32_t present) {
    return (v == 0 && t <= 5) ? present : 0u;
  };
  for (int t = 0; t < 10; ++t) tracker.step(rr, delay);
  EXPECT_EQ(tracker.total_rounds(), 10u);
  EXPECT_EQ(tracker.active_rounds(), 5u);  // rounds 6..10 were fully active
}

}  // namespace
}  // namespace rr::core
