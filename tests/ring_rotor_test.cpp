// Unit tests for the ring-specialized engine (S4), including lockstep
// equivalence with the general engine on graph::ring(n).

#include "core/ring_rotor_router.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/rotor_router.hpp"
#include "graph/generators.hpp"

namespace rr::core {
namespace {

TEST(RingRotor, SingleAgentWalksClockwiseWithUniformPointers) {
  RingRotorRouter rr(8, {0});  // all pointers clockwise by default
  rr.step();
  EXPECT_EQ(rr.agents_at(1), 1u);
  rr.step();
  EXPECT_EQ(rr.agents_at(2), 1u);
  EXPECT_EQ(rr.pointer(0), kAnticlockwise);  // advanced after departure
  EXPECT_EQ(rr.pointer(1), kAnticlockwise);
}

TEST(RingRotor, BounceOnAnticlockwisePointer) {
  std::vector<std::uint8_t> ptrs(8, kClockwise);
  ptrs[1] = kAnticlockwise;
  RingRotorRouter rr(8, {0}, ptrs);
  rr.step();  // 0 -> 1
  rr.step();  // 1 -> 0 (pointer at 1 was acw)
  EXPECT_EQ(rr.agents_at(0), 1u);
  EXPECT_EQ(rr.pointer(1), kClockwise);
}

TEST(RingRotor, TwoAgentsAtOneNodeSplit) {
  RingRotorRouter rr(8, {4, 4});
  rr.step();
  // One leaves via the pointer (cw), the other via the opposite port.
  EXPECT_EQ(rr.agents_at(5), 1u);
  EXPECT_EQ(rr.agents_at(3), 1u);
  EXPECT_EQ(rr.pointer(4), kClockwise);  // advanced twice = unchanged
}

TEST(RingRotor, ThreeAgentsSplitCeilFloor) {
  RingRotorRouter rr(8, {4, 4, 4});
  rr.step();
  // ceil(3/2)=2 via pointer (cw), 1 the other way.
  EXPECT_EQ(rr.agents_at(5), 2u);
  EXPECT_EQ(rr.agents_at(3), 1u);
  EXPECT_EQ(rr.pointer(4), kAnticlockwise);  // advanced 3 times
}

TEST(RingRotor, ConservationUnderManyAgents) {
  RingRotorRouter rr(16, {0, 0, 0, 0, 0, 0, 0, 0, 0});
  for (int t = 0; t < 300; ++t) {
    rr.step();
    std::uint32_t total = 0;
    for (NodeId v = 0; v < 16; ++v) total += rr.agents_at(v);
    ASSERT_EQ(total, 9u);
  }
}

TEST(RingRotor, Lemma5AtMostTwoAgentsPerNodeIsPreserved) {
  // Lemma 5: once every node hosts <= 2 agents, that stays true forever.
  RingRotorRouter rr(12, {0, 0, 3, 3, 7, 9});
  bool reached = false;
  for (int t = 0; t < 500; ++t) {
    bool at_most_two = true;
    for (NodeId v = 0; v < 12; ++v) {
      if (rr.agents_at(v) > 2) at_most_two = false;
    }
    if (reached) {
      ASSERT_TRUE(at_most_two) << "Lemma 5 violated at round " << t;
    } else if (at_most_two) {
      reached = true;
    }
    rr.step();
  }
  EXPECT_TRUE(reached);
}

TEST(RingRotor, CoverTimeSingleAgentNegativePointersIsQuadratic) {
  // With pointers pointing back toward the start everywhere, the agent
  // oscillates, extending its reach by one node per traversal: Theta(n^2).
  const NodeId n = 64;
  std::vector<std::uint8_t> ptrs(n);
  for (NodeId v = 0; v < n; ++v) {
    // Shortest path toward node 0.
    ptrs[v] = (v <= n / 2) ? kAnticlockwise : kClockwise;
  }
  RingRotorRouter rr(n, {0}, ptrs);
  const std::uint64_t cover = rr.run_until_covered(10ULL * n * n);
  ASSERT_NE(cover, kRingNotCovered);
  EXPECT_GE(cover, static_cast<std::uint64_t>(n) * n / 8);
  EXPECT_LE(cover, 3ULL * n * n);
}

TEST(RingRotor, EquivalenceWithGeneralEngineRandomConfigs) {
  // The ring engine must replicate the general engine exactly: positions,
  // pointers, visits, exits, coverage, at every round.
  Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    const NodeId n = 5 + rng.bounded(30);
    const std::uint32_t k = 1 + rng.bounded(8);
    std::vector<NodeId> agents(k);
    for (auto& a : agents) a = rng.bounded(n);
    std::vector<std::uint8_t> ptr8(n);
    std::vector<std::uint32_t> ptr32(n);
    for (NodeId v = 0; v < n; ++v) {
      ptr8[v] = static_cast<std::uint8_t>(rng.bounded(2));
      ptr32[v] = ptr8[v];
    }
    RingRotorRouter fast(n, agents, ptr8);
    graph::CsrGraph g = graph::ring(n);
    RotorRouter ref(g, agents, ptr32);
    for (int t = 0; t < 200; ++t) {
      fast.step();
      ref.step();
      for (NodeId v = 0; v < n; ++v) {
        ASSERT_EQ(fast.agents_at(v), ref.agents_at(v))
            << "trial " << trial << " t " << t << " v " << v;
        ASSERT_EQ(fast.pointer(v), ref.pointer(v))
            << "trial " << trial << " t " << t << " v " << v;
        ASSERT_EQ(fast.visits(v), ref.visits(v));
        ASSERT_EQ(fast.exits(v), ref.exits(v));
      }
      ASSERT_EQ(fast.covered_count(), ref.covered_count());
    }
  }
}

TEST(RingRotor, VisitClassificationPropagationAndReflection) {
  // Agent walking through a node with a clockwise pointer continues
  // clockwise: a propagation. A node with an anticlockwise pointer sends a
  // clockwise-travelling agent back: a reflection.
  std::vector<std::uint8_t> ptrs(10, kClockwise);
  ptrs[3] = kAnticlockwise;
  RingRotorRouter rr(10, {0}, ptrs);
  rr.run(3);  // agent now at 3 (arrived travelling cw)
  EXPECT_EQ(rr.agents_at(3), 1u);
  rr.step();  // departs anticlockwise: reflection
  EXPECT_EQ(rr.agents_at(2), 1u);
  EXPECT_FALSE(rr.last_visit_single_propagation(3));
  // Nodes 1 and 2 were passed through: propagations.
  EXPECT_TRUE(rr.last_visit_single_propagation(1));
  rr.step();  // 2 -> 1? node 2's pointer advanced to acw after first pass
  EXPECT_TRUE(rr.last_visit_single_propagation(2) ||
              rr.agents_at(1) + rr.agents_at(3) == 1u);
}

TEST(RingRotor, DelayedStepHoldsAgents) {
  RingRotorRouter rr(8, {2, 6});
  rr.step_delayed([](NodeId v, std::uint64_t, std::uint32_t present) {
    return v == 2 ? present : 0u;
  });
  EXPECT_EQ(rr.agents_at(2), 1u);  // held
  EXPECT_EQ(rr.agents_at(7), 1u);  // 6 moved cw
  EXPECT_EQ(rr.pointer(2), kClockwise);  // pointer not advanced when held
}

TEST(RingRotor, RunUntilCoveredReportsExactRound) {
  RingRotorRouter rr(8, {0});
  const std::uint64_t cover = rr.run_until_covered(1000);
  ASSERT_NE(cover, kRingNotCovered);
  EXPECT_EQ(cover, 7u);  // uniform cw pointers: straight walk
  // Covering again is free.
  EXPECT_EQ(rr.run_until_covered(1000), 0u);
}

TEST(RingRotor, ConfigHashDetectsPointerDifferences) {
  RingRotorRouter a(8, {0});
  std::vector<std::uint8_t> ptrs(8, kClockwise);
  ptrs[5] = kAnticlockwise;
  RingRotorRouter b(8, {0}, ptrs);
  EXPECT_NE(a.config_hash(), b.config_hash());
}

TEST(RingRotor, OccupiedListStaysCompactUnderDelayedDeployment) {
  // Regression: occupied-list entries for vacated nodes must be dropped
  // each round; otherwise long delayed runs degrade to O(n) per round.
  RingRotorRouter rr(64, {0, 0, 32});
  for (int t = 0; t < 2000; ++t) {
    rr.step_delayed([](NodeId v, std::uint64_t time, std::uint32_t) {
      return (v + time) % 2 == 0 ? ~0u : 0u;
    });
    NodeId hosting = 0;
    for (NodeId v = 0; v < 64; ++v) {
      if (rr.agents_at(v) > 0) ++hosting;
    }
    ASSERT_EQ(rr.occupied_count(), hosting) << "t " << t;
    ASSERT_LE(rr.occupied_count(), 3u) << "t " << t;
  }
}

TEST(RingRotorDeath, RejectsBadPointerValue) {
  std::vector<std::uint8_t> ptrs(8, 3);
  EXPECT_DEATH(RingRotorRouter(8, {0}, ptrs), "pointer must be 0");
}

TEST(RingRotorDeath, RejectsAgentOutOfRange) {
  EXPECT_DEATH(RingRotorRouter(8, {9}), "out of range");
}

}  // namespace
}  // namespace rr::core
