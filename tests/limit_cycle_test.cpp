// Tests for limit-cycle detection, exact return times (Sec. 4) and the
// single-agent Eulerian lock-in substrate (Yanovski et al. / Bampas et al.).

#include <gtest/gtest.h>

#include "core/eulerian_rotor_router.hpp"
#include "core/initializers.hpp"
#include "core/rotor_router.hpp"
#include "graph/generators.hpp"
#include "sim/cycle_jump.hpp"
#include "sim/measure.hpp"

namespace rr::core {
namespace {

using sim::detect_confirmed_cycle;
using sim::exact_return_time;

std::unique_ptr<sim::Engine> ring(NodeId n, std::vector<NodeId> agents,
                                  const std::vector<std::uint8_t>& ptrs = {}) {
  return sim::create_engine("ring", graph::GraphDescriptor::ring(n),
                            std::move(agents), ptrs);
}

TEST(LimitCycle, SingleAgentOnRingHasPeriodDividingTwoN) {
  // A single agent stabilizes to the Eulerian cycle of the ring: period
  // divides 2n (the directed ring traversal visits each arc once).
  const NodeId n = 16;
  const auto cycle =
      detect_confirmed_cycle(*ring(n, {0}, pointers_toward(n, 0)), 1u << 20);
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ((2 * n) % cycle->period, 0u)
      << "period " << cycle->period << " does not divide 2n";
}

TEST(LimitCycle, MultiAgentSystemsStabilize) {
  for (std::uint32_t k : {2u, 3u, 5u}) {
    const auto cycle =
        detect_confirmed_cycle(*ring(24, place_equally_spaced(24, k)), 1u << 22);
    ASSERT_TRUE(cycle.has_value()) << "k " << k;
    EXPECT_GT(cycle->period, 0u);
  }
}

TEST(LimitCycle, DetectionRespectsMaxSteps) {
  EXPECT_FALSE(
      detect_confirmed_cycle(*ring(64, {0}, pointers_toward(64, 0)), 4)
          .has_value());
}

TEST(ExactReturnTime, SingleAgentGapIsTwoNMinusSomething) {
  // On the Eulerian limit cycle of a single agent, each node is visited
  // twice per 2n rounds (once per direction), so the worst gap is < 2n.
  const NodeId n = 12;
  const auto ret = exact_return_time(*ring(n, {0}), 1u << 20);
  ASSERT_TRUE(ret.has_value());
  EXPECT_LE(ret->max_gap, 2u * n);
  EXPECT_GE(ret->max_gap, n / 2u);
}

TEST(ExactReturnTime, MatchesTheorem6Scaling) {
  // Exact max gap ~ Theta(n/k) on small instances.
  const NodeId n = 60;
  for (std::uint32_t k : {2u, 3u, 6u}) {
    const auto ret = exact_return_time(*ring(n, place_equally_spaced(n, k)),
                                       1u << 22);
    ASSERT_TRUE(ret.has_value()) << "k " << k;
    const double expected = static_cast<double>(n) / k;
    EXPECT_GE(static_cast<double>(ret->max_gap), 0.5 * expected) << "k " << k;
    EXPECT_LE(static_cast<double>(ret->max_gap), 6.0 * expected) << "k " << k;
  }
}

TEST(ExactReturnTime, MinGapNeverExceedsMaxGap) {
  const auto ret = exact_return_time(*ring(30, place_equally_spaced(30, 3)),
                                     1u << 20);
  ASSERT_TRUE(ret.has_value());
  EXPECT_LE(ret->min_gap, ret->max_gap);
  EXPECT_GT(ret->min_gap, 0u);
}

class PeriodStructure : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PeriodStructure, EquallySpacedLimitPeriodIsTwoNOverK) {
  // Observed structural law (consistent with Thm 6's constant 2): for
  // k | n and equally spaced agents, the limit cycle has period exactly
  // 2n/k — each agent sweeps its (n/k)-domain once in each direction.
  const NodeId n = 120;
  const std::uint32_t k = GetParam();
  ASSERT_EQ(n % k, 0u);
  const auto cycle =
      detect_confirmed_cycle(*ring(n, place_equally_spaced(n, k)), 1ULL << 24);
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->period, 2ULL * n / k);
}

INSTANTIATE_TEST_SUITE_P(KDividesN, PeriodStructure,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 8u, 10u,
                                           12u, 15u));

TEST(LockIn, RingLockInWithinBound) {
  graph::Graph g = graph::ring(32);
  RotorRouter rotor(g, {0});
  const auto res = single_agent_lock_in(rotor);
  ASSERT_TRUE(res.locked_in);
  EXPECT_LE(res.lock_in_time, 2ULL * g.diameter() * g.num_edges() + 1);
}

TEST(LockIn, VariousTopologiesLockInWithinTwoDE) {
  for (const auto& g :
       {graph::grid(5, 5), graph::clique(7), graph::hypercube(4),
        graph::binary_tree(15), graph::star(9),
        graph::random_regular(20, 3, 5)}) {
    RotorRouter rotor(g, {0});
    const auto res = single_agent_lock_in(rotor);
    ASSERT_TRUE(res.locked_in);
    EXPECT_LE(res.lock_in_time, 2ULL * g.diameter() * g.num_edges() + 1)
        << "graph with " << g.num_nodes() << " nodes";
  }
}

TEST(LockIn, AdversarialPointersStillLockIn) {
  // Rotate ports adversarially; lock-in must still occur within the bound.
  graph::Graph g = graph::grid(4, 4);
  std::vector<std::uint32_t> ptrs(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    ptrs[v] = g.degree(v) - 1;
  }
  RotorRouter rotor(g, {5}, ptrs);
  const auto res = single_agent_lock_in(rotor);
  ASSERT_TRUE(res.locked_in);
  EXPECT_LE(res.lock_in_time, 2ULL * g.diameter() * g.num_edges() + 1);
}

TEST(LockIn, EulerianWindowTraversesEveryArcOnce) {
  // After lock-in, re-simulate and verify the window property directly:
  // the 2|E| rounds starting at lock_in_time traverse all arcs distinctly.
  graph::Graph g = graph::ring(10);
  RotorRouter rotor(g, {0});
  const auto res = single_agent_lock_in(rotor);
  ASSERT_TRUE(res.locked_in);

  std::vector<std::uint32_t> ptr(g.num_nodes(), 0);
  graph::NodeId pos = 0;
  std::vector<int> seen(g.num_arcs(), 0);
  std::vector<std::size_t> offset(g.num_nodes() + 1, 0);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    offset[v + 1] = offset[v] + g.degree(v);
  }
  for (std::uint64_t t = 1; t < res.lock_in_time + g.num_arcs(); ++t) {
    const std::uint32_t p = ptr[pos];
    const std::size_t arc = offset[pos] + p;
    if (t >= res.lock_in_time) ++seen[arc];
    const graph::NodeId nxt = g.neighbor(pos, p);
    ptr[pos] = (p + 1 == g.degree(pos)) ? 0 : p + 1;
    pos = nxt;
  }
  for (std::size_t a = 0; a < g.num_arcs(); ++a) {
    EXPECT_EQ(seen[a], 1) << "arc " << a;
  }
}

}  // namespace
}  // namespace rr::core
