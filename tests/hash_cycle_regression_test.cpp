// Regression tests pinning sim::detect_confirmed_cycle to analytically
// known ring periods. Its candidates come from Brent's algorithm over
// config_hash values alone (a full state compare only confirms them), so
// these tests are the tripwire that keeps config_hash changes (mixing,
// field order, a forgotten field) from silently breaking cycle detection
// across every engine.

#include "sim/cycle_jump.hpp"

#include <gtest/gtest.h>

#include "core/initializers.hpp"
#include "core/lazy_ring_rotor_router.hpp"
#include "core/ring_rotor_router.hpp"
#include "core/rotor_router.hpp"
#include "graph/generators.hpp"

namespace rr::sim {
namespace {

using core::NodeId;

TEST(HashCycleRegression, SingleAgentPeriodIsExactlyTwoN) {
  // One agent with uniform pointers locks in immediately: n propagations
  // clockwise, n back — the Eulerian circuit of the ring. Period exactly
  // 2n (position recurs every n rounds, but with the pointer field
  // inverted, so no smaller period exists).
  for (NodeId n : {8u, 16u, 37u, 128u}) {
    SCOPED_TRACE(::testing::Message() << "n " << n);
    core::RingRotorRouter ring(n, {0});
    const auto ring_cycle = detect_confirmed_cycle(ring, 1u << 16);
    ASSERT_TRUE(ring_cycle.has_value());
    EXPECT_EQ(ring_cycle->period, 2ULL * n);

    core::LazyRingRotorRouter lazy(n, {0});
    const auto lazy_cycle = detect_confirmed_cycle(lazy, 1u << 16);
    ASSERT_TRUE(lazy_cycle.has_value());
    EXPECT_EQ(lazy_cycle->period, 2ULL * n);

    graph::Graph g = graph::ring(n);
    core::RotorRouter general(g, {0});
    const auto general_cycle = detect_confirmed_cycle(general, 1u << 16);
    ASSERT_TRUE(general_cycle.has_value());
    EXPECT_EQ(general_cycle->period, 2ULL * n);
  }
}

TEST(HashCycleRegression, EquallySpacedMultiAgentPeriodIsTwoNOverK) {
  // The multi-agent fixture (cf. the exact-detector PeriodStructure test):
  // k | n equally spaced agents with uniform pointers partition the ring
  // into k balanced domains, each swept once per direction: period 2n/k.
  const NodeId n = 120;
  for (std::uint32_t k : {2u, 3u, 5u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "k " << k);
    ASSERT_EQ(n % k, 0u);
    core::RingRotorRouter ring(n, core::place_equally_spaced(n, k));
    const auto ring_cycle = detect_confirmed_cycle(ring, 1u << 20);
    ASSERT_TRUE(ring_cycle.has_value());
    EXPECT_EQ(ring_cycle->period, 2ULL * n / k);

    // The lazy engine in both phases: it stays dense on these crowded
    // rings (k >= 3), so the sparse twin is forced.
    for (const bool force : {false, true}) {
      SCOPED_TRACE(force ? "sparse" : "as built");
      core::LazyRingRotorRouter lazy(n, core::place_equally_spaced(n, k));
      if (force) {
        ASSERT_TRUE(lazy.try_promote(/*force=*/true));
      }
      const auto lazy_cycle = detect_confirmed_cycle(lazy, 1u << 20);
      ASSERT_TRUE(lazy_cycle.has_value());
      EXPECT_EQ(lazy_cycle->period, 2ULL * n / k);
    }
  }
}

TEST(HashCycleRegression, DetectorLeavesEngineInsideTheCycle) {
  // at_time is the engine's own clock, and stepping a full period from
  // the detection point must reproduce the hash — this is what downstream
  // return-time analyses rely on.
  core::RingRotorRouter ring(64, core::place_equally_spaced(64, 4));
  const auto cycle = detect_confirmed_cycle(ring, 1u << 20);
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->at_time, ring.time());
  const std::uint64_t h = ring.config_hash();
  ring.run(cycle->period);
  EXPECT_EQ(ring.config_hash(), h);
}

}  // namespace
}  // namespace rr::sim
