// Tests for the exact Markov-chain module, cross-validating closed forms,
// the linear-system solver, and the simulation engines against each other.

#include "walk/exact_chain.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "sim/runner.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "walk/random_walk.hpp"
#include "walk/ring_walk.hpp"

namespace rr::walk {
namespace {

TEST(ExactChain, RingHittingTimeClosedForm) {
  EXPECT_DOUBLE_EQ(ring_hitting_time(10, 0), 0.0);
  EXPECT_DOUBLE_EQ(ring_hitting_time(10, 5), 25.0);
  EXPECT_DOUBLE_EQ(ring_hitting_time(10, 3), 21.0);
  EXPECT_DOUBLE_EQ(ring_hitting_time(100, 50), 2500.0);
}

TEST(ExactChain, GamblersRuinFacts) {
  EXPECT_DOUBLE_EQ(gamblers_ruin_up_probability(3, 12), 0.25);
  EXPECT_DOUBLE_EQ(gamblers_ruin_up_probability(0, 5), 0.0);
  EXPECT_DOUBLE_EQ(gamblers_ruin_up_probability(5, 5), 1.0);
  EXPECT_DOUBLE_EQ(gamblers_ruin_exit_time(3, 12), 27.0);
  EXPECT_DOUBLE_EQ(gamblers_ruin_exit_time(6, 12), 36.0);
}

TEST(ExactChain, SolverMatchesRingClosedForm) {
  const graph::NodeId n = 24;
  graph::CsrGraph g = graph::ring(n);
  const auto h = expected_hitting_times(g, 0);
  for (graph::NodeId v = 0; v < n; ++v) {
    const std::uint32_t d = std::min(v, n - v);
    EXPECT_NEAR(h[v], ring_hitting_time(n, d), 1e-6) << "v " << v;
  }
}

TEST(ExactChain, SolverMatchesPathClosedForm) {
  // Classical: with target 0 and a reflecting right endpoint, the
  // difference recurrence d(v+1) = d(v) - 2, d(n-1) = 1 gives
  // h(v) = v * (2(n-1) - v) on the path 0..n-1.
  const graph::NodeId n = 16;
  graph::CsrGraph g = graph::path(n);
  const auto h = expected_hitting_times(g, 0);
  for (graph::NodeId v = 0; v < n; ++v) {
    const double expected = static_cast<double>(v) * (2.0 * (n - 1.0) - v);
    EXPECT_NEAR(h[v], expected, 1e-6) << "v " << v;
  }
}

TEST(ExactChain, SolverMatchesCliqueClosedForm) {
  // On K_n, hitting any fixed other node is geometric: E = n - 1.
  graph::CsrGraph g = graph::clique(9);
  const auto h = expected_hitting_times(g, 4);
  for (graph::NodeId v = 0; v < 9; ++v) {
    if (v == 4) {
      EXPECT_DOUBLE_EQ(h[v], 0.0);
    } else {
      EXPECT_NEAR(h[v], 8.0, 1e-6);
    }
  }
}

TEST(ExactChain, SolverMatchesSimulationOnTorus) {
  graph::CsrGraph g = graph::torus(4, 4);
  const graph::NodeId target = 10;
  const auto h = expected_hitting_times(g, target);
  // Simulate hitting time from node 0.
  auto stats = rr::sim::Runner().stats(4000, [&](std::uint64_t i) {
    Rng rng(911 + i);
    graph::NodeId pos = 0;
    std::uint64_t t = 0;
    while (pos != target) {
      pos = g.neighbor(pos, rng.bounded(g.degree(pos)));
      ++t;
    }
    return static_cast<double>(t);
  });
  EXPECT_NEAR(stats.mean(), h[0], 4 * stats.ci95());
}

TEST(ExactChain, StationaryDistributionIsDegreeProportional) {
  graph::CsrGraph g = graph::lollipop(12, 5);
  const auto pi = stationary_distribution(g);
  double total = 0.0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_NEAR(pi[v], static_cast<double>(g.degree(v)) / g.num_arcs(), 1e-12);
    total += pi[v];
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ExactChain, RingStationaryIsUniformAndReturnIsN) {
  const graph::NodeId n = 32;
  graph::CsrGraph g = graph::ring(n);
  const auto pi = stationary_distribution(g);
  for (graph::NodeId v = 0; v < n; ++v) {
    EXPECT_NEAR(pi[v], 1.0 / n, 1e-12);
  }
  // Sec. 4: expected time between visits of one walk = n; of k walks ~ n/k.
  EXPECT_DOUBLE_EQ(expected_return_time(g, 0), static_cast<double>(n));
}

TEST(ExactChain, ReturnTimeMatchesGapSimulation) {
  const graph::NodeId n = 64;
  const std::uint32_t k = 4;
  const auto gaps = ring_walk_gap_stats(n, k, 5, 8 * n, 20000ULL * n / k);
  EXPECT_NEAR(gaps.mean_gap, static_cast<double>(n) / k,
              0.15 * static_cast<double>(n) / k);
}

TEST(ExactChain, TvDistanceDecreasesWithTime) {
  graph::CsrGraph g = graph::ring(16);
  const double tv1 = tv_distance_after(g, 0, 8);
  const double tv2 = tv_distance_after(g, 0, 64);
  const double tv3 = tv_distance_after(g, 0, 512);
  EXPECT_GT(tv1, tv2);
  EXPECT_GT(tv2, tv3);
  EXPECT_LT(tv3, 0.05);  // mixed after ~n^2 steps
}

TEST(ExactChain, CliqueMixesAlmostInstantly) {
  graph::CsrGraph g = graph::clique(20);
  EXPECT_LT(tv_distance_after(g, 0, 8), 0.01);
}

TEST(ExactChain, NonLazyWalkOnRingNeverFullyMixes) {
  // Parity obstruction on even cycles: non-lazy TV stays bounded away
  // from 0 — the reason mixing statements use the lazy chain.
  graph::CsrGraph g = graph::ring(16);
  EXPECT_GT(tv_distance_after(g, 0, 1001, /*lazy=*/false), 0.4);
}

TEST(ExactChainDeath, RejectsBadArguments) {
  graph::CsrGraph g = graph::ring(8);
  EXPECT_DEATH(expected_hitting_times(g, 99), "target out of range");
  EXPECT_DEATH(ring_hitting_time(10, 11), "distance exceeds");
}

}  // namespace
}  // namespace rr::walk
