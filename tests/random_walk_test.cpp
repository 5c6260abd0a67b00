// Tests for the parallel random-walk substrate (S9, S10): determinism,
// coverage, known expectations (cover time of the cycle = n(n-1)/2 for a
// single walker), and the Table 1 row-2 shapes at small scale.

#include "walk/random_walk.hpp"
#include "walk/ring_walk.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "sim/runner.hpp"
#include "analysis/stats.hpp"
#include "graph/generators.hpp"

namespace rr::walk {
namespace {

TEST(Rng, DeterministicStreams) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto x = a();
    EXPECT_EQ(x, b());
    (void)c();
  }
  EXPECT_NE(a(), c());
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.bounded(13), 13u);
  }
}

TEST(Rng, BoundedIsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> hist(8, 0);
  const int samples = 80000;
  for (int i = 0; i < samples; ++i) ++hist[rng.bounded(8)];
  for (int h : hist) {
    EXPECT_NEAR(h, samples / 8, samples / 80);  // within 10%
  }
}

TEST(Rng, Uniform01InUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RingWalks, DeterministicGivenSeed) {
  RingRandomWalks a(32, {0, 16}, 99);
  RingRandomWalks b(32, {0, 16}, 99);
  for (int t = 0; t < 500; ++t) {
    a.step();
    b.step();
    ASSERT_EQ(a.positions(), b.positions());
  }
}

TEST(RingWalks, WalkerStreamsAreIndependentOfFleetSize) {
  // Walker i's trajectory depends only on (seed, i): adding more walkers
  // must not perturb it (keeps trials comparable across k).
  RingRandomWalks solo(64, {10}, 321);
  RingRandomWalks fleet(64, {10, 20, 30, 40}, 321);
  for (int t = 0; t < 400; ++t) {
    solo.step();
    fleet.step();
    ASSERT_EQ(solo.position(0), fleet.position(0)) << "t " << t;
  }
}

TEST(RingWalks, WalkersMoveOneStepPerRound) {
  RingRandomWalks w(32, {10}, 5);
  for (int t = 0; t < 100; ++t) {
    const NodeId before = w.position(0);
    w.step();
    const NodeId after = w.position(0);
    const NodeId diff = (after + 32 - before) % 32;
    ASSERT_TRUE(diff == 1 || diff == 31) << "teleport at t=" << t;
  }
}

TEST(RingWalks, SingleWalkerCoverTimeMatchesTheory) {
  // E[cover] of the n-cycle for one walker is exactly n(n-1)/2.
  const NodeId n = 24;
  const double expected = n * (n - 1) / 2.0;
  auto stats = rr::sim::Runner().stats(400, [&](std::uint64_t i) {
    RingRandomWalks w(n, {0}, 1000 + i);
    return static_cast<double>(w.run_until_covered(~0ULL / 2));
  });
  EXPECT_NEAR(stats.mean(), expected, 4 * stats.ci95() + 0.05 * expected);
}

TEST(RingWalks, CoverageMonotoneAndComplete) {
  RingRandomWalks w(64, {0, 21, 42}, 17);
  NodeId prev = w.covered_count();
  const std::uint64_t cover = w.run_until_covered(1u << 22);
  ASSERT_NE(cover, kWalkNotCovered);
  EXPECT_TRUE(w.all_covered());
  EXPECT_GE(w.covered_count(), prev);
  for (NodeId v = 0; v < 64; ++v) EXPECT_TRUE(w.visited(v));
}

TEST(RingWalks, MoreWalkersCoverFaster) {
  const NodeId n = 128;
  rr::sim::Runner runner;
  auto mean_cover = [&](std::uint32_t k, std::uint64_t seed) {
    return runner.stats(60, [&, k, seed](std::uint64_t i) {
      std::vector<NodeId> starts(k);
      for (std::uint32_t j = 0; j < k; ++j) {
        starts[j] = static_cast<NodeId>(j * n / k);
      }
      RingRandomWalks w(n, starts, rr::sim::derive_seed(seed, i));
      return static_cast<double>(w.run_until_covered(~0ULL / 2));
    }).mean();
  };
  const double c1 = mean_cover(1, 100);
  const double c8 = mean_cover(8, 200);
  EXPECT_LT(c8, c1 / 4.0);  // equally spaced: near-quadratic speed-up
}

TEST(RingWalks, GapStatsMeanIsNOverK) {
  // Stationary: each of k walks visits a node every ~n rounds on average,
  // so the mean inter-visit gap is ~n/k.
  const NodeId n = 128;
  const std::uint32_t k = 8;
  const auto gaps = ring_walk_gap_stats(n, k, 3, 4 * n, 4000 * n / k);
  EXPECT_NEAR(gaps.mean_gap, static_cast<double>(n) / k,
              0.25 * static_cast<double>(n) / k);
  // The paper notes the gap has high variance: max greatly exceeds mean.
  EXPECT_GT(gaps.max_gap, 3.0 * gaps.mean_gap);
}

TEST(GraphWalks, DeterministicAndComplete) {
  graph::Graph g = graph::grid(6, 6);
  GraphRandomWalks a(g, {0, 35}, 55);
  GraphRandomWalks b(g, {0, 35}, 55);
  const auto ca = a.run_until_covered(1u << 22);
  const auto cb = b.run_until_covered(1u << 22);
  EXPECT_EQ(ca, cb);
  ASSERT_NE(ca, kGraphWalkNotCovered);
  EXPECT_TRUE(a.all_covered());
}

TEST(GraphWalks, RingSpecializationAgreesWithGeneralEngine) {
  // Statistical agreement: mean cover times of both engines on the same
  // ring should match within CI.
  const graph::NodeId n = 48;
  graph::Graph g = graph::ring(n);
  rr::sim::Runner runner;
  auto general = runner.stats(150, [&](std::uint64_t i) {
    GraphRandomWalks w(g, {0, n / 2}, 900 + i);
    return static_cast<double>(w.run_until_covered(~0ULL / 2));
  });
  auto fast = runner.stats(150, [&](std::uint64_t i) {
    RingRandomWalks w(n, {0, n / 2}, 5900 + i);
    return static_cast<double>(w.run_until_covered(~0ULL / 2));
  });
  EXPECT_NEAR(general.mean(), fast.mean(),
              3 * (general.ci95() + fast.ci95()));
}

TEST(GraphWalks, CliqueCoverIsCouponCollector) {
  // On K_n, cover time for one walker is ~ (n-1) H_{n-1} (coupon collector
  // over the other n-1 nodes).
  const graph::NodeId n = 16;
  graph::Graph g = graph::clique(n);
  auto stats = rr::sim::Runner().stats(300, [&](std::uint64_t i) {
    GraphRandomWalks w(g, {0}, 300 + i);
    return static_cast<double>(w.run_until_covered(~0ULL / 2));
  });
  const double expected = (n - 1) * rr::analysis::harmonic(n - 1);
  EXPECT_NEAR(stats.mean(), expected, 4 * stats.ci95() + 0.05 * expected);
}

TEST(CoverEstimate, ReportsSaneCI) {
  graph::Graph g = graph::ring(32);
  const auto est = estimate_walk_cover_time(g, {0}, 50, 7, ~0ULL / 2);
  EXPECT_EQ(est.trials, 50u);
  EXPECT_GT(est.mean, 31.0);
  EXPECT_GT(est.stddev, 0.0);
  EXPECT_GT(est.ci95, 0.0);
  EXPECT_LT(est.ci95, est.mean);
}

}  // namespace
}  // namespace rr::walk
