// Tests for the explicit Theorem 1 delayed deployment: it covers the path,
// its fully-active rounds (B1) sandwich the undelayed cover time via the
// slow-down lemma, and the desirable-configuration geometry matches the
// Lemma 13 profile.

#include "core/theorem1_deployment.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/initializers.hpp"
#include "graph/generators.hpp"

namespace rr::core {
namespace {

TEST(Theorem1, TargetPositionsAreOrderedAndSpanS) {
  Theorem1Deployment dep(2000, 8);
  const double S = 900.0;
  graph::NodeId prev = 2001;
  for (std::uint32_t i = 1; i <= 8; ++i) {
    const auto pos = dep.target_position(i, S);
    EXPECT_LT(pos, prev) << "targets must decrease with i";
    prev = pos;
  }
  // Agent 1 parks at ~S (p_1 = 1), agent k at ~a_k * S.
  EXPECT_NEAR(dep.target_position(1, S), S, 2.0);
  EXPECT_NEAR(dep.target_position(8, S), dep.sequence().a[8] * S, 2.0);
}

TEST(Theorem1, DeploymentCoversThePath) {
  Theorem1Deployment dep(600, 6);
  const auto result = dep.run();
  ASSERT_TRUE(result.covered);
  EXPECT_GT(result.phase_b_steps, 0u);
  EXPECT_EQ(result.total_rounds, result.phase_a_rounds +
                                     result.phase_b1_rounds +
                                     result.phase_b2_rounds);
}

TEST(Theorem1, SlowdownLemmaSandwich) {
  // tau = B1 rounds (all agents active) <= C(R[k]) <= T = total rounds.
  const graph::NodeId n = 600;
  const std::uint32_t k = 6;
  Theorem1Deployment dep(n, k);
  const auto result = dep.run();
  ASSERT_TRUE(result.covered);

  // Undelayed cover time of the same initialization (k agents at node 0 of
  // the path, pointers leftward).
  graph::CsrGraph p = graph::path(n);
  std::vector<std::uint32_t> left(n, 0);
  for (graph::NodeId v = 1; v + 1 < n; ++v) left[v] = 1;
  RotorRouter undelayed(p, std::vector<graph::NodeId>(k, 0), left);
  const std::uint64_t cover = undelayed.run_until_covered(64ULL * n * n);
  ASSERT_NE(cover, kNotCovered);

  EXPECT_LE(result.phase_b1_rounds, cover)
      << "slow-down lemma lower bound violated";
  EXPECT_GE(result.total_rounds, cover)
      << "slow-down lemma upper bound violated";
}

TEST(Theorem1, TotalTimeIsOrderNSquaredOverLogK) {
  // The construction certifies Theta(n^2/log k): its total time should be
  // within a constant band of n^2/log2(k) across a small sweep.
  std::vector<double> ratios;
  for (graph::NodeId n : {400u, 800u}) {
    Theorem1Deployment dep(n, 8);
    const auto result = dep.run();
    ASSERT_TRUE(result.covered) << "n " << n;
    const double pred = static_cast<double>(n) * n / std::log2(8.0);
    ratios.push_back(static_cast<double>(result.total_rounds) / pred);
  }
  EXPECT_NEAR(ratios[0], ratios[1], 0.5 * ratios[0])
      << "total time not scaling as n^2";
}

TEST(Theorem1, PhaseB1CarriesAConstantFractionOfTheWork) {
  // The proof needs B1 = Omega(total) so that Lemma 3 gives a Theta bound.
  Theorem1Deployment dep(800, 8);
  const auto result = dep.run();
  ASSERT_TRUE(result.covered);
  EXPECT_GT(static_cast<double>(result.phase_b1_rounds),
            0.05 * static_cast<double>(result.total_rounds));
}

TEST(Theorem1, LengthIncrementMatchesFormula) {
  Theorem1Deployment dep(1000, 8);
  const auto& seq = dep.sequence();
  const double expected =
      std::ceil(std::pow(8.0, 4.0) * seq.a[1] * seq.a[8]) + 12.0 * 8;
  EXPECT_DOUBLE_EQ(dep.length_increment(), expected);
  EXPECT_NEAR(dep.initial_length(),
              1000.0 / std::sqrt(8.0 * std::log2(8.0)), 1e-9);
}

TEST(Theorem1Death, RejectsSmallK) {
  EXPECT_DEATH(Theorem1Deployment(1000, 3), "k > 3");
}

TEST(Theorem1Death, RejectsTinyPath) {
  EXPECT_DEATH(Theorem1Deployment(64, 8), "k << n");
}

}  // namespace
}  // namespace rr::core
