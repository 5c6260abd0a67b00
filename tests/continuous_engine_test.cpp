// Tests for analysis::ContinuousDomainEngine: the Sec. 2.3 ODE as a
// sim::Engine backend. The model is a continuum approximation, so its
// gate is convergence against the discrete system — cover times within a
// few percent, covered-limit domain sizes flat and inside the discrete
// Lemma-12 ripple, sqrt(t) exploration growth — plus the exact backend
// contracts every engine owes: bit-exact checkpoint resume, deterministic
// delayed stepping, total (never-aborting) state parsing.

#include "analysis/continuous_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "differential.hpp"
#include "core/domains.hpp"
#include "core/initializers.hpp"
#include "core/ring_rotor_router.hpp"
#include "sim/checkpoint.hpp"
#include "sim/ckpt_v2.hpp"
#include "sim/measure.hpp"
#include "state_patch.hpp"

namespace rr::analysis {
namespace {

using core::NodeId;

TEST(ContinuousEngine, CoverTimeMatchesDiscreteEquallySpaced) {
  // Equally spaced agents with negative pointers: the discrete system
  // covers in ~(n/k)^2/2 rounds and the continuum model must land within
  // a few percent (bench_continuous_model's part-3 comparison, now a
  // gate). This is the round <-> dt calibration check.
  const NodeId n = 2048;
  for (std::uint32_t k : {4u, 8u, 16u}) {
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    const auto agents = core::place_equally_spaced(n, k);
    const auto discrete = sim::cover_time(
        *sim::create_engine("ring", graph::GraphDescriptor::ring(n), agents,
                            core::pointers_negative(n, agents)));
    ASSERT_NE(discrete, core::kRingNotCovered);

    ContinuousDomainEngine ode(n, agents);
    const auto continuous = ode.run_until_covered(8ULL * n * n);
    ASSERT_NE(continuous, sim::kNotCovered);
    EXPECT_TRUE(ode.cyclic());
    const double ratio = static_cast<double>(discrete) /
                         static_cast<double>(continuous);
    EXPECT_NEAR(ratio, 1.0, 0.05) << "discrete " << discrete
                                  << " continuous " << continuous;
  }
}

TEST(ContinuousEngine, CoveredLimitDomainsMatchDiscreteWithinRipple) {
  // Uneven starts, run far past coverage: the ODE relaxes to the flat
  // profile and the discrete system keeps an O(1) ripple around it
  // (Lemma 12's <= 10) — so sorted domain sizes agree within that
  // tolerance (the bound bench_continuous_model asserts).
  const NodeId n = 512;
  const std::uint32_t k = 8;
  const std::vector<NodeId> agents{3, 19, 60, 150, 170, 300, 420, 500};
  const std::uint64_t relax = 8ULL * n * n / k;

  core::RingRotorRouter discrete(n, agents,
                                 core::pointers_negative(n, agents));
  ASSERT_NE(discrete.run_until_covered(8ULL * n * n), core::kRingNotCovered);
  discrete.run(relax);
  const auto snap = core::compute_domains(discrete);
  ASSERT_EQ(snap.domains.size(), k);

  ContinuousDomainEngine ode(n, agents);
  ASSERT_NE(ode.run_until_covered(8ULL * n * n), sim::kNotCovered);
  ode.run(relax);
  ASSERT_TRUE(ode.cyclic());

  std::vector<double> ode_sizes = ode.sizes();
  std::sort(ode_sizes.begin(), ode_sizes.end());
  std::vector<double> discrete_sizes;
  for (const auto& d : snap.domains) {
    discrete_sizes.push_back(static_cast<double>(d.size));
  }
  std::sort(discrete_sizes.begin(), discrete_sizes.end());

  // Continuum limit: exactly flat at n/k. Discrete: within the ripple.
  EXPECT_NEAR(ode_sizes.front(), ode_sizes.back(), 1.0);
  EXPECT_NEAR(ode.total(), static_cast<double>(n), 1.0);
  for (std::uint32_t i = 0; i < k; ++i) {
    EXPECT_NEAR(discrete_sizes[i], ode_sizes[i], 10.0) << "domain " << i;
  }
}

TEST(ContinuousEngine, ExplorationGrowsLikeSqrtT) {
  // All k agents on one node (the paper's Fig. 2 setting): the covered
  // region grows ~ sqrt(t), i.e. quadrupling t doubles the coverage.
  const NodeId n = 1 << 14;
  ContinuousDomainEngine ode(n, std::vector<sim::NodeId>(8, 0));
  ode.run(512);
  const double at512 = ode.covered_count();
  ode.run(2048 - 512);
  const double at2048 = ode.covered_count();
  ode.run(8192 - 2048);
  const double at8192 = ode.covered_count();
  EXPECT_LT(at8192, 0.75 * n);  // still exploring: the regime is valid
  EXPECT_NEAR(at2048 / at512, 2.0, 0.25);
  EXPECT_NEAR(at8192 / at2048, 2.0, 0.25);
}

TEST(ContinuousEngine, ObserversAreConsistent) {
  const NodeId n = 256;
  ContinuousDomainEngine ode(n, {0, 64, 128, 192});
  EXPECT_EQ(ode.covered_count(), 4u);  // the four agent nodes
  EXPECT_EQ(ode.visits(0), 1u);
  EXPECT_EQ(ode.first_visit_time(0), 0u);
  EXPECT_EQ(ode.visits(1), 0u);
  EXPECT_EQ(ode.first_visit_time(1), sim::kNotCovered);

  std::uint64_t covered_before = ode.covered_count();
  std::vector<std::uint64_t> visits_before(n);
  for (NodeId v = 0; v < n; ++v) visits_before[v] = ode.visits(v);
  ode.run(1000);
  EXPECT_GE(ode.covered_count(), covered_before);
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_GE(ode.visits(v), visits_before[v]) << "v=" << v;
    if (ode.first_visit_time(v) != sim::kNotCovered) {
      EXPECT_LE(ode.first_visit_time(v), ode.time());
      EXPECT_GE(ode.visits(v), 1u);
    } else {
      EXPECT_EQ(ode.visits(v), 0u);
    }
  }
  // Visits are conserved work: k agents perform one visit per round, so
  // total visits ~ k * t (the integral's discretization wobbles by O(k)
  // per domain, and each uncovered frontier crossing defers a fraction).
  std::uint64_t total_visits = 0;
  for (NodeId v = 0; v < n; ++v) total_visits += ode.visits(v);
  const double expected = 4.0 * 1000 + 4.0;
  EXPECT_NEAR(static_cast<double>(total_visits), expected, 0.1 * expected);
}

TEST(ContinuousEngine, CheckpointRestartContinuesBitExactly) {
  // RK4 is deterministic, state doubles round-trip as bit patterns: a
  // resumed trajectory is indistinguishable, per-round, from an
  // uninterrupted one — the same save->load->continue lane every
  // discrete backend passes.
  Rng rng(0x0DE1ULL);
  for (int trial = 0; trial < 6; ++trial) {
    const NodeId n = 64 + rng.bounded(512);
    const std::uint32_t k = 1 + rng.bounded(8);
    std::vector<sim::NodeId> agents(k);
    for (auto& a : agents) a = rng.bounded(n);
    const std::uint64_t rounds = 64 + rng.bounded(512);
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " n " << n
                                      << " k " << k);
    const testing::RingScenario delays{
        .delay_kind = static_cast<int>(rng.bounded(4)), .delay_seed = rng()};
    ContinuousDomainEngine ref(n, agents);
    const auto m = testing::run_lockstep_with_restart(
        ref, std::make_unique<ContinuousDomainEngine>(n, agents),
        "ring " + std::to_string(n), rounds,
        rng.bounded(static_cast<std::uint32_t>(rounds)), delays.delay());
    ASSERT_TRUE(m.ok) << "round " << m.round << ": " << m.detail;
  }
}

TEST(ContinuousEngine, HeldDomainsFreeze) {
  // A schedule holding every agent freezes the whole model: no growth,
  // no visits, no coverage — Lemma 1's "holding never helps" analogue.
  const NodeId n = 128;
  ContinuousDomainEngine ode(n, {0, 64});
  ode.run(100);
  const auto hash = ode.config_hash();
  const auto covered = ode.covered_count();
  const sim::DelayFn hold_all = [](sim::NodeId, std::uint64_t,
                                   std::uint32_t present) { return present; };
  for (int i = 0; i < 50; ++i) ode.step_delayed(hold_all);
  EXPECT_EQ(ode.config_hash(), hash);
  EXPECT_EQ(ode.covered_count(), covered);
  EXPECT_EQ(ode.time(), 150u);
  // Releasing resumes growth.
  ode.run(200);
  EXPECT_GT(ode.covered_count(), covered);
}

TEST(ContinuousEngine, DeserializeRejectsHostileState) {
  const NodeId n = 64;
  ContinuousDomainEngine ode(n, {0, 32});
  ode.run(50);
  sim::StateWriter good;
  ode.serialize_state(good);
  // Each state reaches a fresh engine through the v2 codec, as a resumed
  // checkpoint would.
  const auto restores = [&](const sim::StateWriter& state) {
    ContinuousDomainEngine fresh(n, {0, 32});
    const auto reader = sim::round_trip_v2(state, n);
    return reader.has_value() && fresh.deserialize_state(*reader);
  };
  ASSERT_TRUE(restores(good));

  // NaN / inverted / absurd geometry must be rejected, never abort and
  // never hang the crossing loops.
  const std::uint64_t nan_bits = 0x7FF8000000000000ULL;
  const std::uint64_t huge_bits = 0x7FE0000000000000ULL;  // ~8.9e307
  for (const char* field : {"edge_left_bits", "edge_right_bits",
                            "gap_bits", "integral_bits"}) {
    EXPECT_FALSE(restores(testing::patched_state(good, field, nan_bits)))
        << field << " nan";
    EXPECT_FALSE(restores(testing::patched_state(good, field, huge_bits)))
        << field << " huge";
  }

  // A crafted time field must not widen the coordinate sanity bound past
  // what the float->int64 crossing casts can represent: u64-max time
  // plus a ~1e19 edge has to be rejected, not stepped.
  const std::uint64_t e19_bits = 0x43E158E460913D00ULL;  // 1e19
  EXPECT_FALSE(restores(testing::patched_state(
      testing::patched_state(good, "time", ~std::uint64_t{0}),
      "edge_right_bits", e19_bits)));
}

}  // namespace
}  // namespace rr::analysis
