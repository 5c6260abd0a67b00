// Cross-engine differential tests: the harness of differential.hpp pins the
// lazy domain-dynamics ring engine to the dense ring engine and the dense
// ring engine to the general CSR engine on graph::ring(n), over randomized
// configurations that include adversarial delayed schedules. This suite is
// the acceptance gate for ring backends: per-round config_hash / visits /
// coverage equality over >= 1000 randomized configurations.

#include "differential.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/lazy_ring_rotor_router.hpp"
#include "core/ring_rotor_router.hpp"
#include "core/rotor_router.hpp"
#include "graph/descriptor.hpp"
#include "graph/generators.hpp"
#include "walk/random_walk.hpp"

namespace rr::testing {
namespace {

TEST(Differential, LazyVsDenseRingOverThousandRandomConfigs) {
  Rng rng(0xD1FFE12ULL);
  int lazy_from_start = 0;
  for (int config = 0; config < 1100; ++config) {
    const RingScenario sc = RingScenario::random(rng);
    SCOPED_TRACE(sc.describe());
    core::LazyRingRotorRouter lazy(sc.n, sc.agents, sc.pointers);
    core::RingRotorRouter dense(sc.n, sc.agents, sc.pointers);
    // These rings (n <= 96) are mostly too crowded to promote on their own
    // (leaps_pay()), so every fourth scenario is forced onto the sparse
    // representation from round 0.
    if (config % 4 == 0) lazy.try_promote(/*force=*/true);
    if (lazy.lazy()) ++lazy_from_start;
    const Mismatch m = run_lockstep_delayed(dense, lazy, sc.rounds, sc.delay());
    ASSERT_TRUE(m.ok) << "round " << m.round << ": " << m.detail;
  }
  // The sweep must exercise the lazy representation itself, not just the
  // dense fallback.
  EXPECT_GT(lazy_from_start, 100);
}

TEST(Differential, ThreeWayLazyDenseGeneralOnRing) {
  Rng rng(0x3A3ULL);
  for (int config = 0; config < 200; ++config) {
    const RingScenario sc = RingScenario::random(rng);
    SCOPED_TRACE(sc.describe());
    core::LazyRingRotorRouter lazy(sc.n, sc.agents, sc.pointers);
    // Few of these crowded rings promote on their own: force every other
    // lazy engine onto the sparse representation.
    if (config % 2 == 0) {
      ASSERT_TRUE(lazy.try_promote(/*force=*/true));
    }
    core::RingRotorRouter dense(sc.n, sc.agents, sc.pointers);
    graph::CsrGraph g = graph::ring(sc.n);
    core::RotorRouter general(g, sc.agents, sc.pointers32());
    const Mismatch m = run_lockstep_delayed({&dense, &lazy, &general},
                                            sc.rounds, sc.delay());
    ASSERT_TRUE(m.ok) << "round " << m.round << ": " << m.detail;
  }
}

TEST(Differential, ForcedPromotionIsExactMidTransient) {
  // The lazy representation must be exact no matter when the switch
  // happens: force-promote at a random round of the transient (including
  // many-agents-per-node pile-up states) and stay in lockstep.
  Rng rng(0xF0CE);
  for (int config = 0; config < 150; ++config) {
    RingScenario sc = RingScenario::random(rng);
    sc.delay_kind = static_cast<int>(rng.bounded(4));
    SCOPED_TRACE(sc.describe());
    core::LazyRingRotorRouter lazy(sc.n, sc.agents, sc.pointers);
    core::RingRotorRouter dense(sc.n, sc.agents, sc.pointers);
    const sim::DelayFn delay = sc.delay();
    const std::uint64_t warmup = rng.bounded(static_cast<std::uint32_t>(sc.rounds));
    const Mismatch before = run_lockstep_delayed(dense, lazy, warmup, delay);
    ASSERT_TRUE(before.ok) << "round " << before.round << ": " << before.detail;
    ASSERT_TRUE(lazy.try_promote(/*force=*/true));
    const Mismatch after =
        run_lockstep_delayed(dense, lazy, sc.rounds - warmup, delay);
    ASSERT_TRUE(after.ok) << "round " << after.round << ": " << after.detail;
  }
}

TEST(Differential, FastForwardRunMatchesSteppedDense) {
  // run() takes the ballistic leap path; the stepped dense engine is the
  // oracle. Checkpoint at random offsets, including mid-coverage ones.
  Rng rng(0xFA57);
  for (int trial = 0; trial < 25; ++trial) {
    const NodeId n = 256 + rng.bounded(3840);
    const std::uint32_t k = 1 + rng.bounded(24);
    std::vector<NodeId> agents(k);
    for (auto& a : agents) a = rng.bounded(n);
    std::vector<std::uint8_t> ptrs;
    if (trial % 3 == 1) ptrs = core::pointers_toward(n, rng.bounded(n));
    if (trial % 3 == 2) ptrs = core::pointers_negative(n, agents);
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " n " << n
                                      << " k " << k);
    core::LazyRingRotorRouter lazy(n, agents, ptrs);
    core::RingRotorRouter dense(n, agents, ptrs);
    for (int segment = 0; segment < 5; ++segment) {
      const std::uint64_t rounds = 1 + rng.bounded(3 * n);
      lazy.run(rounds);
      dense.run(rounds);
      const Mismatch m = compare_engines(dense, lazy, /*deep=*/false);
      ASSERT_TRUE(m.ok) << "segment " << segment << " round " << m.round
                        << ": " << m.detail;
      // Spot-check per-node observers (full deep compare per segment is
      // O(n) too, but keep the failure surface per-node here).
      for (int probe = 0; probe < 32; ++probe) {
        const NodeId v = rng.bounded(n);
        ASSERT_EQ(dense.visits(v), lazy.visits(v)) << "v " << v;
        ASSERT_EQ(dense.first_visit_time(v), lazy.first_visit_time(v))
            << "v " << v;
        ASSERT_EQ(dense.agents_at(v), lazy.agents_at(v)) << "v " << v;
        ASSERT_EQ(dense.pointer(v), lazy.pointer(v)) << "v " << v;
      }
    }
  }
}

TEST(Differential, RunUntilCoveredLandsOnTheSameRound) {
  // The fast-forwarded run_until_covered must return the exact cover round
  // AND leave the engine standing on it, like the dense engine does.
  Rng rng(0xC0FE);
  for (int trial = 0; trial < 40; ++trial) {
    const NodeId n = 64 + rng.bounded(1984);
    const std::uint32_t k = 1 + rng.bounded(12);
    std::vector<NodeId> agents(k);
    for (auto& a : agents) a = rng.bounded(n);
    std::vector<std::uint8_t> ptrs;
    if (trial % 2 == 1) ptrs = core::pointers_negative(n, agents);
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " n " << n
                                      << " k " << k);
    core::LazyRingRotorRouter lazy(n, agents, ptrs);
    core::RingRotorRouter dense(n, agents, ptrs);
    const std::uint64_t cap = 64ULL * n * n;
    const std::uint64_t lazy_cover = lazy.run_until_covered(cap);
    const std::uint64_t dense_cover = dense.run_until_covered(cap);
    ASSERT_EQ(lazy_cover, dense_cover);
    ASSERT_NE(lazy_cover, sim::kNotCovered);
    const Mismatch m = compare_engines(dense, lazy, /*deep=*/false);
    ASSERT_TRUE(m.ok) << "round " << m.round << ": " << m.detail;
    EXPECT_EQ(lazy.time(), lazy_cover);
  }
}

// ---- save → load → continue (the checkpoint gate) ----

TEST(Differential, CheckpointRestartRingBackends) {
  // Every ring backend, checkpointed at a random mid-run round under an
  // adversarial delayed schedule, must continue bit-identically to the
  // uninterrupted reference.
  Rng rng(0xC4C2ULL);
  for (int config = 0; config < 120; ++config) {
    const RingScenario sc = RingScenario::random(rng);
    SCOPED_TRACE(sc.describe());
    const std::string descriptor = "ring " + std::to_string(sc.n);
    const std::uint64_t restart =
        rng.bounded(static_cast<std::uint32_t>(sc.rounds));
    {
      core::RingRotorRouter ref(sc.n, sc.agents, sc.pointers);
      const Mismatch m = run_lockstep_with_restart(
          ref,
          std::make_unique<core::RingRotorRouter>(sc.n, sc.agents, sc.pointers),
          descriptor, sc.rounds, restart, sc.delay());
      ASSERT_TRUE(m.ok) << "dense, round " << m.round << ": " << m.detail;
    }
    {
      core::RingRotorRouter ref(sc.n, sc.agents, sc.pointers);
      auto lazy = std::make_unique<core::LazyRingRotorRouter>(
          sc.n, sc.agents, sc.pointers);
      // Every other lazy engine checkpoints its sparse representation
      // (these crowded rings rarely promote on their own).
      if (config % 2 == 0) {
        ASSERT_TRUE(lazy->try_promote(/*force=*/true));
      }
      const Mismatch m = run_lockstep_with_restart(
          ref, std::move(lazy), descriptor, sc.rounds, restart, sc.delay());
      ASSERT_TRUE(m.ok) << "lazy, round " << m.round << ": " << m.detail;
    }
    {
      graph::CsrGraph g = graph::ring(sc.n);
      core::RingRotorRouter ref(sc.n, sc.agents, sc.pointers);
      const Mismatch m = run_lockstep_with_restart(
          ref, std::make_unique<core::RotorRouter>(g, sc.agents, sc.pointers32()),
          descriptor, sc.rounds, restart, sc.delay());
      ASSERT_TRUE(m.ok) << "general, round " << m.round << ": " << m.detail;
    }
  }
}

TEST(Differential, CheckpointRestartAfterForcedLazyPromotion) {
  // A checkpoint of the *promoted* sparse-run representation (forced
  // mid-transient, pile-ups included) must restore exactly.
  Rng rng(0xF0CE2ULL);
  for (int config = 0; config < 80; ++config) {
    const RingScenario sc = RingScenario::random(rng);
    SCOPED_TRACE(sc.describe());
    const sim::DelayFn delay = sc.delay();
    core::RingRotorRouter ref(sc.n, sc.agents, sc.pointers);
    auto lazy = std::make_unique<core::LazyRingRotorRouter>(sc.n, sc.agents,
                                                            sc.pointers);
    const std::uint64_t warmup =
        rng.bounded(static_cast<std::uint32_t>(sc.rounds));
    const Mismatch before = run_lockstep_delayed(ref, *lazy, warmup, delay);
    ASSERT_TRUE(before.ok) << "round " << before.round << ": " << before.detail;
    ASSERT_TRUE(lazy->try_promote(/*force=*/true));
    ASSERT_TRUE(lazy->lazy());
    const Mismatch after = run_lockstep_with_restart(
        ref, std::move(lazy), "ring " + std::to_string(sc.n),
        sc.rounds - warmup,
        rng.bounded(static_cast<std::uint32_t>(sc.rounds - warmup)), delay);
    ASSERT_TRUE(after.ok) << "round " << after.round << ": " << after.detail;
  }
}

TEST(Differential, CheckpointRestartGeneralGraphs) {
  // Torus / hypercube / random-regular rotor-routers: the uninterrupted
  // twin is the reference (both are deterministic and identically
  // initialized, so any divergence is the checkpoint's fault).
  Rng rng(0x70125ULL);
  const char* descriptors[] = {"torus 6 6", "torus 5 9", "grid 7 5",
                               "hypercube 5", "clique 9",
                               "random-regular 48 4 11"};
  for (const char* descriptor : descriptors) {
    for (int trial = 0; trial < 8; ++trial) {
      SCOPED_TRACE(::testing::Message() << descriptor << " trial " << trial);
      const auto g = graph::GraphDescriptor::parse(descriptor)->build();
      ASSERT_TRUE(g.has_value());
      const std::uint32_t k = 1 + rng.bounded(6);
      std::vector<NodeId> agents(k);
      for (auto& a : agents) a = rng.bounded(g->num_nodes());
      const std::uint64_t rounds = 24 + rng.bounded(3 * g->num_nodes());
      const std::uint64_t restart =
          rng.bounded(static_cast<std::uint32_t>(rounds));
      const RingScenario delays{.delay_kind = static_cast<int>(rng.bounded(4)),
                                .delay_seed = rng()};
      core::RotorRouter ref(*g, agents);
      const Mismatch m = run_lockstep_with_restart(
          ref, std::make_unique<core::RotorRouter>(*g, agents), descriptor,
          rounds, restart, delays.delay());
      ASSERT_TRUE(m.ok) << "round " << m.round << ": " << m.detail;
    }
  }
}

TEST(Differential, CheckpointRestartRandomWalks) {
  // The stochastic backend: restoring must also resume the RNG stream, so
  // the resumed engine keeps drawing the uninterrupted twin's randomness.
  Rng rng(0x3A1C5ULL);
  const char* descriptors[] = {"ring 40", "torus 6 6", "clique 12",
                               "erdos-renyi 36 0.2 5"};
  for (const char* descriptor : descriptors) {
    for (int trial = 0; trial < 6; ++trial) {
      SCOPED_TRACE(::testing::Message() << descriptor << " trial " << trial);
      const auto g = graph::GraphDescriptor::parse(descriptor)->build();
      ASSERT_TRUE(g.has_value());
      const std::uint32_t k = 1 + rng.bounded(5);
      std::vector<NodeId> agents(k);
      for (auto& a : agents) a = rng.bounded(g->num_nodes());
      const std::uint64_t seed = rng();
      const std::uint64_t rounds = 24 + rng.bounded(200);
      const std::uint64_t restart =
          rng.bounded(static_cast<std::uint32_t>(rounds));
      const RingScenario delays{.delay_kind = static_cast<int>(rng.bounded(4)),
                                .delay_seed = rng()};
      walk::GraphRandomWalks ref(*g, agents, seed);
      const Mismatch m = run_lockstep_with_restart(
          ref, std::make_unique<walk::GraphRandomWalks>(*g, agents, seed),
          descriptor, rounds, restart, delays.delay());
      ASSERT_TRUE(m.ok) << "round " << m.round << ": " << m.detail;
    }
  }
}

TEST(Differential, HarnessFlagsAnActualDivergence) {
  // Meta-test: the gate must be able to fail. Two dense engines whose
  // pointer fields differ at one node diverge, and the harness reports it.
  core::RingRotorRouter a(16, {0});
  std::vector<std::uint8_t> ptrs(16, core::kClockwise);
  ptrs[7] = core::kAnticlockwise;
  core::RingRotorRouter b(16, {0}, ptrs);
  const Mismatch m = run_lockstep(a, b, 32);
  EXPECT_FALSE(m.ok);
  EXPECT_FALSE(m.detail.empty());
}

}  // namespace
}  // namespace rr::testing
