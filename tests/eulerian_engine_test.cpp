// Tests for core::EulerianRotorRouter: the paper's Eulerian-lock-in claim
// as an executable invariant. A single rotor-router agent, once the Brent
// detector confirms its limit cycle, IS a token circulating a fixed
// Eulerian circuit — so the token engine extracted from the live rotor
// state must stay in lockstep with the rotor forever after, across
// topologies and under delayed schedules. Plus the backend contracts:
// StateIO round-trips through the registry/checkpoint layer, config_hash
// feeds the generic Brent detector, coverage within one circuit lap.

#include "core/eulerian_rotor_router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "differential.hpp"
#include "core/rotor_router.hpp"
#include "graph/descriptor.hpp"
#include "graph/generators.hpp"
#include "sim/checkpoint.hpp"
#include "sim/ckpt_v2.hpp"
#include "sim/cycle_jump.hpp"
#include "sim/registry.hpp"
#include "state_patch.hpp"

namespace rr::core {
namespace {

using graph::CsrGraph;
using graph::NodeId;

// The >= 4 topologies of the differential gate (acceptance criterion),
// spanning even/odd degrees, trees, and irregular graphs.
const char* kGateDescriptors[] = {
    "ring 32",    "torus 6 6",  "grid 5 7",      "clique 8",
    "hypercube 4", "tree 15",   "lollipop 20 8", "random-regular 24 3 5",
};

TEST(EulerianLockIn, TokenEngineTracksLockedRotorAcrossTopologies) {
  for (const char* descriptor : kGateDescriptors) {
    SCOPED_TRACE(descriptor);
    const auto g = graph::GraphDescriptor::parse(descriptor)->build();
    ASSERT_TRUE(g.has_value());
    auto locked = eulerian_from_lock_in(*g, 0);
    ASSERT_TRUE(locked.locked_in);
    ASSERT_NE(locked.rotor, nullptr);
    ASSERT_NE(locked.engine, nullptr);
    // The limit cycle of a locked single agent is one full circuit lap.
    EXPECT_EQ(locked.period, g->num_arcs());
    EXPECT_TRUE(graph::is_eulerian_circuit(*g, locked.engine->circuit()));

    // Lockstep: over two further laps, the token's node equals the rotor
    // agent's node after every round (and the rotor really did land
    // there this round).
    RotorRouter& rotor = *locked.rotor;
    EulerianRotorRouter& tokens = *locked.engine;
    ASSERT_EQ(tokens.token_node(0), rotor.occupied_nodes().front());
    for (std::uint64_t t = 0; t < 2 * g->num_arcs(); ++t) {
      rotor.step();
      tokens.step();
      const NodeId rotor_at = rotor.occupied_nodes().front();
      ASSERT_EQ(tokens.token_node(0), rotor_at) << "round " << t;
      ASSERT_EQ(rotor.last_visit_time(rotor_at), rotor.time());
    }
  }
}

TEST(EulerianLockIn, LockstepSurvivesDelayedSchedules) {
  // Delays commute with the lock-in picture: holding the agent at v holds
  // the token at v, so the correspondence persists under adversarial
  // schedules. The rotor and token clocks differ by a known offset, so
  // the token side samples the shared schedule shifted.
  Rng rng(0xE01AULL);
  for (const char* descriptor : {"ring 24", "torus 5 5", "clique 7",
                                 "tree 15"}) {
    SCOPED_TRACE(descriptor);
    const auto g = graph::GraphDescriptor::parse(descriptor)->build();
    ASSERT_TRUE(g.has_value());
    auto locked = eulerian_from_lock_in(*g, 0);
    ASSERT_TRUE(locked.locked_in);
    RotorRouter& rotor = *locked.rotor;
    EulerianRotorRouter& tokens = *locked.engine;
    const testing::RingScenario delays{
        .delay_kind = static_cast<int>(rng.bounded(4)), .delay_seed = rng()};
    const sim::DelayFn base = delays.delay();
    const std::uint64_t shift = rotor.time() - tokens.time();
    const sim::DelayFn shifted = [&base, shift](sim::NodeId v, std::uint64_t t,
                                                std::uint32_t present) {
      return base(v, t + shift, present);
    };
    for (std::uint64_t t = 0; t < 3 * g->num_arcs(); ++t) {
      rotor.step_delayed(base);
      tokens.step_delayed(shifted);
      ASSERT_EQ(tokens.token_node(0), rotor.occupied_nodes().front())
          << "round " << t;
    }
  }
}

TEST(EulerianEngine, BrentDetectorRecoversTheCirculationPeriod) {
  // A single token's configuration is its circuit offset: period 2|E|
  // exactly, recovered by the generic confirmed-cycle detector.
  const CsrGraph g = graph::torus(4, 4);
  EulerianRotorRouter single(g, {0});
  const auto cycle =
      sim::detect_confirmed_cycle(single, 4 * g.num_arcs() + 8);
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->period, g.num_arcs());

  // k tokens shift together, so the multiset period divides 2|E|.
  EulerianRotorRouter multi(g, {0, 3, 9});
  const auto mcycle =
      sim::detect_confirmed_cycle(multi, 4 * g.num_arcs() + 8);
  ASSERT_TRUE(mcycle.has_value());
  EXPECT_EQ(g.num_arcs() % mcycle->period, 0u);
}

TEST(EulerianEngine, EveryTokenCoversWithinOneLap) {
  // A circuit visits every node, so any token covers the graph within
  // 2|E| rounds; extra tokens only speed that up (Lemma 1's spirit).
  for (const char* descriptor : kGateDescriptors) {
    SCOPED_TRACE(descriptor);
    const auto g = graph::GraphDescriptor::parse(descriptor)->build();
    ASSERT_TRUE(g.has_value());
    EulerianRotorRouter one(*g, {0});
    const std::uint64_t cover1 = one.run_until_covered(g->num_arcs() + 1);
    ASSERT_NE(cover1, sim::kNotCovered);
    EXPECT_LE(cover1, g->num_arcs());

    EulerianRotorRouter three(*g, {0, 0, g->num_nodes() / 2});
    const std::uint64_t cover3 = three.run_until_covered(g->num_arcs() + 1);
    ASSERT_NE(cover3, sim::kNotCovered);
    EXPECT_LE(cover3, cover1);
  }
}

TEST(EulerianEngine, CoLocatedTokensTakeDistinctTrajectories) {
  // m agents stacked on one node start on that node's m circuit
  // occurrences (distinct outgoing arcs), not one shared offset — the
  // multi-token engine must not degenerate into k copies of one token.
  const CsrGraph g = graph::torus(6, 6);
  EulerianRotorRouter stacked(g, {0, 0, 0, 0});
  std::vector<std::uint64_t> offsets;
  for (std::uint32_t i = 0; i < 4; ++i) {
    offsets.push_back(stacked.token_offset(i));
    EXPECT_EQ(stacked.token_node(i), 0u);
  }
  std::sort(offsets.begin(), offsets.end());
  EXPECT_EQ(std::unique(offsets.begin(), offsets.end()), offsets.end());

  // Distinct offsets cover strictly faster than a lone token here.
  EulerianRotorRouter one(g, {0});
  const auto cover1 = one.run_until_covered(g.num_arcs() + 1);
  const auto cover4 = stacked.run_until_covered(g.num_arcs() + 1);
  EXPECT_LT(cover4, cover1);

  // More tokens than ports: the 5th wraps onto the 1st occurrence.
  EulerianRotorRouter five(g, {0, 0, 0, 0, 0});
  EXPECT_EQ(five.token_offset(4), five.token_offset(0));
}

TEST(EulerianEngine, VisitAccountingMatchesTokenLandings) {
  // Over exactly L rounds, a lone token lands on every arc head once:
  // visits(v) grows by deg(v), plus the initial-placement count.
  const CsrGraph g = graph::grid(4, 5);
  EulerianRotorRouter engine(g, {2});
  std::vector<std::uint64_t> before(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) before[v] = engine.visits(v);
  engine.run(g.num_arcs());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(engine.visits(v) - before[v], g.degree(v)) << "v=" << v;
  }
  EXPECT_TRUE(engine.all_covered());
}

TEST(EulerianEngine, CheckpointRestartContinuesBitExactly) {
  // The save -> load -> continue lane of the differential harness: the
  // restored token engine is indistinguishable from the uninterrupted
  // twin, including under delayed schedules.
  Rng rng(0xE02BULL);
  for (const char* descriptor : {"torus 6 6", "ring 24", "clique 8",
                                 "lollipop 20 8"}) {
    for (int trial = 0; trial < 4; ++trial) {
      SCOPED_TRACE(::testing::Message() << descriptor << " trial " << trial);
      const auto g = graph::GraphDescriptor::parse(descriptor)->build();
      ASSERT_TRUE(g.has_value());
      const std::uint32_t k = 1 + rng.bounded(4);
      std::vector<NodeId> agents(k);
      for (auto& a : agents) a = rng.bounded(g->num_nodes());
      const std::uint64_t rounds = 24 + rng.bounded(200);
      const testing::RingScenario delays{
          .delay_kind = static_cast<int>(rng.bounded(4)),
          .delay_seed = rng()};
      EulerianRotorRouter ref(*g, agents);
      const auto m = testing::run_lockstep_with_restart(
          ref, std::make_unique<EulerianRotorRouter>(*g, agents), descriptor,
          rounds, rng.bounded(static_cast<std::uint32_t>(rounds)),
          delays.delay());
      ASSERT_TRUE(m.ok) << "round " << m.round << ": " << m.detail;
    }
  }
}

TEST(EulerianEngine, DeserializeRejectsInconsistentCircuits) {
  const CsrGraph g = graph::torus(4, 4);
  EulerianRotorRouter engine(g, {0, 5});
  engine.run(19);
  sim::StateWriter good;
  engine.serialize_state(good);
  const auto restores = [&](const sim::StateWriter& state) {
    EulerianRotorRouter fresh(g, {0, 5});
    const auto reader = sim::round_trip_v2(state, g.num_nodes());
    return reader.has_value() && fresh.deserialize_state(*reader);
  };
  ASSERT_TRUE(restores(good));
  // Swapping two circuit ports breaks the chain / exactly-once property;
  // the engine must reject, not abort.
  const std::uint64_t port = testing::list_element(good, "circuit_ports", 0);
  EXPECT_FALSE(restores(
      testing::patched_state(good, "circuit_ports", port == 0 ? 1 : 0)));
}

}  // namespace
}  // namespace rr::core
