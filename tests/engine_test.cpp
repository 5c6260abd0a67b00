// sim layer: the unified Engine interface, the generic confirmed
// limit-cycle detector and the batched Runner. These tests drive all three
// engines exclusively through sim::Engine pointers — the facade every
// driver is supposed to use.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/delayed.hpp"
#include "core/initializers.hpp"
#include "core/lazy_ring_rotor_router.hpp"
#include "core/ring_rotor_router.hpp"
#include "core/rotor_router.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"
#include "sim/cycle_jump.hpp"
#include "sim/measure.hpp"
#include "sim/runner.hpp"
#include "walk/random_walk.hpp"

namespace rr::sim {
namespace {

constexpr NodeId kN = 64;
constexpr std::uint32_t kK = 4;

std::vector<std::unique_ptr<Engine>> make_engines(const graph::CsrGraph& g) {
  const auto agents = core::place_equally_spaced(kN, kK);
  std::vector<std::unique_ptr<Engine>> engines;
  engines.push_back(std::make_unique<core::RingRotorRouter>(kN, agents));
  // Forced: kN = 64 is too crowded for kK = 4 agents to promote on their
  // own, and the dense phase is the ring engine already listed.
  auto lazy = std::make_unique<core::LazyRingRotorRouter>(kN, agents);
  lazy->try_promote(/*force=*/true);
  engines.push_back(std::move(lazy));
  engines.push_back(std::make_unique<core::RotorRouter>(g, agents));
  engines.push_back(std::make_unique<walk::GraphRandomWalks>(g, agents, 7));
  return engines;
}

TEST(EngineInterface, AllEnginesCoverPolymorphically) {
  graph::CsrGraph g = graph::ring(kN);
  for (auto& engine : make_engines(g)) {
    SCOPED_TRACE(engine->engine_name());
    EXPECT_EQ(engine->num_nodes(), kN);
    EXPECT_EQ(engine->num_agents(), kK);
    EXPECT_EQ(engine->time(), 0u);
    EXPECT_EQ(engine->covered_count(), kK);  // distinct starting nodes
    const std::uint64_t cover =
        engine->run_until_covered(1ULL << 24);
    ASSERT_NE(cover, kNotCovered);
    EXPECT_EQ(cover, engine->time());
    EXPECT_TRUE(engine->all_covered());
    EXPECT_DOUBLE_EQ(engine->coverage(), 1.0);
    for (NodeId v = 0; v < kN; ++v) {
      EXPECT_GE(engine->visits(v), 1u);
      EXPECT_NE(engine->first_visit_time(v), kNotCovered);
      EXPECT_LE(engine->first_visit_time(v), cover);
    }
  }
}

TEST(EngineInterface, VisitsConserveAgentRounds) {
  // Every engine moves all k agents every undelayed round, so total visits
  // (counting initial placement) equal k * (t + 1).
  graph::CsrGraph g = graph::ring(kN);
  for (auto& engine : make_engines(g)) {
    SCOPED_TRACE(engine->engine_name());
    engine->run(100);
    std::uint64_t total = 0;
    for (NodeId v = 0; v < kN; ++v) total += engine->visits(v);
    EXPECT_EQ(total, static_cast<std::uint64_t>(kK) * 101);
  }
}

TEST(EngineInterface, TypeErasedDelayMatchesTemplateFastPath) {
  // The virtual step_delayed must be semantically identical to the inlined
  // template overload (deterministic engines only).
  graph::CsrGraph g = graph::torus(6, 6);
  const std::vector<graph::NodeId> agents = {0, 0, 7, 20};
  core::RotorRouter fast(g, agents);
  core::RotorRouter erased(g, agents);
  Engine& erased_view = erased;
  auto schedule = [](NodeId v, std::uint64_t t, std::uint32_t present) {
    return static_cast<std::uint32_t>((v + t) % (present + 1));
  };
  const DelayFn erased_schedule = schedule;
  for (int t = 0; t < 64; ++t) {
    fast.step_delayed(schedule);            // template overload
    erased_view.step_delayed(erased_schedule);  // virtual dispatch
  }
  EXPECT_EQ(fast.config_hash(), erased.config_hash());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(fast.visits(v), erased.visits(v)) << "v " << v;
    ASSERT_EQ(fast.agents_at(v), erased.agents_at(v)) << "v " << v;
  }
}

TEST(EngineInterface, RandomWalkDelayHoldsWalkers) {
  graph::CsrGraph g = graph::ring(kN);
  walk::GraphRandomWalks walks(g, core::place_equally_spaced(kN, kK), 5);
  const std::uint64_t hash_before = walks.config_hash();
  // Holding everyone freezes the configuration and adds no visits.
  for (int t = 0; t < 10; ++t) {
    walks.step_delayed(
        [](NodeId, std::uint64_t, std::uint32_t present) { return present; });
  }
  EXPECT_EQ(walks.config_hash(), hash_before);
  EXPECT_EQ(walks.time(), 10u);
  std::uint64_t total = 0;
  for (NodeId v = 0; v < kN; ++v) total += walks.visits(v);
  EXPECT_EQ(total, kK);  // only the initial placements
  // A partial hold moves exactly the released walkers.
  walks.step_delayed([](NodeId, std::uint64_t, std::uint32_t present) {
    return present > 0 ? present - 1 : 0;  // release one walker per node
  });
  total = 0;
  for (NodeId v = 0; v < kN; ++v) total += walks.visits(v);
  EXPECT_EQ(total, kK + kK);  // kK distinct hosts released one walker each
}

TEST(EngineInterface, SlowdownTrackerWorksOnAnyEngine) {
  // Lemma 1/3 driver written once against the engine contract: the delayed
  // deployment never visits more than the undelayed one, on the *general*
  // engine as well as the ring one.
  graph::CsrGraph g = graph::torus(5, 5);
  const std::vector<graph::NodeId> agents = {0, 12, 12};
  core::RotorRouter delayed(g, agents);
  core::RotorRouter undelayed(g, agents);
  core::SlowdownTracker tracker;
  core::HoldAtNodes hold({12});
  for (int t = 0; t < 50; ++t) {
    tracker.step(delayed, hold);
    undelayed.step();
  }
  EXPECT_EQ(tracker.total_rounds(), 50u);
  EXPECT_LT(tracker.active_rounds(), 50u);  // node 12 held agents at t=1
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_LE(delayed.visits(v), undelayed.visits(v)) << "v " << v;
  }
}

TEST(HashCycleDetection, MatchesExactRingPeriod) {
  // The generic detector (Brent over config_hash, confirmed on the full
  // state, accumulators from the registry) must find the same period as
  // the ring-specific machinery.
  const auto agents = core::place_equally_spaced(24, 3);
  const auto exact = detect_confirmed_cycle(
      *create_engine("ring", graph::GraphDescriptor::ring(24), agents),
      1 << 16, &EngineRegistry::instance().find("ring")->cycle_accumulators);
  ASSERT_TRUE(exact.has_value());

  core::RingRotorRouter rr(24, agents);
  const auto hashed = detect_confirmed_cycle(rr, 1 << 16);
  ASSERT_TRUE(hashed.has_value());
  EXPECT_EQ(hashed->period, exact->period);
}

TEST(HashCycleDetection, WorksThroughBasePointer) {
  graph::CsrGraph g = graph::ring(16);
  std::unique_ptr<Engine> engine =
      std::make_unique<core::RotorRouter>(g, std::vector<graph::NodeId>{0});
  const auto cycle = detect_confirmed_cycle(*engine, 1 << 16);
  ASSERT_TRUE(cycle.has_value());
  // Single agent on the ring locks into the Eulerian circuit: period 2n
  // (one traversal of each arc).
  EXPECT_EQ(cycle->period, 2u * 16u);
}

TEST(Runner, MapIsDeterministicAndOrdered) {
  Runner pooled(4);  // force worker threads even on 1-core machines
  Runner serial(1);
  auto fn = [](std::uint64_t i) {
    return static_cast<double>(i * i % 97);
  };
  const auto a = pooled.map(257, fn);
  const auto b = serial.map(257, fn);
  ASSERT_EQ(a.size(), 257u);
  EXPECT_EQ(a, b);
  // Reusing the same pool for a second batch must be safe.
  const auto c = pooled.map(31, fn);
  for (std::uint64_t i = 0; i < 31; ++i) EXPECT_EQ(c[i], fn(i));
}

TEST(Runner, StatsFoldsAllTrials) {
  Runner runner(3);
  const auto stats =
      runner.stats(100, [](std::uint64_t i) { return static_cast<double>(i); });
  EXPECT_EQ(stats.count(), 100u);
  EXPECT_DOUBLE_EQ(stats.mean(), 49.5);
  EXPECT_DOUBLE_EQ(stats.min(), 0.0);
  EXPECT_DOUBLE_EQ(stats.max(), 99.0);
}

TEST(Runner, CoverTimesFanAnyEngineFactory) {
  graph::CsrGraph g = graph::ring(32);
  Runner runner(2);
  const auto covers = runner.cover_times(
      6,
      [&](std::uint64_t trial) -> std::unique_ptr<Engine> {
        if (trial % 2 == 0) {
          return std::make_unique<core::RotorRouter>(
              g, std::vector<graph::NodeId>{0});
        }
        return std::make_unique<walk::GraphRandomWalks>(
            g, std::vector<graph::NodeId>{0}, 100 + trial);
      },
      1ULL << 24);
  ASSERT_EQ(covers.size(), 6u);
  // Deterministic engine: identical trials give identical covers.
  EXPECT_EQ(covers[0], covers[2]);
  EXPECT_EQ(covers[0], covers[4]);
  for (std::uint64_t c : covers) EXPECT_NE(c, kNotCovered);
  // Sanity-bound the deterministic cover by the Theta(n^2) worst case.
  EXPECT_LE(covers[0], 8ULL * 32 * 32);
}

TEST(Runner, CoverStatsRejectsNothingWhenCapGenerous) {
  graph::CsrGraph g = graph::ring(16);
  Runner runner;
  const auto stats = runner.cover_stats(
      4,
      [&](std::uint64_t) -> std::unique_ptr<Engine> {
        return std::make_unique<core::RotorRouter>(
            g, std::vector<graph::NodeId>{0});
      },
      1ULL << 20);
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_DOUBLE_EQ(stats.min(), stats.max());  // deterministic
}

}  // namespace
}  // namespace rr::sim
