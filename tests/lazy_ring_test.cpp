// Unit tests for the lazy domain-dynamics ring engine (S4-lazy): promotion
// policy, O(k) representation invariants, ballistic fast-forward, and the
// Fenwick-backed observers. Cross-engine equality lives in
// differential_test.cpp; these tests pin the engine's own mechanics.

#include "core/lazy_ring_rotor_router.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/fenwick.hpp"
#include "common/rng.hpp"
#include "core/initializers.hpp"
#include "core/ring_rotor_router.hpp"
#include "sim/checkpoint.hpp"
#include "sim/ckpt_v2.hpp"
#include "sim/cycle_jump.hpp"
#include "sim/state_io.hpp"

namespace rr::core {
namespace {

// The serialized promotion schedule (next_promo, promo_interval).
std::vector<std::uint64_t> promo_schedule(const LazyRingRotorRouter& e) {
  sim::StateWriter w;
  e.serialize_state(w);
  std::vector<std::uint64_t> out;
  for (const sim::WriterField& f : w.fields()) {
    if (f.key == "next_promo" || f.key == "promo_interval") {
      out.push_back(f.scalar);
    }
  }
  return out;
}

TEST(LazyRing, PromotesAtConstructionOnCompactPointerFields) {
  // All-clockwise defaults have a single pointer run: lazy from round 0 on
  // a wide ring (n = 4096 >= 16 * 4^2).
  LazyRingRotorRouter rr(4096, place_equally_spaced(4096, 4));
  ASSERT_TRUE(rr.wide());
  EXPECT_TRUE(rr.lazy());
  EXPECT_EQ(rr.pointer_arc_count(), 1u);
}

TEST(LazyRing, CrowdedRingStaysDenseWithAConstantSchedule) {
  // n = 1024, k = 32 has n / k^2 = 1: agents meet every couple of rounds,
  // so leaps cannot pay and the engine is the dense ring engine for good,
  // even once cover has collapsed the pointer field.
  Rng rng(13);
  const NodeId n = 1024;
  const auto agents = place_random(n, 32, rng);
  const auto ptrs = pointers_random(n, rng);
  LazyRingRotorRouter rr(n, agents, ptrs);
  RingRotorRouter dense(n, agents, ptrs);
  ASSERT_FALSE(rr.wide());
  const auto at_start = promo_schedule(rr);
  ASSERT_EQ(at_start.size(), 2u);
  const std::uint64_t cover = rr.run_until_covered(1ULL << 32);
  ASSERT_EQ(cover, dense.run_until_covered(1ULL << 32));
  rr.run(8 * n);
  dense.run(8 * n);
  EXPECT_FALSE(rr.lazy());
  EXPECT_EQ(promo_schedule(rr), at_start);
  EXPECT_EQ(rr.config_hash(), dense.config_hash());
  // Forcing still works: the sparse representation is exact anywhere.
  ASSERT_TRUE(rr.try_promote(/*force=*/true));
  rr.run(n);
  dense.run(n);
  EXPECT_EQ(rr.config_hash(), dense.config_hash());
}

TEST(LazyRing, WideRingStillPromotesAfterItsTransient) {
  // n = 4096, k = 8 has n / k^2 = 64: a random start stays dense through
  // the transient, then promotes at a doubling check.
  Rng rng(14);
  const NodeId n = 4096;
  LazyRingRotorRouter rr(n, place_random(n, 8, rng), pointers_random(n, rng));
  ASSERT_TRUE(rr.wide());
  ASSERT_FALSE(rr.lazy());
  rr.run(64ULL * n);
  EXPECT_TRUE(rr.lazy());
}

TEST(LazyRing, ChunkedDensePhaseKeepsChecksAndMarksExact) {
  // The dense phase runs the ring engine in chunks that stop at the next
  // promotion check and auto-checkpoint mark, so the cover round, the
  // sink's rounds and its bytes (the promotion schedule included) equal a
  // twin stepped one round at a time.
  Rng rng(16);
  const NodeId n = 2048;
  const auto agents = place_random(n, 4, rng);
  const auto ptrs = pointers_random(n, rng);
  LazyRingRotorRouter chunked(n, agents, ptrs);
  LazyRingRotorRouter stepped(n, agents, ptrs);
  ASSERT_TRUE(chunked.wide());
  ASSERT_FALSE(chunked.lazy());
  const auto doc = [n](const sim::Engine& e) {
    return sim::write_checkpoint(e, "ring " + std::to_string(n),
                                 sim::CkptFormat::kV2,
                                 sim::kV2DefaultSegments);
  };
  std::vector<std::pair<std::uint64_t, std::string>> chunked_marks;
  std::vector<std::pair<std::uint64_t, std::string>> stepped_marks;
  chunked.set_auto_checkpoint(1000, [&](const sim::Engine& e) {
    chunked_marks.emplace_back(e.time(), doc(e));
  });
  const auto step_once = [&] {
    stepped.step();
    if (stepped.time() % 1000 == 0) {
      stepped_marks.emplace_back(stepped.time(), doc(stepped));
    }
  };

  const std::uint64_t cover = chunked.run_until_covered(1ULL << 32);
  ASSERT_NE(cover, sim::kNotCovered);
  while (!stepped.all_covered()) step_once();
  EXPECT_EQ(stepped.time(), cover);
  // Still dense at cover, with the check interval doubled at least once.
  ASSERT_FALSE(chunked.lazy());
  EXPECT_GE(promo_schedule(chunked).at(1), 128u);
  EXPECT_EQ(promo_schedule(chunked), promo_schedule(stepped));

  chunked.run(20000);
  while (stepped.time() < cover + 20000) step_once();
  ASSERT_GE(chunked_marks.size(), 2u);
  ASSERT_EQ(chunked_marks.size(), stepped_marks.size());
  for (std::size_t i = 0; i < chunked_marks.size(); ++i) {
    EXPECT_EQ(chunked_marks[i].first, stepped_marks[i].first) << "mark " << i;
    EXPECT_EQ(chunked_marks[i].second, stepped_marks[i].second) << "mark " << i;
  }
  EXPECT_EQ(chunked.lazy(), stepped.lazy());
  EXPECT_EQ(doc(chunked), doc(stepped));
}

TEST(LazyRing, SpreadStartOnACrowdedRingPromotesAtConstruction) {
  // n = 4096, k = 32 is crowded (n / k^2 = 4), but equally spaced agents
  // keep their 128-node spacing, so leaps pay: a compact start promotes at
  // round 0. On a random field it cannot promote then, and a crowded
  // engine schedules no later checks.
  const NodeId n = 4096;
  const auto agents = place_equally_spaced(n, 32);
  LazyRingRotorRouter spread(n, agents);
  EXPECT_FALSE(spread.wide());
  EXPECT_TRUE(spread.leaps_pay());
  EXPECT_TRUE(spread.lazy());

  Rng rng(15);
  LazyRingRotorRouter adversarial(n, agents, pointers_random(n, rng));
  EXPECT_TRUE(adversarial.leaps_pay());
  EXPECT_FALSE(adversarial.lazy());
  const auto at_start = promo_schedule(adversarial);
  adversarial.run(16ULL * n);
  EXPECT_FALSE(adversarial.lazy());
  EXPECT_EQ(promo_schedule(adversarial), at_start);

  // One node short of kSpreadGap is too tight.
  const NodeId tight_n = 32 * (LazyRingRotorRouter::kSpreadGap - 1);
  LazyRingRotorRouter tight(tight_n, place_equally_spaced(tight_n, 32));
  EXPECT_FALSE(tight.leaps_pay());
  EXPECT_FALSE(tight.lazy());
}

TEST(LazyRing, SingleAgentOnATinyRingStillPromotes) {
  // One agent never meets another: k == 1 promotes whatever n is.
  LazyRingRotorRouter rr(5, {2});
  EXPECT_TRUE(rr.wide());
  EXPECT_TRUE(rr.lazy());
}

TEST(LazyRing, StaysDenseOnAdversarialPointerFields) {
  // A random pointer field has ~n/2 runs: far beyond the O(k) promotion
  // threshold, so the transient runs on the dense engine.
  Rng rng(11);
  const NodeId n = 4096;
  LazyRingRotorRouter rr(n, {0, n / 2}, pointers_random(n, rng));
  EXPECT_FALSE(rr.lazy());
  EXPECT_GT(rr.pointer_arc_count(), 4u * 2 + 16);
}

TEST(LazyRing, ForcedPromotionKeepsEveryObserver) {
  Rng rng(12);
  const NodeId n = 256;
  const auto agents = place_random(n, 6, rng);
  const auto ptrs = pointers_random(n, rng);
  LazyRingRotorRouter a(n, agents, ptrs);
  LazyRingRotorRouter b(n, agents, ptrs);
  a.run(97);
  b.run(97);
  ASSERT_FALSE(a.lazy());
  ASSERT_TRUE(b.try_promote(/*force=*/true));
  EXPECT_EQ(a.config_hash(), b.config_hash());
  EXPECT_EQ(a.covered_count(), b.covered_count());
  for (NodeId v = 0; v < n; ++v) {
    ASSERT_EQ(a.visits(v), b.visits(v)) << "v " << v;
    ASSERT_EQ(a.first_visit_time(v), b.first_visit_time(v)) << "v " << v;
    ASSERT_EQ(a.agents_at(v), b.agents_at(v)) << "v " << v;
    ASSERT_EQ(a.pointer(v), b.pointer(v)) << "v " << v;
  }
}

TEST(LazyRing, SingleAgentLocksIntoPeriodTwoN) {
  // The classic 2n lock-in: n clockwise sweeps then n anticlockwise sweeps
  // return the exact configuration. The leap path must reproduce it.
  const NodeId n = 1024;
  LazyRingRotorRouter rr(n, {5});
  ASSERT_TRUE(rr.lazy());
  const std::uint64_t h0 = rr.config_hash();
  rr.run(2 * n);
  EXPECT_EQ(rr.config_hash(), h0);
  EXPECT_EQ(rr.time(), 2ULL * n);
  rr.run(n);  // half a period: anticlockwise sweep pending, hash differs
  EXPECT_NE(rr.config_hash(), h0);
}

TEST(LazyRing, PointerArcsStayCompactAfterLockIn) {
  // Post-transient signature (Fig. 1): each domain contributes O(1) pointer
  // runs, so the run map stays O(k) while leaps advance millions of rounds.
  const NodeId n = 1 << 16;
  const std::uint32_t k = 16;
  LazyRingRotorRouter rr(n, place_equally_spaced(n, k));
  ASSERT_TRUE(rr.lazy());
  rr.run(20ULL * n);
  EXPECT_LE(rr.pointer_arc_count(), 4 * k + 16);
  EXPECT_EQ(rr.time(), 20ULL * n);
}

TEST(LazyRing, VisitsConserveAgentRoundsThroughLeaps) {
  const NodeId n = 2048;
  const std::uint32_t k = 8;
  LazyRingRotorRouter rr(n, place_equally_spaced(n, k));
  const std::uint64_t rounds = 10 * n + 17;
  rr.run(rounds);
  std::uint64_t total = 0;
  for (NodeId v = 0; v < n; ++v) total += rr.visits(v);
  EXPECT_EQ(total, static_cast<std::uint64_t>(k) * (rounds + 1));
}

TEST(LazyRing, HashCycleDetectorDrivesTheLazyEngine) {
  // The confirmed-cycle detector (Brent over config_hash, then a full
  // state compare) must work unchanged on the lazy backend (forced:
  // a 48-ring with 3 agents is too crowded to promote on its own).
  LazyRingRotorRouter rr(48, place_equally_spaced(48, 3));
  ASSERT_TRUE(rr.try_promote(/*force=*/true));
  const auto cycle = sim::detect_confirmed_cycle(rr, 1 << 18);
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ((2u * 48) % cycle->period, 0u);
}

TEST(LazyRing, RunUntilCoveredReportsExactRound) {
  LazyRingRotorRouter rr(8, {0});
  ASSERT_TRUE(rr.lazy());
  const std::uint64_t cover = rr.run_until_covered(1000);
  EXPECT_EQ(cover, 7u);
  EXPECT_EQ(rr.time(), 7u);
  EXPECT_EQ(rr.run_until_covered(1000), 0u);
}

TEST(LazyRing, DelayedPileUpsStayExactInLazyMode) {
  // Hold everything on one node for a while: counts far above 2 while the
  // engine is already lazy. The sparse round must handle the pile-up.
  const NodeId n = 64;
  LazyRingRotorRouter rr(n, std::vector<NodeId>(9, 7));
  ASSERT_TRUE(rr.try_promote(/*force=*/true));
  ASSERT_TRUE(rr.lazy());
  for (int t = 0; t < 40; ++t) {
    rr.step_delayed([](NodeId v, std::uint64_t time, std::uint32_t present) {
      return (v == 7 && time < 20) ? present : 0u;
    });
  }
  std::uint32_t total = 0;
  for (NodeId v = 0; v < n; ++v) total += rr.agents_at(v);
  EXPECT_EQ(total, 9u);
  EXPECT_EQ(rr.num_agents(), 9u);
}

TEST(Fenwick, RangeAddPointQuery) {
  RangeAddFenwick f(10);
  f.add(2, 5, 3);
  f.add(0, 9, 1);
  f.add(5, 5, -2);
  EXPECT_EQ(f.at(0), 1);
  EXPECT_EQ(f.at(2), 4);
  EXPECT_EQ(f.at(4), 4);
  EXPECT_EQ(f.at(5), 2);
  EXPECT_EQ(f.at(6), 1);
  EXPECT_EQ(f.at(9), 1);
}

TEST(Fenwick, BuildsFromValuesInLinearTime) {
  Rng rng(99);
  std::vector<std::int64_t> values(1337);
  for (auto& v : values) v = static_cast<std::int64_t>(rng.bounded(1000));
  RangeAddFenwick f(values);
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(f.at(i), values[i]) << "i " << i;
  }
  f.add(100, 1000, 7);
  EXPECT_EQ(f.at(99), values[99]);
  EXPECT_EQ(f.at(100), values[100] + 7);
  EXPECT_EQ(f.at(1000), values[1000] + 7);
  EXPECT_EQ(f.at(1001), values[1001]);
}

}  // namespace
}  // namespace rr::core
