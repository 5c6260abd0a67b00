// Steady-state cycle leaping (sim/cycle_jump.hpp): the leap-landing
// differential lane. A leap is only allowed to change *when* state is
// reached, never *what* state is reached, so every test here holds a
// wrapped engine against an identical dense twin and requires exact
// observable equality — time, config_hash, visits, first_visit,
// coverage — plus byte-identical rr-ckpt v2 documents at the compare
// points. The collision-stub suite forces the 64-bit-hash-collision
// path end to end: detection must reject, fall back dense, and never
// mis-leap.

#include "sim/cycle_jump.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/eulerian_rotor_router.hpp"
#include "core/initializers.hpp"
#include "core/lazy_ring_rotor_router.hpp"
#include "core/ring_rotor_router.hpp"
#include "core/rotor_router.hpp"
#include "differential.hpp"
#include "graph/descriptor.hpp"
#include "graph/generators.hpp"
#include "sim/checkpoint.hpp"
#include "sim/ckpt_v2.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"
#include "walk/random_walk.hpp"

namespace rr::testing {
namespace {

const std::vector<std::string> kRotorAccumulators = {"time", "visits", "exits",
                                                     "last_visit"};
const std::vector<std::string> kTokenAccumulators = {"time", "visits"};

/// Tight detection knobs so the lane confirms within test-sized horizons
/// while still exercising the stride-doubling generations.
sim::CycleJumpOptions fast_detect() {
  sim::CycleJumpOptions opt;
  opt.min_stride = 8;
  opt.samples_per_generation = 64;
  return opt;
}

/// The byte-level oracle: pool-width-independent v2 document.
std::string v2_doc(const sim::Engine& e, const std::string& descriptor) {
  return sim::write_checkpoint(e, descriptor, sim::CkptFormat::kV2,
                               sim::kV2DefaultSegments);
}

struct Backend {
  std::string name;
  std::string descriptor;
  std::vector<std::string> accumulators;
  std::function<std::unique_ptr<sim::Engine>()> make;
};

std::vector<Backend> deterministic_backends() {
  const std::vector<NodeId> ring_agents = {0, 7, 13};
  const std::vector<NodeId> torus_agents = {0, 11, 17, 40};
  const std::vector<std::string> lazy_accumulators =
      sim::EngineRegistry::instance().find("lazy")->cycle_accumulators;
  return {
      {"rotor/ring", "ring 48", kRotorAccumulators,
       [=] {
         return std::make_unique<core::RotorRouter>(
             graph::ring(48), ring_agents, std::vector<std::uint32_t>{});
       }},
      {"rotor/torus", "torus 6 8", kRotorAccumulators,
       [=] {
         return std::make_unique<core::RotorRouter>(
             graph::torus(6, 8), torus_agents, std::vector<std::uint32_t>{});
       }},
      {"rotor/random-regular", "random-regular 64 4 7", kRotorAccumulators,
       [] {
         return std::make_unique<core::RotorRouter>(
             graph::random_regular(64, 4, 7), std::vector<NodeId>{3, 9},
             std::vector<std::uint32_t>{});
       }},
      {"ring", "ring 48", kRotorAccumulators,
       [=] {
         return std::make_unique<core::RingRotorRouter>(
             48, ring_agents, std::vector<std::uint8_t>{});
       }},
      // 48 nodes are too crowded for 3 agents to promote (wide()), so
      // this lane confirms the dense phase on the registry's accumulators;
      // 160 >= 16 * 3^2 promotes at construction and confirms the sparse
      // representation (spread agents: a clustered start stabilizes past
      // the detect budget).
      {"lazy-ring/crowded", "ring 48", lazy_accumulators,
       [=] {
         auto e = std::make_unique<core::LazyRingRotorRouter>(
             48, ring_agents, std::vector<std::uint8_t>{});
         EXPECT_FALSE(e->wide() || e->lazy());  // dense for its whole life
         return e;
       }},
      {"lazy-ring/wide", "ring 160", lazy_accumulators,
       [=] {
         auto e = std::make_unique<core::LazyRingRotorRouter>(
             160, std::vector<NodeId>{0, 53, 107},
             std::vector<std::uint8_t>{});
         EXPECT_TRUE(e->lazy());  // sparse from round 0, never demoted
         return e;
       }},
      {"eulerian/torus", "torus 6 8", kTokenAccumulators,
       [=] {
         return std::make_unique<core::EulerianRotorRouter>(graph::torus(6, 8),
                                                            torus_agents);
       }},
  };
}

std::unique_ptr<sim::CycleJumpEngine> wrap(const Backend& b) {
  return std::make_unique<sim::CycleJumpEngine>(b.make(), b.accumulators,
                                                fast_detect());
}

TEST(CycleJump, LeapLandingsMatchDenseAcrossTopologies) {
  // Irregular horizons on purpose: residues that are not period multiples
  // force the leap + dense-tail composition, and every landing must be
  // indistinguishable from the dense twin down to the checkpoint bytes.
  const std::vector<std::uint64_t> horizons = {257, 9941, 123457, 1000003};
  for (const Backend& b : deterministic_backends()) {
    SCOPED_TRACE(b.name);
    auto dense = b.make();
    auto leap = wrap(b);
    for (const std::uint64_t h : horizons) {
      dense->run(h);
      leap->run(h);
      const Mismatch m = compare_engines(*dense, *leap);
      ASSERT_TRUE(m.ok) << "after " << h << " more rounds at round " << m.round
                        << ": " << m.detail;
      ASSERT_EQ(v2_doc(*dense, b.descriptor), v2_doc(*leap, b.descriptor))
          << "v2 documents diverge at round " << dense->time();
    }
    // The lane must actually exercise leaping, not just agree dense-dense.
    EXPECT_TRUE(leap->stats().confirmed) << b.name;
    EXPECT_GE(leap->stats().leaps, 1u) << b.name;
    EXPECT_GT(leap->stats().leaped_rounds, 1000000u / 2) << b.name;
  }
}

TEST(CycleJump, AdversarialDelayPrefixThenLeapStaysExact) {
  // Delayed rounds perturb the orbit, so the wrapper invalidates and
  // re-detects. Whatever configuration the adversary leaves behind, the
  // eventual cycle is still exact — paper Lemma 1 periodicity does not
  // depend on the transient.
  for (const int delay_kind : {1, 2, 3}) {
    SCOPED_TRACE(::testing::Message() << "delay_kind " << delay_kind);
    RingScenario sc;
    sc.n = 32;
    sc.agents = {0, 5, 19};
    sc.delay_kind = delay_kind;
    sc.delay_seed = 0xD31A * static_cast<std::uint64_t>(delay_kind + 1);
    graph::CsrGraph g = graph::ring(sc.n);
    core::RotorRouter dense(g, sc.agents, {});
    sim::CycleJumpEngine leap(
        std::make_unique<core::RotorRouter>(g, sc.agents,
                                            std::vector<std::uint32_t>{}),
        kRotorAccumulators, fast_detect());
    const Mismatch prefix = run_lockstep_delayed(dense, leap, 200, sc.delay());
    ASSERT_TRUE(prefix.ok) << "round " << prefix.round << ": " << prefix.detail;
    dense.run(500000);
    leap.run(500000);
    const Mismatch m = compare_engines(dense, leap);
    ASSERT_TRUE(m.ok) << "round " << m.round << ": " << m.detail;
    EXPECT_EQ(v2_doc(dense, "ring 32"), v2_doc(leap, "ring 32"));
    EXPECT_GE(leap.stats().leaps, 1u);
  }
}

TEST(CycleJumpSharded, LeapMatchesSequentialDenseAcrossShardCounts) {
  // The sharded stepper is bit-equal to the sequential engine per round,
  // so wrapping it must stay bit-equal across leaps too — whatever the
  // shard count (an execution choice, not state).
  graph::CsrGraph g = graph::torus(6, 6);
  const std::vector<NodeId> agents = {1, 8, 27};
  for (const std::uint32_t shards : {2u, 5u}) {
    SCOPED_TRACE(::testing::Message() << "shards " << shards);
    core::RotorRouter dense(g, agents, {});
    Backend b{"sharded", "torus 6 6", kRotorAccumulators,
              [&g, &agents, shards] {
                return std::make_unique<core::RotorRouter>(
                    g, agents, std::vector<std::uint32_t>{}, shards);
              }};
    auto leap = wrap(b);
    for (const std::uint64_t h : {397u, 250007u}) {
      dense.run(h);
      leap->run(h);
      const Mismatch m = compare_engines(dense, *leap);
      ASSERT_TRUE(m.ok) << "round " << m.round << ": " << m.detail;
      ASSERT_EQ(v2_doc(dense, b.descriptor), v2_doc(*leap, b.descriptor));
    }
    EXPECT_GE(leap->stats().leaps, 1u);
  }
}

TEST(CycleJump, CheckpointRestartMidLeapContinuesExactly) {
  // Crash tolerance across a leap: a document written after leaping must
  // be byte-identical to the dense twin's, restore into a fresh engine,
  // and — re-wrapped — continue in lockstep with the uninterrupted dense
  // run (detection state is scratch, never checkpoint state).
  const Backend b = deterministic_backends()[1];  // rotor on torus 6x8
  auto dense = b.make();
  auto leap = wrap(b);
  dense->run(300000);
  leap->run(300000);
  ASSERT_GE(leap->stats().leaps, 1u);
  const std::string doc = v2_doc(*leap, b.descriptor);
  ASSERT_EQ(doc, v2_doc(*dense, b.descriptor));
  std::unique_ptr<sim::Engine> restored = sim::restore_checkpoint(doc);
  ASSERT_NE(restored, nullptr);
  sim::CycleJumpEngine resumed(std::move(restored), b.accumulators,
                               fast_detect());
  {
    const Mismatch m = compare_engines(*dense, resumed);
    ASSERT_TRUE(m.ok) << "after restore: " << m.detail;
  }
  dense->run(700001);
  resumed.run(700001);
  const Mismatch m = compare_engines(*dense, resumed);
  ASSERT_TRUE(m.ok) << "round " << m.round << ": " << m.detail;
  EXPECT_EQ(v2_doc(*dense, b.descriptor), v2_doc(resumed, b.descriptor));
  EXPECT_GE(resumed.stats().leaps, 1u);
}

TEST(CycleJump, AutoCheckpointScheduleIsLeapExact) {
  // set_auto_checkpoint marks must fire at their exact rounds with files
  // byte-identical to a dense run — leaps are capped at the marks, not
  // allowed to jump them.
  const Backend b = deterministic_backends()[0];  // rotor on ring 48
  auto dense = b.make();
  auto leap = wrap(b);
  std::vector<std::pair<std::uint64_t, std::string>> dense_marks, leap_marks;
  const auto capture = [&b](auto& into) {
    return [&into, &b](const sim::Engine& e) {
      into.emplace_back(e.time(), v2_doc(e, b.descriptor));
    };
  };
  dense->set_auto_checkpoint(1000, capture(dense_marks));
  leap->set_auto_checkpoint(1000, capture(leap_marks));
  for (const std::uint64_t h : {137u, 4096u, 250000u}) {
    dense->run(h);
    leap->run(h);
  }
  EXPECT_GE(leap->stats().leaps, 1u);
  ASSERT_EQ(dense_marks.size(), leap_marks.size());
  for (std::size_t i = 0; i < dense_marks.size(); ++i) {
    EXPECT_EQ(dense_marks[i].first, leap_marks[i].first) << "mark " << i;
    EXPECT_EQ(dense_marks[i].second, leap_marks[i].second) << "mark " << i;
  }
  ASSERT_FALSE(dense_marks.empty());
  EXPECT_EQ(dense_marks[0].first, 1000u);  // armed at round 0: first mark 1000
}

TEST(CycleJump, RunUntilCoveredLandsOnTheDenseCoverRound) {
  const Backend b = deterministic_backends()[1];  // rotor on torus 6x8
  auto dense = b.make();
  auto leap = wrap(b);
  const std::uint64_t dense_cover = dense->run_until_covered(1u << 20);
  const std::uint64_t leap_cover = leap->run_until_covered(1u << 20);
  EXPECT_EQ(dense_cover, leap_cover);
  const Mismatch m = compare_engines(*dense, *leap);
  ASSERT_TRUE(m.ok) << "round " << m.round << ": " << m.detail;
}

// ---- default probe schedule ----

/// A ring-sweep trial's start: random placement and pointers drawn from
/// derive_seed(seed, trial), as rrbench's ring-sweep draws them.
sim::EngineConfig ring_trial(NodeId n, std::uint32_t k, std::uint64_t seed,
                             std::uint64_t trial) {
  Rng rng(sim::derive_seed(seed, trial));
  sim::EngineConfig config;
  config.agents = core::place_random(n, k, rng);
  const auto ptrs = core::pointers_random(n, rng);
  config.pointers.assign(ptrs.begin(), ptrs.end());
  return config;
}

std::unique_ptr<sim::Engine> create_ring(const char* engine, NodeId n,
                                         const sim::EngineConfig& config) {
  std::string error;
  auto e = sim::EngineRegistry::instance().create(
      engine, graph::GraphDescriptor::ring(n), config, &error);
  EXPECT_NE(e, nullptr) << engine << ": " << error;
  return e;
}

/// What wrap_cycle_jump(kAuto) builds: default options, registry
/// accumulators.
std::unique_ptr<sim::CycleJumpEngine> wrap_default(
    std::unique_ptr<sim::Engine> e) {
  const sim::EngineSpec* spec =
      sim::EngineRegistry::instance().find(e->engine_name());
  return std::make_unique<sim::CycleJumpEngine>(std::move(e),
                                                spec->cycle_accumulators);
}

constexpr const char* kRingBackends[] = {"ring", "rotor", "lazy"};

TEST(CycleJump, ProbingStartsAtCover) {
  // No configuration repeats before cover, so the default schedule takes
  // no hash until every node is visited — and then it does probe.
  const NodeId n = 256;
  const sim::EngineConfig config = ring_trial(n, 4, 7, 0);
  for (const char* name : kRingBackends) {
    SCOPED_TRACE(name);
    auto e = wrap_default(create_ring(name, n, config));
    const std::uint64_t cover = e->run_until_covered(1ULL << 32);
    ASSERT_NE(cover, sim::kNotCovered);
    EXPECT_EQ(e->time(), cover);
    EXPECT_EQ(e->stats().samples, 0u);
    e->run(1ULL << 16);
    EXPECT_GT(e->stats().samples, 0u);
  }
}

TEST(CycleJump, DefaultStrideIsCostScaled) {
  // One O(n) hash per power-of-two stride >= 32 n / k rounds: over a
  // post-cover horizon of H rounds, at most H / stride + 1 samples.
  const std::uint64_t horizon = 1ULL << 18;
  for (const auto& [n, k] : {std::pair<NodeId, std::uint32_t>{1024, 2},
                             {1024, 32},
                             {512, 8},
                             {128, 64}}) {
    const std::uint64_t stride =
        std::bit_ceil(std::max<std::uint64_t>(64, 32 * n / k));
    const sim::EngineConfig config = ring_trial(n, k, 3, 1);
    for (const char* name : kRingBackends) {
      SCOPED_TRACE(::testing::Message() << name << " n=" << n << " k=" << k);
      auto e = wrap_default(create_ring(name, n, config));
      ASSERT_NE(e->run_until_covered(1ULL << 32), sim::kNotCovered);
      e->run(horizon);
      EXPECT_LE(e->stats().samples, horizon / stride + 1);
      EXPECT_GT(e->stats().samples, 0u);
    }
  }
}

TEST(CycleJump, SparseRingSweepTrialLeapsItsHorizonExactly) {
  // ring-sweep's sparsest shape (ring 1024, k = 2, trial 0 of seed 1):
  // the orbit locks in a few 10^5 rounds after cover, inside the 2^20-
  // round horizon, and the default schedule must find and leap it.
  const NodeId n = 1024;
  const sim::EngineConfig config = ring_trial(n, 2, 1, 0);
  for (const char* name : kRingBackends) {
    SCOPED_TRACE(name);
    auto dense = create_ring(name, n, config);
    auto leap = wrap_default(create_ring(name, n, config));
    ASSERT_EQ(dense->run_until_covered(1ULL << 32),
              leap->run_until_covered(1ULL << 32));
    for (int chunk = 0; chunk < 16; ++chunk) {
      dense->run(1ULL << 16);
      leap->run(1ULL << 16);
    }
    EXPECT_GT(leap->stats().leaped_rounds, 0u);
    EXPECT_EQ(leap->stats().rejects, 0u);
    EXPECT_EQ(dense->config_hash(), leap->config_hash());
    const Mismatch m = compare_engines(*dense, *leap);
    ASSERT_TRUE(m.ok) << "round " << m.round << ": " << m.detail;
    EXPECT_EQ(v2_doc(*dense, "ring 1024"), v2_doc(*leap, "ring 1024"));
  }
}

// ---- persisted cycle hints ----

/// The wrapper's serialized hint field, if present (what a hinted
/// checkpoint carries).
std::optional<std::string> hint_field(const sim::CycleJumpEngine& e) {
  sim::StateWriter w;
  e.serialize_state(w);
  for (const sim::WriterField& f : w.fields()) {
    if (f.key == "cycle.hint" && f.kind == sim::WriterField::Kind::kRaw) {
      return f.raw;
    }
  }
  return std::nullopt;
}

TEST(CycleHint, CodecRoundTripsAndRejectsMalformedInput) {
  std::vector<sim::AccumulatorDelta> deltas(3);
  deltas[0].key = "time";
  deltas[0].scalar = true;
  deltas[0].scalar_delta = 192;
  deltas[1].key = "visits";
  deltas[1].runs = {{5, 48}, {0, 1}, {~std::uint64_t{0}, 3}};
  deltas[2].key = "empty";  // zero-length accumulator list
  const std::string text = sim::encode_cycle_hint(192, deltas);
  EXPECT_EQ(text,
            "v1 p=192;time=s:192;visits=r:48x5,1x0,3x18446744073709551615;"
            "empty=r:");
  const auto hint = sim::decode_cycle_hint(text);
  ASSERT_TRUE(hint.has_value());
  EXPECT_EQ(hint->period, 192u);
  ASSERT_EQ(hint->deltas.size(), 3u);
  EXPECT_EQ(sim::encode_cycle_hint(hint->period, hint->deltas), text);
  // Unencodable inputs yield "" (no hint), never a malformed hint.
  EXPECT_EQ(sim::encode_cycle_hint(0, deltas), "");
  deltas[0].key = "ti;me";
  EXPECT_EQ(sim::encode_cycle_hint(192, deltas), "");
  // The parser is total: every malformed shape is a clean nullopt.
  for (const char* bad :
       {"", "v2 p=1", "v1 p=", "v1 p=0", "v1 p=1x", "v1 p=1;",
        "v1 p=1;=s:1", "v1 p=1;k", "v1 p=1;k=q:1", "v1 p=1;k=s:",
        "v1 p=1;k=s:1;", "v1 p=1;k=r:0x1", "v1 p=1;k=r:1x",
        "v1 p=1;k=r:1x2,", "v1 p=1;k=r:1x2 ", "v1 p=99999999999999999999",
        "v1 p=1;k=s:1junk"}) {
    EXPECT_FALSE(sim::decode_cycle_hint(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(CycleHint, ResumeThenLeapIsByteIdenticalToDetectThenLeap) {
  // The satellite gate: a wrapper resumed from a hinted checkpoint —
  // skipping Brent probing entirely — must land on checkpoints byte-
  // identical to the uninterrupted detect-then-leap run, hint included.
  const Backend b = deterministic_backends()[1];  // rotor on torus 6x8
  sim::CycleJumpOptions opt = fast_detect();
  opt.persist_hint = true;
  auto dense = b.make();
  sim::CycleJumpEngine detect(b.make(), b.accumulators, opt);
  dense->run(300000);
  detect.run(300000);
  ASSERT_TRUE(detect.stats().confirmed);
  const auto hint_text = hint_field(detect);
  ASSERT_TRUE(hint_text.has_value());
  const auto hint = sim::decode_cycle_hint(*hint_text);
  ASSERT_TRUE(hint.has_value());
  EXPECT_EQ(hint->period, detect.stats().period);
  // A hinted document still restores everywhere: the extra trailing key
  // is unknown to the rotor restore path and ignored.
  const std::string hinted_doc = v2_doc(detect, b.descriptor);
  std::unique_ptr<sim::Engine> restored = sim::restore_checkpoint(hinted_doc);
  ASSERT_NE(restored, nullptr);
  {
    const Mismatch m = compare_engines(*dense, *restored);
    ASSERT_TRUE(m.ok) << "hinted doc restore: " << m.detail;
  }
  // Resume with the hint adopted: no probing, straight to confirmation.
  sim::CycleJumpOptions resume_opt = opt;
  resume_opt.hint_period = hint->period;
  sim::CycleJumpEngine resumed(std::move(restored), b.accumulators,
                               resume_opt);
  dense->run(700001);
  detect.run(700001);
  resumed.run(700001);
  EXPECT_EQ(resumed.stats().samples, 0u);  // probing never ran
  EXPECT_GE(resumed.stats().leaps, 1u);
  EXPECT_EQ(resumed.stats().period, detect.stats().period);
  const Mismatch m = compare_engines(*dense, resumed);
  ASSERT_TRUE(m.ok) << "round " << m.round << ": " << m.detail;
  ASSERT_EQ(v2_doc(detect, b.descriptor), v2_doc(resumed, b.descriptor));
}

TEST(CycleHint, WrongHintIsRejectedByConfirmationAndStaysExact) {
  // An adversarial or stale hint must cost laps, never correctness: the
  // hinted candidate fails rigid confirmation and the wrapper falls back
  // to ordinary probing.
  const Backend b = deterministic_backends()[0];  // rotor on ring 48
  sim::CycleJumpOptions opt = fast_detect();
  opt.hint_period = 7;  // not a period multiple of anything here
  auto dense = b.make();
  sim::CycleJumpEngine leap(b.make(), b.accumulators, opt);
  dense->run(300000);
  leap.run(300000);
  const Mismatch m = compare_engines(*dense, leap);
  ASSERT_TRUE(m.ok) << "round " << m.round << ": " << m.detail;
  EXPECT_EQ(v2_doc(*dense, b.descriptor), v2_doc(leap, b.descriptor));
  EXPECT_GE(leap.stats().rejects, 1u);   // the bogus hint died
  EXPECT_TRUE(leap.stats().confirmed);   // probing still found the real one
  EXPECT_GE(leap.stats().leaps, 1u);
}

TEST(CycleHint, HintOffKeepsCheckpointBytesIdenticalToDense) {
  // persist_hint off (the default) must not change a single byte.
  const Backend b = deterministic_backends()[0];
  auto dense = b.make();
  auto leap = wrap(b);
  dense->run(300000);
  leap->run(300000);
  ASSERT_TRUE(leap->stats().confirmed);
  EXPECT_FALSE(hint_field(*leap).has_value());
  EXPECT_EQ(v2_doc(*dense, b.descriptor), v2_doc(*leap, b.descriptor));
}

// ---- forced-hash-collision lane ----

/// A deterministic engine whose config_hash repeats every 4 rounds while
/// a rigid serialized counter never repeats: every Brent candidate is a
/// 64-bit-collision stand-in, and confirmation must reject all of them.
class CollisionStubEngine final : public sim::Engine, public sim::StateIO {
 public:
  void step() override {
    ++time_;
    ++counter_;
  }
  std::uint64_t time() const override { return time_; }
  sim::NodeId num_nodes() const override { return 1; }
  std::uint32_t num_agents() const override { return 1; }
  std::uint64_t visits(sim::NodeId) const override { return time_ + 1; }
  std::uint64_t first_visit_time(sim::NodeId) const override { return 0; }
  sim::NodeId covered_count() const override { return 1; }
  std::uint64_t config_hash() const override { return time_ % 4; }
  const char* engine_name() const override { return "collision-stub"; }

  void serialize_state(sim::StateWriter& out) const override {
    out.field_u64("time", time_);
    out.field_u64("counter", counter_);  // rigid: never matches across rounds
  }
  [[nodiscard]] bool deserialize_state(const sim::StateReader& in) override {
    const auto t = in.u64("time");
    const auto c = in.u64("counter");
    if (!t || !c) return false;
    time_ = *t;
    counter_ = *c;
    return true;
  }

  std::uint64_t counter() const { return counter_; }

 private:
  void do_step_delayed(const sim::DelayFn&) override { step(); }

  std::uint64_t time_ = 0;
  std::uint64_t counter_ = 0;
};

TEST(CycleJump, HashCollisionsAreRejectedAndNeverMisLeap) {
  sim::CycleJumpOptions opt;
  opt.min_stride = 1;
  opt.samples_per_generation = 16;
  opt.max_rejects = 3;
  opt.max_confirm_laps = 2;
  opt.detect_budget = 1u << 20;
  auto stub = std::make_unique<CollisionStubEngine>();
  CollisionStubEngine* raw = stub.get();
  sim::CycleJumpEngine wrapped(std::move(stub), {"time"}, opt);
  const std::uint64_t rounds = 50000;
  wrapped.run(rounds);
  // Exactness first: a mis-leap would advance time without advancing the
  // rigid counter (or vice versa).
  EXPECT_EQ(wrapped.time(), rounds);
  EXPECT_EQ(raw->counter(), rounds);
  // The colliding hash stream must have proposed candidates, and full-
  // state confirmation must have killed every one of them.
  const sim::CycleJumpStats& st = wrapped.stats();
  EXPECT_GE(st.candidates, 1u);
  EXPECT_GE(st.rejects, 1u);
  EXPECT_EQ(st.leaps, 0u);
  EXPECT_EQ(st.leaped_rounds, 0u);
  EXPECT_FALSE(st.confirmed);
  // max_rejects failures permanently fall back to dense stepping.
  EXPECT_TRUE(st.abandoned);
}

TEST(CycleJump, WrapModesRespectDeterminism) {
  graph::CsrGraph g = graph::ring(16);
  const std::vector<NodeId> agents = {0, 3};
  // kOn on a stochastic backend is a hard error, not a silent no-op.
  std::string error;
  auto walks = std::make_unique<walk::GraphRandomWalks>(g, agents, 1);
  auto refused = sim::wrap_cycle_jump(std::move(walks), sim::CycleJumpMode::kOn,
                                      {}, &error);
  EXPECT_EQ(refused, nullptr);
  EXPECT_NE(error.find("not deterministic"), std::string::npos) << error;
  // kAuto passes stochastic and registry-unknown engines through unchanged.
  auto walks2 = std::make_unique<walk::GraphRandomWalks>(g, agents, 1);
  auto passed =
      sim::wrap_cycle_jump(std::move(walks2), sim::CycleJumpMode::kAuto);
  ASSERT_NE(passed, nullptr);
  EXPECT_EQ(dynamic_cast<sim::CycleJumpEngine*>(passed.get()), nullptr);
  auto stub = std::make_unique<CollisionStubEngine>();
  auto unknown =
      sim::wrap_cycle_jump(std::move(stub), sim::CycleJumpMode::kAuto);
  ASSERT_NE(unknown, nullptr);
  EXPECT_EQ(dynamic_cast<sim::CycleJumpEngine*>(unknown.get()), nullptr);
  // kAuto wraps registry-deterministic engines.
  auto rotor = std::make_unique<core::RotorRouter>(
      g, agents, std::vector<std::uint32_t>{});
  auto wrapped =
      sim::wrap_cycle_jump(std::move(rotor), sim::CycleJumpMode::kAuto);
  ASSERT_NE(wrapped, nullptr);
  EXPECT_NE(dynamic_cast<sim::CycleJumpEngine*>(wrapped.get()), nullptr);
  // kOff never wraps, even deterministic engines.
  auto rotor2 = std::make_unique<core::RotorRouter>(
      g, agents, std::vector<std::uint32_t>{});
  auto off = sim::wrap_cycle_jump(std::move(rotor2), sim::CycleJumpMode::kOff);
  ASSERT_NE(off, nullptr);
  EXPECT_EQ(dynamic_cast<sim::CycleJumpEngine*>(off.get()), nullptr);
}

}  // namespace
}  // namespace rr::testing
