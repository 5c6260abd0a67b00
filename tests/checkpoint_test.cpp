// Tests for the engine-generic state I/O stack: graph descriptors,
// checkpoint framing, per-engine round-trips, sweep checkpoints, and
// malformed-input robustness (parsers must reject, never abort).

#include "sim/checkpoint.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/continuous_engine.hpp"
#include "common/rng.hpp"
#include "core/eulerian_rotor_router.hpp"
#include "core/initializers.hpp"
#include "core/lazy_ring_rotor_router.hpp"
#include "core/ring_rotor_router.hpp"
#include "core/rotor_router.hpp"
#include "graph/descriptor.hpp"
#include "graph/generators.hpp"
#include "sim/ckpt_v2.hpp"
#include "sim/runner.hpp"
#include "temp_path.hpp"
#include "walk/random_walk.hpp"

namespace rr::sim {
namespace {

using core::NodeId;

// ---- graph descriptors ----

TEST(GraphDescriptor, RoundTripsAllKinds) {
  using graph::GraphDescriptor;
  const GraphDescriptor all[] = {
      GraphDescriptor::ring(64),          GraphDescriptor::path(9),
      GraphDescriptor::grid(8, 5),        GraphDescriptor::torus(16, 16),
      GraphDescriptor::clique(12),        GraphDescriptor::star(7),
      GraphDescriptor::binary_tree(15),   GraphDescriptor::hypercube(6),
      GraphDescriptor::lollipop(20, 8),   GraphDescriptor::random_regular(32, 4, 7),
      GraphDescriptor::erdos_renyi(24, 0.25, 9),
  };
  for (const auto& d : all) {
    SCOPED_TRACE(d.text());
    const auto parsed = GraphDescriptor::parse(d.text());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, d);
    const auto g = d.build();
    ASSERT_TRUE(g.has_value());
    ASSERT_TRUE(d.num_nodes().has_value());
    EXPECT_EQ(g->num_nodes(), *d.num_nodes());
    EXPECT_TRUE(g->is_connected());
  }
}

TEST(GraphDescriptor, RejectsMalformedInput) {
  const char* bad[] = {
      "",
      " ",
      "ring",             // missing arity
      "ring 5 5",         // extra arg
      "ring 2",           // below minimum
      "ring x",           // non-numeric
      "ring  8",          // double space
      "ring 8 ",          // trailing space
      "moebius 8",        // unknown kind
      "torus 2 8",        // side below minimum
      "torus 70000 70000",  // node count overflow
      "hypercube 0",
      "hypercube 40",
      "lollipop 8 2",
      "lollipop 8 9",
      "random-regular 9 3 1",  // odd n*d
      "random-regular 8 1 1",  // degree below minimum
      "erdos-renyi 24 0 1",
      "erdos-renyi 24 1.5 1",
      "erdos-renyi 24 nan 1",
      // Unsatisfiable / unbuildable-within-bounds descriptors: grammatical,
      // but build() would abort (generator give-up) or bad_alloc, so
      // validation must reject them up front (never-abort contract).
      "erdos-renyi 500 0.0001 1",   // below the connectivity threshold
      "erdos-renyi 100000 0.5 1",   // O(n^2) pair scans per attempt
      "clique 200000",              // n(n-1) arcs ~ 4e10
      "ring 4294967295",            // adjacency alone exceeds the arc cap
      "random-regular 100000000 4 1",
  };
  for (const char* text : bad) {
    SCOPED_TRACE(text);
    const auto d = graph::GraphDescriptor::parse(text);
    EXPECT_FALSE(d && d->build().has_value());
  }
}

// ---- per-engine checkpoint round-trips ----

// Advances `a` and a restored copy `b` of it `rounds` more rounds and
// requires identical observables throughout.
void expect_lockstep(Engine& a, Engine& b, std::uint64_t rounds) {
  for (std::uint64_t t = 0; t <= rounds; ++t) {
    ASSERT_EQ(a.time(), b.time());
    ASSERT_EQ(a.config_hash(), b.config_hash()) << "t=" << a.time();
    ASSERT_EQ(a.covered_count(), b.covered_count());
    for (NodeId v = 0; v < a.num_nodes(); ++v) {
      ASSERT_EQ(a.visits(v), b.visits(v)) << "t=" << a.time() << " v=" << v;
      ASSERT_EQ(a.first_visit_time(v), b.first_visit_time(v)) << "v=" << v;
    }
    if (t < rounds) {
      a.step();
      b.step();
    }
  }
}

TEST(Checkpoint, RoundTripsEveryBackendMidRun) {
  graph::CsrGraph torus = graph::torus(8, 8);
  graph::CsrGraph ringg = graph::ring(48);
  const std::vector<NodeId> spread{0, 12, 24, 36};
  struct Case {
    std::unique_ptr<Engine> engine;
    std::string descriptor;
  };
  Case cases[7];
  cases[0] = {std::make_unique<core::RotorRouter>(torus, spread), "torus 8 8"};
  cases[1] = {std::make_unique<core::RingRotorRouter>(48, spread), "ring 48"};
  // Ring 48 is too crowded for four agents to promote on their own: one
  // lazy engine stays dense, its twin is forced onto the sparse runs.
  cases[2] = {std::make_unique<core::LazyRingRotorRouter>(
                  48, spread, core::pointers_negative(48, spread)),
              "ring 48"};
  auto sparse = std::make_unique<core::LazyRingRotorRouter>(
      48, spread, core::pointers_negative(48, spread));
  ASSERT_TRUE(sparse->try_promote(/*force=*/true));
  cases[3] = {std::move(sparse), "ring 48"};
  cases[4] = {std::make_unique<walk::GraphRandomWalks>(torus, spread, 77),
              "torus 8 8"};
  cases[5] = {std::make_unique<core::EulerianRotorRouter>(torus, spread),
              "torus 8 8"};
  cases[6] = {std::make_unique<analysis::ContinuousDomainEngine>(48, spread),
              "ring 48"};
  for (auto& c : cases) {
    SCOPED_TRACE(c.engine->engine_name());
    c.engine->run(137);
    const std::string text = write_checkpoint(*c.engine, c.descriptor);
    const auto parsed = parse_checkpoint(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->engine, c.engine->engine_name());
    EXPECT_EQ(parsed->graph_descriptor, c.descriptor);
    auto restored = restore_checkpoint(text);
    ASSERT_TRUE(restored != nullptr);
    EXPECT_EQ(std::string(restored->engine_name()), c.engine->engine_name());
    EXPECT_EQ(restored->num_agents(), c.engine->num_agents());
    expect_lockstep(*c.engine, *restored, 100);
  }
}

TEST(Checkpoint, LazyCheckpointRestoresPromotedRepresentation) {
  // A post-promotion checkpoint must come back in the O(k) representation
  // (no dense prefix left), and a pre-promotion checkpoint must demote a
  // lazily-constructed fresh instance back to the dense engine.
  const auto agents = core::place_equally_spaced(256, 4);
  core::LazyRingRotorRouter promoted(256, agents);
  ASSERT_TRUE(promoted.lazy());  // compact field promotes at round 0
  promoted.run(1000);
  auto restored = restore_checkpoint(write_checkpoint(promoted, "ring 256"));
  ASSERT_TRUE(restored != nullptr);
  auto* lazy = dynamic_cast<core::LazyRingRotorRouter*>(restored.get());
  ASSERT_TRUE(lazy != nullptr);
  EXPECT_TRUE(lazy->lazy());

  // Adversarial pointers keep the engine dense; its checkpoint carries
  // phase=dense even though the fresh restore target starts promoted.
  // A random field on n=256 has ~128 pointer arcs, above the promotion
  // threshold (max(64, 4k+16)), so the engine genuinely starts dense.
  Rng rng(5);
  core::LazyRingRotorRouter dense_phase(256, {0, 0, 7},
                                        core::pointers_random(256, rng));
  ASSERT_FALSE(dense_phase.lazy());
  dense_phase.run(13);
  ASSERT_FALSE(dense_phase.lazy());
  auto restored2 =
      restore_checkpoint(write_checkpoint(dense_phase, "ring 256"));
  ASSERT_TRUE(restored2 != nullptr);
  auto* lazy2 = dynamic_cast<core::LazyRingRotorRouter*>(restored2.get());
  ASSERT_TRUE(lazy2 != nullptr);
  EXPECT_FALSE(lazy2->lazy());
  expect_lockstep(dense_phase, *restored2, 600);  // crosses promotion
}

TEST(Checkpoint, PreservesArcTraversalIdentity) {
  // initial_pointers_ must survive the round trip: arc_traversals is
  // derived from it (Sec. 1.3 identity).
  graph::CsrGraph g = graph::torus(5, 5);
  std::vector<std::uint32_t> ptrs(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) ptrs[v] = v % g.degree(v);
  core::RotorRouter rr(g, {0, 7, 13}, ptrs);
  rr.run(97);
  auto restored = restore_checkpoint(write_checkpoint(rr, "torus 5 5"));
  ASSERT_TRUE(restored != nullptr);
  auto* twin = dynamic_cast<core::RotorRouter*>(restored.get());
  ASSERT_TRUE(twin != nullptr);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(twin->exits(v), rr.exits(v)) << "v=" << v;
    for (std::uint32_t p = 0; p < g.degree(v); ++p) {
      ASSERT_EQ(twin->arc_traversals(v, p), rr.arc_traversals(v, p))
          << "v=" << v << " p=" << p;
    }
  }
}

// ---- malformed input: reject, never abort ----

TEST(Checkpoint, RejectsMalformedFraming) {
  core::RingRotorRouter rr(16, {0, 8});
  rr.run(10);
  const std::string good = write_checkpoint(rr, "ring 16");
  ASSERT_TRUE(restore_checkpoint(good) != nullptr);
  // The frames and footer after the header line, '\n' included.
  const std::string body = good.substr(good.find('\n'));
  ASSERT_TRUE(
      parse_checkpoint("rr-ckpt v2 engine=x graph=ring 16" + body).has_value());

  // Header grammar: "rr-ckpt v2 engine=<name> graph=<descriptor>".
  EXPECT_FALSE(parse_checkpoint("").has_value());
  EXPECT_FALSE(parse_checkpoint("rr-ckpt v2 engine=x graph=ring 16\nend\n")
                   .has_value());  // text body
  EXPECT_FALSE(parse_checkpoint("rr-ckpt v2 engine= graph=ring 16" + body)
                   .has_value());  // empty engine
  EXPECT_FALSE(parse_checkpoint("rr-ckpt v2 engine=x graph=" + body)
                   .has_value());  // empty descriptor
  EXPECT_FALSE(parse_checkpoint("rr-ckpt v2 engine=x" + body)
                   .has_value());  // no graph
  EXPECT_FALSE(parse_checkpoint("rr-ckpt v2 graph=ring 16" + body)
                   .has_value());  // no engine
  EXPECT_FALSE(parse_checkpoint("rr-ckpt v2 engine=x graph=ring 16")
                   .has_value());  // no header newline
  EXPECT_FALSE(parse_checkpoint("rr-ckpt v2 engine=x graph=ring 16\n")
                   .has_value());  // no body
  EXPECT_FALSE(parse_checkpoint("rr-ckpt v3 engine=x graph=ring 16" + body)
                   .has_value());  // unknown version
  StateWriter duplicate;
  duplicate.field_u64("time", 1);
  duplicate.field_u64("time", 2);
  EXPECT_FALSE(
      parse_checkpoint(encode_checkpoint_v2("x", "ring 16", duplicate, 16))
          .has_value());  // duplicate key

  // rr-ckpt v1 text is not a format: its header is malformed, whatever
  // body follows.
  EXPECT_FALSE(parse_checkpoint("rr-ckpt v1 engine=ring-rotor-router "
                                "graph=ring 16\ntime=10\nend\n")
                   .has_value());
  EXPECT_FALSE(parse_checkpoint("rr-ckpt v1 engine=ring-rotor-router "
                                "graph=ring 16" + body)
                   .has_value());

  // Valid framing, bogus content: parse succeeds, restore must not.
  StateWriter state;
  rr.serialize_state(state);
  const auto framed = [&](const char* engine, const char* graph,
                          const StateWriter& w) {
    const std::string doc = encode_checkpoint_v2(engine, graph, w, 16);
    EXPECT_TRUE(parse_checkpoint(doc).has_value()) << engine;
    return doc;
  };
  EXPECT_TRUE(restore_checkpoint(framed("rotor-router", "ring 16",
                                        StateWriter{})) ==
              nullptr);  // missing fields
  EXPECT_TRUE(restore_checkpoint(framed("warp-drive", "ring 16", state)) ==
              nullptr);  // unknown engine
  EXPECT_TRUE(restore_checkpoint(framed("ring-rotor-router", "torus 4 4",
                                        state)) ==
              nullptr);  // ring engine on a non-ring substrate
}

TEST(Checkpoint, FuzzedDocumentsNeverAbort) {
  // Truncations, point mutations, span drops and duplications over real
  // v2 checkpoints of every backend (dist writes the rotor-router
  // document, byte for byte): every variant must come back
  // nullopt/nullptr (or a well-formed engine for benign mutations)
  // without aborting.
  graph::CsrGraph torus = graph::torus(6, 6);
  std::vector<std::string> seeds;
  {
    core::RotorRouter a(torus, {0, 18});
    a.run(41);
    seeds.push_back(write_checkpoint(a, "torus 6 6"));
    core::RingRotorRouter b(24, {0, 12});
    b.run(41);
    seeds.push_back(write_checkpoint(b, "ring 24"));
    // Both lazy phases: ring 24 is too crowded for three agents to
    // promote on their own, so the sparse seed is forced.
    core::LazyRingRotorRouter c(24, core::place_equally_spaced(24, 3));
    c.run(41);
    ASSERT_FALSE(c.lazy());
    seeds.push_back(write_checkpoint(c, "ring 24"));
    ASSERT_TRUE(c.try_promote(/*force=*/true));
    c.run(5);
    seeds.push_back(write_checkpoint(c, "ring 24"));
    walk::GraphRandomWalks d(torus, {0, 18}, 9);
    d.run(41);
    seeds.push_back(write_checkpoint(d, "torus 6 6"));
    core::EulerianRotorRouter e(torus, {0, 18});
    e.run(41);
    seeds.push_back(write_checkpoint(e, "torus 6 6"));
    analysis::ContinuousDomainEngine f(24, {0, 12});
    f.run(41);
    seeds.push_back(write_checkpoint(f, "ring 24"));
  }
  Rng rng(0xF022);
  for (const std::string& seed : seeds) {
    // Sampled byte truncations.
    for (std::size_t cut = 0; cut < seed.size();
         cut += 1 + rng.bounded(23)) {
      (void)restore_checkpoint(seed.substr(0, cut));
    }
    for (int trial = 0; trial < 400; ++trial) {
      std::string mutated = seed;
      const int op = static_cast<int>(rng.bounded(3));
      if (op == 0) {  // flip a byte to a random printable / control char
        mutated[rng.bounded(static_cast<std::uint32_t>(mutated.size()))] =
            static_cast<char>(rng.bounded(96) + 32 - (rng.bounded(8) == 0));
      } else if (op == 1) {  // delete a random span
        const std::size_t at =
            rng.bounded(static_cast<std::uint32_t>(mutated.size()));
        mutated.erase(at, 1 + rng.bounded(16));
      } else {  // duplicate a random span (breaks counts / uniqueness)
        const std::size_t at =
            rng.bounded(static_cast<std::uint32_t>(mutated.size()));
        mutated.insert(at, mutated.substr(at, 1 + rng.bounded(8)));
      }
      auto engine = restore_checkpoint(mutated);
      if (engine) {
        engine->step();  // a benign mutation must still step safely
      }
    }
  }
}

// ---- ring configurations through the checkpoint document ----
//
// A ring run's checkpoint carries its configuration (pointers and agent
// multiset) exactly, so a resumed run continues it.

core::RingRotorRouter& as_ring(Engine& engine) {
  return dynamic_cast<core::RingRotorRouter&>(engine);
}

TEST(Snapshot, CheckpointResumesExactly) {
  // Run A for 500 rounds; checkpoint at 200 and run the resumed engine for
  // 300: identical final configurations.
  const auto agents = core::place_equally_spaced(40, 3);
  core::RingRotorRouter full(40, agents, core::pointers_negative(40, agents));
  full.run(200);
  auto resumed = restore_checkpoint(write_checkpoint(full, "ring 40"));
  ASSERT_TRUE(resumed != nullptr);
  full.run(300);
  resumed->run(300);
  for (NodeId v = 0; v < 40; ++v) {
    ASSERT_EQ(full.agents_at(v), as_ring(*resumed).agents_at(v)) << "v " << v;
    ASSERT_EQ(full.pointer(v), as_ring(*resumed).pointer(v)) << "v " << v;
  }
}

TEST(Snapshot, CheckpointRoundTripsThroughText) {
  core::RingRotorRouter rr(24, {0, 0, 12, 17});
  rr.run(77);
  auto parsed = restore_checkpoint(write_checkpoint(rr, "ring 24"));
  ASSERT_TRUE(parsed != nullptr);
  for (NodeId v = 0; v < 24; ++v) {
    EXPECT_EQ(as_ring(*parsed).agents_at(v), rr.agents_at(v)) << "v " << v;
    EXPECT_EQ(as_ring(*parsed).pointer(v), rr.pointer(v)) << "v " << v;
  }
}

TEST(Snapshot, CheckpointPreservesAgentCount) {
  core::RingRotorRouter rr(30, core::place_all_on_one(7, 4),
                           core::pointers_toward(30, 4));
  rr.run(123);
  EXPECT_EQ(restore_checkpoint(write_checkpoint(rr, "ring 30"))->num_agents(),
            7u);
}

// ---- RNG stream state ----

TEST(RngState, SaveRestoreResumesTheStream) {
  Rng rng(123);
  for (int i = 0; i < 17; ++i) (void)rng();
  const auto state = rng.save_state();
  std::vector<std::uint64_t> expected;
  for (int i = 0; i < 32; ++i) expected.push_back(rng());
  Rng fresh(999);
  ASSERT_TRUE(fresh.restore_state(state));
  for (int i = 0; i < 32; ++i) ASSERT_EQ(fresh(), expected[i]) << "i=" << i;
  EXPECT_FALSE(fresh.restore_state({0, 0, 0, 0}));
}

// ---- sweep checkpoints / resumable Runner ----

TEST(SweepCheckpoint, TextRoundTrip) {
  SweepCheckpoint ck = SweepCheckpoint::fresh(10);
  ck.done[2] = 1;
  ck.results[2] = 1234;
  ck.done[7] = 1;
  ck.results[7] = kNotCovered;  // not-covered results survive the trip
  const std::string text = ck.to_text();
  const auto back = SweepCheckpoint::from_text(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->trials, 10u);
  EXPECT_EQ(back->completed(), 2u);
  EXPECT_EQ(back->results[2], 1234u);
  EXPECT_EQ(back->results[7], kNotCovered);
  EXPECT_EQ(back->to_text(), text);

  EXPECT_FALSE(SweepCheckpoint::from_text("").has_value());
  EXPECT_FALSE(SweepCheckpoint::from_text("rr-sweep v1 trials=0 done=")
                   .has_value());
  EXPECT_FALSE(
      SweepCheckpoint::from_text("rr-sweep v1 trials=4294967296 done=")
          .has_value());  // crafted trial count must not allocate GBs
  EXPECT_FALSE(SweepCheckpoint::from_text("rr-sweep v1 trials=4 done=9:1")
                   .has_value());  // index out of range
  EXPECT_FALSE(SweepCheckpoint::from_text("rr-sweep v1 trials=4 done=1:1,1:2")
                   .has_value());  // duplicate trial
  EXPECT_FALSE(SweepCheckpoint::from_text("rr-sweep v1 trials=4 done=1")
                   .has_value());  // missing value
}

TEST(Runner, ResumedSweepMatchesUninterrupted) {
  // An interrupted sweep (half the trials done, checkpointed, reloaded)
  // must fill in exactly the cover times of the uninterrupted sweep:
  // trials are deterministic in their index.
  Runner runner(4);
  const auto factory = [](std::uint64_t trial) -> std::unique_ptr<Engine> {
    Rng rng = trial_rng(17, trial);
    const core::NodeId n = 32 + rng.bounded(32);
    return std::make_unique<core::RingRotorRouter>(
        n, core::place_random(n, 3, rng));
  };
  const std::uint64_t kTrials = 64;
  const auto full =
      runner.cover_times(kTrials, factory, /*max_rounds=*/1u << 20);

  SweepCheckpoint first = SweepCheckpoint::fresh(kTrials);
  for (std::uint64_t i = 0; i < kTrials; i += 2) {
    first.results[i] = full[i];  // half the sweep "already ran"
    first.done[i] = 1;
  }
  const auto reloaded = SweepCheckpoint::from_text(first.to_text());
  ASSERT_TRUE(reloaded.has_value());
  ASSERT_EQ(reloaded->completed(), kTrials / 2);
  SweepCheckpoint resume = *reloaded;
  const auto resumed =
      runner.cover_times(kTrials, factory, /*max_rounds=*/1u << 20, resume);
  EXPECT_TRUE(resume.complete());
  EXPECT_EQ(resumed, full);
}

TEST(Runner, ChunkedClaimingCoversEveryJobExactlyOnce) {
  // Chunked fetch-add claiming must preserve the exactly-once contract for
  // every chunk size, including ones larger than the batch.
  Runner runner(4);
  for (std::uint64_t chunk : {0ULL, 1ULL, 3ULL, 64ULL, 1000ULL}) {
    std::vector<std::uint8_t> seen(517, 0);
    runner.for_each(
        seen.size(), [&](std::uint64_t i) { ++seen[i]; }, chunk);
    for (std::size_t i = 0; i < seen.size(); ++i) {
      ASSERT_EQ(seen[i], 1) << "chunk " << chunk << " job " << i;
    }
  }
}

TEST(Checkpoint, FileRoundTrip) {
  core::RingRotorRouter rr(20, {0, 10});
  rr.run(25);
  const std::string text = write_checkpoint(rr, "ring 20");
  const std::string path = rr::testing::test_temp_path("rr_ckpt_test.txt");
  ASSERT_TRUE(save_checkpoint_file(path, text));
  const auto back = read_text_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, text);
  EXPECT_FALSE(read_text_file(path + ".does-not-exist").has_value());
}

}  // namespace
}  // namespace rr::sim
