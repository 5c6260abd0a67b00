// Differential gate for shard-parallel stepping: RotorRouter with N shards
// must be bit-equal — per-round config_hash, visits, first-visit rounds,
// coverage — to the sequential RotorRouter for every tested shard count
// ({1, 2, 3, 7, 8}), across topologies, adversarial delayed schedules,
// pool thread counts, and the save→load→continue lane (including restarts
// that change the shard count mid-run: checkpoints are interchangeable
// between the sequential and sharded engines).
//
// The save's agent-site collector gets its own cases (SiteCollector*):
// a sharded engine's v2 bytes against its 1-shard twin's. Engines and
// restores built on a pool above its node cutoff (PooledBuild*) must
// match the ones built inline.
//
// RR_TEST_POOL_THREADS narrows the thread matrix to one value; the ASan
// and TSan CI jobs re-run this suite across the matrix that way.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/rotor_router.hpp"
#include "differential.hpp"
#include "graph/descriptor.hpp"
#include "graph/generators.hpp"
#include "pool_matrix.hpp"
#include "sim/checkpoint.hpp"
#include "sim/ckpt_v2.hpp"
#include "sim/cycle_jump.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"
#include "sim/thread_pool.hpp"

namespace rr::testing {
namespace {

constexpr std::uint32_t kShardCounts[] = {1, 2, 3, 7, 8};

struct Topology {
  const char* name;
  graph::Graph graph;
};

std::vector<Topology> topologies() {
  std::vector<Topology> topo;
  topo.push_back({"ring(48)", graph::ring(48)});
  topo.push_back({"torus(8x9)", graph::torus(8, 9)});
  topo.push_back({"grid(7x5)", graph::grid(7, 5)});
  topo.push_back({"clique(13)", graph::clique(13)});
  topo.push_back({"star(21)", graph::star(21)});
  topo.push_back({"binary_tree(30)", graph::binary_tree(30)});
  topo.push_back({"lollipop(26,9)", graph::lollipop(26, 9)});
  topo.push_back({"random_regular(36,4)", graph::random_regular(36, 4, 11)});
  return topo;
}

// Random agents / pointers / delay schedule for an arbitrary graph; the
// delay kinds are RingScenario's (pure functions of (v, t, present), as
// the harness requires).
struct GraphScenario {
  std::vector<graph::NodeId> agents;
  std::vector<std::uint32_t> pointers;
  RingScenario delays;  // only delay_kind/delay_seed are used
  std::uint64_t rounds = 0;

  static GraphScenario random(const graph::Graph& g, Rng& rng) {
    GraphScenario sc;
    const graph::NodeId n = g.num_nodes();
    const std::uint32_t k = 1 + rng.bounded(24);
    sc.agents.resize(k);
    for (auto& a : sc.agents) a = rng.bounded(n);
    if (rng.bounded(2) == 0) {
      sc.pointers.resize(n);
      for (graph::NodeId v = 0; v < n; ++v) {
        sc.pointers[v] = rng.bounded(g.degree(v));
      }
    }
    sc.delays.delay_kind = static_cast<int>(rng.bounded(4));
    sc.delays.delay_seed = rng();
    sc.rounds = 24 + rng.bounded(2 * n);
    return sc;
  }
};

TEST(ShardedRotor, BitEqualToSequentialAcrossShardCountsAndTopologies) {
  Rng rng(0x5AAD5ULL);
  for (const Topology& topo : topologies()) {
    for (int config = 0; config < 12; ++config) {
      const GraphScenario sc = GraphScenario::random(topo.graph, rng);
      SCOPED_TRACE(::testing::Message()
                   << topo.name << " k=" << sc.agents.size() << " delay_kind="
                   << sc.delays.delay_kind << " rounds=" << sc.rounds);
      core::RotorRouter reference(topo.graph, sc.agents, sc.pointers);
      std::vector<std::unique_ptr<core::RotorRouter>> candidates;
      std::vector<sim::Engine*> engines{&reference};
      for (std::uint32_t shards : kShardCounts) {
        candidates.push_back(std::make_unique<core::RotorRouter>(
            topo.graph, sc.agents, sc.pointers, shards));
        engines.push_back(candidates.back().get());
      }
      const Mismatch m =
          run_lockstep_delayed(engines, sc.rounds, sc.delays.delay());
      ASSERT_TRUE(m.ok) << "round " << m.round << ": " << m.detail;
    }
  }
}

TEST(ShardedRotor, ThreadCountNeverChangesTheTrajectory) {
  // Pool threads are an execution resource, shards a partition choice;
  // neither may leak into the dynamics.
  const graph::Graph g = graph::torus(9, 8);
  Rng rng(0x7EADC07ULL);
  for (unsigned threads : pool_widths()) {
    sim::ThreadPool pool(threads);
    for (int config = 0; config < 10; ++config) {
      const GraphScenario sc = GraphScenario::random(g, rng);
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " k=" << sc.agents.size()
                   << " delay_kind=" << sc.delays.delay_kind);
      core::RotorRouter reference(g, sc.agents, sc.pointers);
      std::vector<std::unique_ptr<core::RotorRouter>> candidates;
      std::vector<sim::Engine*> engines{&reference};
      for (std::uint32_t shards : {2u, 3u, 8u}) {
        candidates.push_back(std::make_unique<core::RotorRouter>(
            g, sc.agents, sc.pointers, shards, &pool));
        engines.push_back(candidates.back().get());
      }
      const Mismatch m =
          run_lockstep_delayed(engines, sc.rounds, sc.delays.delay());
      ASSERT_TRUE(m.ok) << "round " << m.round << ": " << m.detail;
    }
  }
}

TEST(ShardedRotor, SharedRunnerPoolStepsInlineInsideTrials) {
  // A sharded engine drawing from the Runner's pool, stepped *inside* a
  // Runner trial: the nesting rule collapses shard dispatch to inline
  // execution — same trajectory, no deadlock, no oversubscription.
  const graph::Graph g = graph::torus(6, 6);
  const std::vector<graph::NodeId> agents{0, 7, 20};
  core::RotorRouter reference(g, agents);
  reference.run(64);
  sim::Runner runner(4);
  std::vector<std::uint64_t> hashes(8);
  runner.for_each(8, [&](std::uint64_t i) {
    core::RotorRouter sharded(g, agents, {}, /*shards=*/4, &runner.pool());
    sharded.run(64);
    hashes[i] = sharded.config_hash();
  });
  for (std::uint64_t h : hashes) EXPECT_EQ(h, reference.config_hash());
}

TEST(ShardedRotor, CheckpointRestartAcrossShardCounts) {
  // save → load → continue through the engine-generic checkpoint, with
  // the restart *changing* the shard count (including to/from the
  // sequential engine): every observable must continue bit-equal.
  const graph::GraphDescriptor descriptor = graph::GraphDescriptor::torus(7, 9);
  const graph::Graph g = *descriptor.build();
  Rng rng(0xC4EC4ULL);
  for (std::uint32_t shards_before : {1u, 3u, 8u}) {
    for (std::uint32_t shards_after : {1u, 2u, 7u}) {
      const GraphScenario sc = GraphScenario::random(g, rng);
      const std::uint64_t restart = sc.rounds / 2;
      SCOPED_TRACE(::testing::Message()
                   << "shards " << shards_before << " -> " << shards_after
                   << " restart@" << restart << " k=" << sc.agents.size());
      core::RotorRouter reference(g, sc.agents, sc.pointers);
      std::unique_ptr<sim::Engine> candidate =
          std::make_unique<core::RotorRouter>(g, sc.agents, sc.pointers,
                                              shards_before);
      const sim::DelayFn delay = sc.delays.delay();
      for (std::uint64_t t = 0; t < sc.rounds; ++t) {
        if (t == restart) {
          const std::string text =
              sim::write_checkpoint(*candidate, descriptor.text());
          const auto parsed = sim::parse_checkpoint(text);
          ASSERT_TRUE(parsed.has_value());
          EXPECT_EQ(parsed->engine, "rotor-router");
          candidate = sim::restore_checkpoint_sharded(*parsed, shards_after);
          ASSERT_NE(candidate, nullptr);
          auto* sharded = dynamic_cast<core::RotorRouter*>(candidate.get());
          ASSERT_NE(sharded, nullptr);
          EXPECT_EQ(sharded->num_shards(), shards_after);
          const Mismatch m = compare_engines(reference, *candidate);
          ASSERT_TRUE(m.ok) << "after restore: " << m.detail;
        }
        reference.step_delayed(delay);
        candidate->step_delayed(delay);
        const Mismatch m = compare_engines(reference, *candidate);
        ASSERT_TRUE(m.ok) << "round " << m.round << ": " << m.detail;
      }
    }
  }
}

TEST(ShardedRotor, SequentialCheckpointRestoresIntoShardedEngine) {
  // The reverse direction of interchangeability: a checkpoint written by
  // the *sequential* engine restores into a sharded one.
  const graph::GraphDescriptor descriptor = graph::GraphDescriptor::grid(6, 8);
  const graph::Graph g = *descriptor.build();
  const std::vector<graph::NodeId> agents{1, 5, 17, 17, 40};
  core::RotorRouter sequential(g, agents);
  sequential.run(37);
  const std::string text = sim::write_checkpoint(sequential, descriptor.text());
  const auto parsed = sim::parse_checkpoint(text);
  ASSERT_TRUE(parsed.has_value());
  auto sharded = sim::restore_checkpoint_sharded(*parsed, 5);
  ASSERT_NE(sharded, nullptr);
  {
    const Mismatch m = compare_engines(sequential, *sharded);
    ASSERT_TRUE(m.ok) << m.detail;
  }
  sequential.run(41);
  sharded->run(41);
  const Mismatch m = compare_engines(sequential, *sharded);
  ASSERT_TRUE(m.ok) << "round " << m.round << ": " << m.detail;
}

TEST(ShardedRotor, PooledV2RestoreMatchesSequentialRestore) {
  // A sharded restore decodes the v2 per-node segments on its pool: it
  // must land on exactly the state a sequential restore does, down to
  // the re-serialized bytes, and then step in lockstep with it.
  const graph::GraphDescriptor descriptor =
      graph::GraphDescriptor::torus(16, 12);
  const graph::Graph g = *descriptor.build();
  core::RotorRouter source(g, {0, 17, 17, 40, 101, 150}, {}, /*shards=*/3);
  source.run(211);
  const std::string text = sim::write_checkpoint(
      source, descriptor.text(), sim::CkptFormat::kV2, /*segments=*/8);
  sim::ThreadPool pool(4);
  const auto parsed = sim::parse_checkpoint(text, &pool);
  ASSERT_TRUE(parsed.has_value());
  const auto bounds =
      parsed->state.u64_list_segment_bounds("pointers", g.num_nodes());
  ASSERT_TRUE(bounds.has_value());
  ASSERT_GT(bounds->size(), 2u);  // several segments: the windowed decode

  auto sequential = sim::restore_checkpoint(*parsed);
  auto sharded = sim::restore_checkpoint_sharded(*parsed, 4, &pool);
  ASSERT_NE(sequential, nullptr);
  ASSERT_NE(sharded, nullptr);
  auto* rotor = dynamic_cast<core::RotorRouter*>(sharded.get());
  ASSERT_NE(rotor, nullptr);
  EXPECT_EQ(rotor->num_shards(), 4u);
  EXPECT_EQ(sim::write_checkpoint(*sequential, descriptor.text(),
                                  sim::CkptFormat::kV2, 8),
            sim::write_checkpoint(*sharded, descriptor.text(),
                                  sim::CkptFormat::kV2, 8));
  EXPECT_EQ(sharded->config_hash(), source.config_hash());
  for (int t = 0; t < 300; ++t) {
    sequential->step();
    sharded->step();
    ASSERT_EQ(sequential->config_hash(), sharded->config_hash())
        << "round " << sequential->time();
  }
  const Mismatch m = compare_engines(*sequential, *sharded);
  ASSERT_TRUE(m.ok) << m.detail;
}

// The save's agent-site collector: a 4-shard engine compacts each
// shard's rows into its own slice of the site list on the pool, the
// 1-shard engine scans [0, n) inline. Both must write the same bytes, and
// the sites must be exactly the nodes hosting agents, in the states that
// stress the slices: empty shards, held agents, a leap, a restore.

constexpr std::uint32_t kCollectShards = 4;

/// v2 bytes at the default segment count, so independent of any pool.
std::string v2_bytes(const sim::Engine& e, const std::string& descriptor) {
  return sim::write_checkpoint(e, descriptor, sim::CkptFormat::kV2,
                               sim::kV2DefaultSegments);
}

/// `sharded`'s document equals `single`'s, and its "agents" field lists
/// every node hosting an agent, ascending, with its count.
void expect_same_sites(const sim::Engine& sharded, const sim::Engine& single,
                       const std::string& descriptor) {
  const std::string doc = v2_bytes(sharded, descriptor);
  EXPECT_EQ(doc, v2_bytes(single, descriptor));
  const auto parsed = sim::parse_checkpoint(doc);
  ASSERT_TRUE(parsed.has_value());
  const auto sites = parsed->state.pairs("agents");
  ASSERT_TRUE(sites.has_value());
  const auto& rotor = dynamic_cast<const core::RotorRouter&>(single);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> expected;
  for (graph::NodeId v = 0; v < rotor.num_nodes(); ++v) {
    if (rotor.agents_at(v) > 0) expected.emplace_back(v, rotor.agents_at(v));
  }
  EXPECT_EQ(*sites, expected);
}

/// The first and last row of every shard of `g`'s 4-shard partition.
std::vector<graph::NodeId> shard_edges(const graph::Graph& g) {
  const graph::Partition part(graph::CsrGraph(g), kCollectShards);
  std::vector<graph::NodeId> edges;
  for (std::uint32_t s = 0; s < part.num_shards(); ++s) {
    edges.push_back(part.begin(s));
    edges.push_back(part.end(s) - 1);
  }
  return edges;
}

/// D(v, t, present) holding every agent on `edges` and half elsewhere.
sim::DelayFn hold_edges(std::vector<graph::NodeId> edges) {
  return [edges = std::move(edges)](graph::NodeId v, std::uint64_t,
                                    std::uint32_t present) {
    const bool edge = std::find(edges.begin(), edges.end(), v) != edges.end();
    return edge ? present : present / 2;
  };
}

TEST(ShardedRotor, SiteCollectorLeavesEmptyShardsEmpty) {
  // Every agent in shard 0's rows, its last row included: shards 1-3
  // collect nothing, before and after a round that holds every agent.
  const graph::GraphDescriptor descriptor =
      graph::GraphDescriptor::torus(16, 16);
  const graph::Graph g = *descriptor.build();
  const graph::Partition part(graph::CsrGraph(g), kCollectShards);
  ASSERT_EQ(part.num_shards(), kCollectShards);
  const graph::NodeId last = part.end(0) - 1;
  const std::vector<graph::NodeId> agents{0, 5, 5, last, last, last / 2};
  const auto hold_all = [](graph::NodeId, std::uint64_t,
                           std::uint32_t present) { return present; };
  for (unsigned threads : pool_widths()) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    sim::ThreadPool pool(threads);
    core::RotorRouter sharded(g, agents, {}, kCollectShards, &pool);
    core::RotorRouter single(g, agents);
    expect_same_sites(sharded, single, descriptor.text());
    sharded.step_delayed(hold_all);
    single.step_delayed(hold_all);
    expect_same_sites(sharded, single, descriptor.text());
  }
}

TEST(ShardedRotor, SiteCollectorKeepsHeldAgents) {
  // A delayed deployment holds every agent on the shards' first and last
  // rows and half of the others': held rows stay occupied round after
  // round, on both sides of every slice boundary.
  const graph::GraphDescriptor descriptor =
      graph::GraphDescriptor::torus(16, 16);
  const graph::Graph g = *descriptor.build();
  const std::vector<graph::NodeId> edges = shard_edges(g);
  std::vector<graph::NodeId> agents = edges;
  agents.insert(agents.end(), {17, 17, 100, 200, 255, 255});
  const sim::DelayFn delay = hold_edges(edges);
  for (unsigned threads : pool_widths()) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    sim::ThreadPool pool(threads);
    core::RotorRouter sharded(g, agents, {}, kCollectShards, &pool);
    core::RotorRouter single(g, agents);
    for (int t = 0; t < 24; ++t) {
      sharded.step_delayed(delay);
      single.step_delayed(delay);
      for (const graph::NodeId v : edges) ASSERT_GT(single.agents_at(v), 0u);
      expect_same_sites(sharded, single, descriptor.text());
    }
  }
}

TEST(ShardedRotor, SiteCollectorAfterCycleLeap) {
  // A leap patches time and the visit counters only; the occupied lists
  // the collector sizes its slices from must still match the rows. At
  // least deg = 4 agents per node keep every node occupied forever (each
  // sends one or more along every port), so every slice is full.
  const graph::GraphDescriptor descriptor = graph::GraphDescriptor::torus(8, 8);
  const graph::Graph g = *descriptor.build();
  std::vector<graph::NodeId> agents = shard_edges(g);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    agents.insert(agents.end(), 4, v);
  }
  const std::vector<std::string> accumulators = {"time", "visits", "exits",
                                                 "last_visit"};
  sim::CycleJumpOptions opt;
  opt.min_stride = 8;
  opt.samples_per_generation = 64;
  for (unsigned threads : pool_widths()) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    sim::ThreadPool pool(threads);
    sim::CycleJumpEngine sharded(
        std::make_unique<core::RotorRouter>(g, agents,
                                            std::vector<std::uint32_t>{},
                                            kCollectShards, &pool),
        accumulators, opt);
    sim::CycleJumpEngine single(std::make_unique<core::RotorRouter>(g, agents),
                                accumulators, opt);
    sharded.run(100003);
    single.run(100003);
    ASSERT_GE(sharded.stats().leaps, 1u);
    const auto& rotor = dynamic_cast<const core::RotorRouter&>(single.inner());
    ASSERT_EQ(rotor.occupied_count(), g.num_nodes());
    expect_same_sites(sharded, single.inner(), descriptor.text());
  }
}

TEST(ShardedRotor, SiteCollectorAfterRestore) {
  // A restore rebuilds every shard's occupied list from the document's
  // sites; the next save must write the document back unchanged. The
  // document holds agents on every shard's first and last row.
  const graph::GraphDescriptor descriptor =
      graph::GraphDescriptor::torus(16, 16);
  const graph::Graph g = *descriptor.build();
  const std::vector<graph::NodeId> edges = shard_edges(g);
  std::vector<graph::NodeId> agents = edges;
  agents.insert(agents.end(), {3, 3, 3, 90, 160, 161});
  core::RotorRouter source(g, agents);
  const sim::DelayFn delay = hold_edges(edges);
  for (int t = 0; t < 37; ++t) source.step_delayed(delay);
  const std::string doc = v2_bytes(source, descriptor.text());
  const auto parsed = sim::parse_checkpoint(doc);
  ASSERT_TRUE(parsed.has_value());
  for (unsigned threads : pool_widths()) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    sim::ThreadPool pool(threads);
    const auto sharded =
        sim::restore_checkpoint_sharded(*parsed, kCollectShards, &pool);
    ASSERT_NE(sharded, nullptr);
    EXPECT_EQ(v2_bytes(*sharded, descriptor.text()), doc);
    expect_same_sites(*sharded, source, descriptor.text());
  }
}

TEST(ShardedRotor, PileUpDeploymentsMatchAcrossShards) {
  // All-on-one deployments exercise the batched full-cycle exit path
  // (distribute_exits) and the spill accumulation under pile-ups.
  for (const Topology& topo : topologies()) {
    const graph::NodeId n = topo.graph.num_nodes();
    for (std::uint32_t k : {7u, 64u, 257u}) {
      SCOPED_TRACE(::testing::Message() << topo.name << " k=" << k);
      const std::vector<graph::NodeId> agents(k, n / 2);
      core::RotorRouter reference(topo.graph, agents);
      std::vector<std::unique_ptr<core::RotorRouter>> candidates;
      std::vector<sim::Engine*> engines{&reference};
      for (std::uint32_t shards : kShardCounts) {
        candidates.push_back(std::make_unique<core::RotorRouter>(
            topo.graph, agents, std::vector<std::uint32_t>{}, shards));
        engines.push_back(candidates.back().get());
      }
      const Mismatch m = run_lockstep(reference, *engines[1], 0);
      ASSERT_TRUE(m.ok);
      const Mismatch all = run_lockstep_delayed(
          engines, 3 * static_cast<std::uint64_t>(n),
          [](graph::NodeId, std::uint64_t, std::uint32_t) { return 0u; });
      ASSERT_TRUE(all.ok) << "round " << all.round << ": " << all.detail;
    }
  }
}

// Pooled construction: a 256^2 torus has sim::kPoolMinNodes nodes, so
// the CSR rows, the partition and the per-node state are written by pool
// jobs. The result must be the engine the inline build makes.

const graph::GraphDescriptor kPooledTorus = graph::GraphDescriptor::torus(256, 256);

TEST(ShardedRotor, PooledBuildStepsBitEqualToTheSequentialEngine) {
  static_assert(sim::kPoolMinNodes == 256 * 256);
  const graph::CsrGraph csr = *kPooledTorus.build_csr();
  const graph::NodeId n = csr.num_nodes();
  Rng rng(0xB01D);
  std::vector<graph::NodeId> agents(4096);
  for (graph::NodeId& a : agents) a = rng.bounded(n);
  std::vector<std::uint32_t> pointers(n);
  for (std::uint32_t& p : pointers) p = rng.bounded(4);
  for (const bool with_pointers : {false, true}) {
    const std::vector<std::uint32_t> ptrs =
        with_pointers ? pointers : std::vector<std::uint32_t>{};
    for (unsigned threads : pool_widths()) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads
                                        << " pointers=" << with_pointers);
      sim::ThreadPool pool(threads);
      std::vector<std::unique_ptr<sim::Engine>> candidates;
      for (const std::uint32_t shards : {1u, 3u, 4u}) {
        candidates.push_back(std::make_unique<core::RotorRouter>(
            csr, agents, ptrs, shards, &pool));
      }
      sim::EngineConfig config;
      config.agents.assign(agents.begin(), agents.end());
      config.pointers = ptrs;
      config.shards = 4;
      config.pool = &pool;
      candidates.push_back(
          sim::EngineRegistry::instance().create("rotor", kPooledTorus, config));
      ASSERT_NE(candidates.back(), nullptr);
      core::RotorRouter fresh(csr, agents, ptrs);
      std::vector<sim::Engine*> engines{&fresh};
      for (const auto& e : candidates) engines.push_back(e.get());
      // Per-round hashes, then every node's visits and first visit.
      Mismatch m = run_lockstep_delayed(
          engines, 40,
          [](graph::NodeId, std::uint64_t, std::uint32_t) { return 0u; },
          /*deep=*/false);
      ASSERT_TRUE(m.ok) << "round " << m.round << ": " << m.detail;
      for (const auto& e : candidates) {
        m = compare_engines(fresh, *e);
        ASSERT_TRUE(m.ok) << m.detail;
      }
    }
  }
}

TEST(ShardedRotor, PooledRestoreMatchesTheInlineRestore) {
  const graph::CsrGraph csr = *kPooledTorus.build_csr();
  Rng rng(0x5E57);
  std::vector<graph::NodeId> agents(2048);
  for (graph::NodeId& a : agents) a = rng.bounded(csr.num_nodes());
  core::RotorRouter source(csr, agents);
  source.run(75);
  const std::string doc = v2_bytes(source, kPooledTorus.text());
  const auto parsed = sim::parse_checkpoint(doc);
  ASSERT_TRUE(parsed.has_value());
  const auto inline_restore = sim::restore_checkpoint(*parsed);
  ASSERT_NE(inline_restore, nullptr);
  ASSERT_EQ(inline_restore->config_hash(), source.config_hash());
  for (unsigned threads : pool_widths()) {
    sim::ThreadPool pool(threads);
    for (const std::uint32_t shards : {1u, 4u}) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads
                                        << " shards=" << shards);
      const auto pooled = sim::restore_checkpoint_sharded(*parsed, shards, &pool);
      ASSERT_NE(pooled, nullptr);
      const Mismatch m = compare_engines(*inline_restore, *pooled);
      ASSERT_TRUE(m.ok) << m.detail;
      EXPECT_EQ(v2_bytes(*pooled, kPooledTorus.text()), doc);
    }
  }
}

/// A rotor-router document for kPooledTorus with one agent on node 0,
/// every per-node field written out; `patch` edits the lists first.
std::string torus_doc(
    const std::function<void(std::vector<std::vector<std::uint64_t>>&)>&
        patch) {
  const std::uint64_t n = *kPooledTorus.num_nodes();
  std::vector<std::vector<std::uint64_t>> lists(
      6, std::vector<std::uint64_t>(n, 0));
  lists[2][0] = 1;  // visits
  lists[4].assign(n, sim::kNotCovered);  // first_visit
  lists[4][0] = 0;
  patch(lists);
  sim::StateWriter state;
  state.field_u64("time", 0);
  state.field_pairs("agents", sim::PairList{{0, 1}});
  const char* const names[6] = {"pointers", "initial_pointers", "visits",
                                "exits",    "first_visit",      "last_visit"};
  for (int f = 0; f < 6; ++f) state.field_list(names[f], lists[f]);
  return sim::encode_checkpoint_v2("rotor-router", kPooledTorus.text(), state,
                                   n, sim::kV2DefaultSegments, nullptr);
}

TEST(ShardedRotor, PooledRestoreRejectsHostileDocuments) {
  using Lists = std::vector<std::vector<std::uint64_t>>;
  const std::uint64_t n = *kPooledTorus.num_nodes();
  const std::function<void(Lists&)> hostile[] = {
      [n](Lists& l) { l[0][n - 1] = 4; },  // pointer == degree
      [n](Lists& l) { l[1][n / 2] = 9; },  // initial pointer > degree
      [](Lists& l) { l[3].pop_back(); },   // exits one node short
      [](Lists& l) { l[5].push_back(0); },  // last_visit one node long
  };
  for (unsigned threads : pool_widths()) {
    sim::ThreadPool pool(threads);
    for (const std::uint32_t shards : {1u, 4u}) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads
                                        << " shards=" << shards);
      const auto valid = sim::parse_checkpoint(torus_doc([](Lists&) {}), &pool);
      ASSERT_TRUE(valid.has_value());
      EXPECT_NE(sim::restore_checkpoint_sharded(*valid, shards, &pool), nullptr);
      for (std::size_t h = 0; h < std::size(hostile); ++h) {
        const auto parsed = sim::parse_checkpoint(torus_doc(hostile[h]), &pool);
        ASSERT_TRUE(parsed.has_value()) << "hostile document " << h;
        EXPECT_EQ(sim::restore_checkpoint_sharded(*parsed, shards, &pool),
                  nullptr)
            << "hostile document " << h;
      }
    }
  }
}

}  // namespace
}  // namespace rr::testing
