// Differential gate for shard-parallel stepping: RotorRouter with N shards
// must be bit-equal — per-round config_hash, visits, first-visit rounds,
// coverage — to the sequential RotorRouter for every tested shard count
// ({1, 2, 3, 7, 8}), across topologies, adversarial delayed schedules,
// pool thread counts, and the save→load→continue lane (including restarts
// that change the shard count mid-run: checkpoints are interchangeable
// between the sequential and sharded engines).
//
// RR_TEST_POOL_THREADS narrows the thread matrix to one value; the ASan
// CI job re-runs this suite across the matrix that way.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/rotor_router.hpp"
#include "differential.hpp"
#include "graph/descriptor.hpp"
#include "graph/generators.hpp"
#include "sim/checkpoint.hpp"
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
  // neither may leak into the dynamics. RR_TEST_POOL_THREADS=t narrows
  // the matrix (the ASan CI job sweeps t = 1, 2, 4).
  std::vector<unsigned> thread_counts{1, 2, 4};
  if (const char* env = std::getenv("RR_TEST_POOL_THREADS")) {
    const unsigned t = static_cast<unsigned>(std::atoi(env));
    if (t > 0) thread_counts.assign(1, t);
  }
  const graph::Graph g = graph::torus(9, 8);
  Rng rng(0x7EADC07ULL);
  for (unsigned threads : thread_counts) {
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

}  // namespace
}  // namespace rr::testing
