// Differential gate for the distributed engine: DistributedRotorRouter
// must be bit-equal — per-round config_hash, visits, first-visit rounds,
// coverage — to the sequential RotorRouter for every tested worker count
// ({1, 2, 4, 8}), across topologies, spill batch sizes, adversarial
// delayed schedules, and the save→load→continue lane (including restarts
// that change the worker count: the coordinator writes plain
// "rotor-router" documents, byte-identical to the sequential engine's).
//
// Worker crash is part of the contract: a dead worker halts the engine
// cleanly (time frozen, step/run no-ops) and the run resumes from the
// last checkpoint with any worker count. The thread transport's
// worker_fail_after hook injects the death deterministically; the CI
// smoke lane kills a real rr_noded process.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/rotor_router.hpp"
#include "differential.hpp"
#include "dist/coordinator.hpp"
#include "graph/descriptor.hpp"
#include "sim/checkpoint.hpp"
#include "sim/registry.hpp"

namespace rr::testing {
namespace {

constexpr std::uint32_t kWorkerCounts[] = {1, 2, 4, 8};

std::vector<graph::GraphDescriptor> topologies() {
  std::vector<graph::GraphDescriptor> topo;
  for (const char* text :
       {"ring 48", "torus 8 9", "random-regular 36 4 11"}) {
    const auto d = graph::GraphDescriptor::parse(text);
    EXPECT_TRUE(d.has_value()) << text;
    topo.push_back(*d);
  }
  return topo;
}

// Random agents / pointers / delay schedule for an arbitrary graph (the
// sharded gate's scenario shape; delay kinds are RingScenario's pure
// functions of (v, t, present)).
struct GraphScenario {
  std::vector<graph::NodeId> agents;
  std::vector<std::uint32_t> pointers;
  RingScenario delays;
  std::uint64_t rounds = 0;

  static GraphScenario random(const graph::CsrGraph& g, Rng& rng) {
    GraphScenario sc;
    const graph::NodeId n = g.num_nodes();
    const std::uint32_t k = 1 + rng.bounded(16);
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
    sc.rounds = 24 + rng.bounded(n);
    return sc;
  }
};

std::unique_ptr<core::DistributedRotorRouter> make_dist(
    const graph::GraphDescriptor& d, const GraphScenario& sc,
    std::uint32_t workers, std::uint64_t spill_batch = 256) {
  core::DistOptions opt;
  opt.workers = workers;
  opt.spill_batch = spill_batch;
  std::string error;
  auto engine = core::DistributedRotorRouter::create(d, sc.agents, sc.pointers,
                                                     opt, &error);
  EXPECT_NE(engine, nullptr) << error;
  return engine;
}

TEST(DistEngine, BitEqualToSequentialAcrossWorkerCountsAndTopologies) {
  Rng rng(0xD157ULL);
  for (const graph::GraphDescriptor& d : topologies()) {
    const graph::CsrGraph g = *d.build();
    for (int config = 0; config < 4; ++config) {
      const GraphScenario sc = GraphScenario::random(g, rng);
      // Tiny spill batches in half the configs force mid-scan flushes and
      // relay interleavings; the trajectory must not notice.
      const std::uint64_t spill_batch = config % 2 == 0 ? 256 : 1;
      SCOPED_TRACE(::testing::Message()
                   << d.text() << " k=" << sc.agents.size() << " delay_kind="
                   << sc.delays.delay_kind << " spill_batch=" << spill_batch
                   << " rounds=" << sc.rounds);
      core::RotorRouter reference(g, sc.agents, sc.pointers);
      std::vector<std::unique_ptr<core::DistributedRotorRouter>> candidates;
      std::vector<sim::Engine*> engines{&reference};
      for (std::uint32_t workers : kWorkerCounts) {
        candidates.push_back(make_dist(d, sc, workers, spill_batch));
        ASSERT_NE(candidates.back(), nullptr);
        engines.push_back(candidates.back().get());
      }
      const Mismatch m =
          run_lockstep_delayed(engines, sc.rounds, sc.delays.delay());
      ASSERT_TRUE(m.ok) << "round " << m.round << ": " << m.detail;
      for (const auto& c : candidates) {
        EXPECT_FALSE(c->halted());
        EXPECT_EQ(c->comms_stats().rounds, sc.rounds);
        if (c->num_workers() > 1) {
          // Cross-shard traffic exists on every tested topology; with
          // batch size 1 every batch flushes mid-scan (comms overlap).
          EXPECT_GT(c->comms_stats().spill_bytes, 0u);
          if (spill_batch == 1) {
            EXPECT_EQ(c->comms_stats().mid_scan_batches,
                      c->comms_stats().batches);
          }
        }
      }
    }
  }
}

TEST(DistEngine, CreateRejectsDescriptorsTheCsrBuilderRejects) {
  // Descriptors arrive from CLI flags: a bad one is an error, never an
  // abort, and no worker is spawned for it.
  core::DistOptions opt;
  opt.workers = 2;
  for (const graph::GraphDescriptor& d :
       {graph::GraphDescriptor{"ring", {"2"}},
        graph::GraphDescriptor{"torus", {"2", "5"}},
        graph::GraphDescriptor{"torus", {"8192", "8193"}},
        graph::GraphDescriptor{"ring", {"12a"}}}) {
    SCOPED_TRACE(d.text());
    std::string error;
    EXPECT_EQ(core::DistributedRotorRouter::create(d, {0}, {}, opt, &error),
              nullptr);
    EXPECT_EQ(error, "dist: graph descriptor failed to build");
  }
}

TEST(DistEngine, CheckpointsAreByteIdenticalToSequential) {
  // The coordinator gathers into the exact serialize_rotor_state field
  // set, so its rr-ckpt documents are the sequential engine's, byte for
  // byte.
  const auto d = graph::GraphDescriptor::parse("torus 6 8");
  ASSERT_TRUE(d.has_value());
  const graph::CsrGraph g = *d->build();
  Rng rng(0xB17EULL);
  const GraphScenario sc = GraphScenario::random(g, rng);
  core::RotorRouter sequential(g, sc.agents, sc.pointers);
  auto dist = make_dist(*d, sc, 4);
  ASSERT_NE(dist, nullptr);
  sequential.run(157);
  dist->run(157);
  EXPECT_EQ(sim::write_checkpoint(sequential, d->text()),
            sim::write_checkpoint(*dist, d->text()));
}

TEST(DistEngine, RestartMayChangeTheWorkerCountOrTheBackend) {
  // save → load → continue, with the restart moving between worker counts
  // and between the distributed and sequential backends: the checkpoint
  // is one interchangeable document.
  const auto d = graph::GraphDescriptor::parse("torus 7 9");
  ASSERT_TRUE(d.has_value());
  const graph::CsrGraph g = *d->build();
  Rng rng(0xC4EC5ULL);
  for (const std::uint32_t workers_after : {1u, 3u, 7u}) {
    const GraphScenario sc = GraphScenario::random(g, rng);
    const std::uint64_t restart = sc.rounds / 2;
    SCOPED_TRACE(::testing::Message()
                 << "workers 4 -> " << workers_after << " restart@" << restart
                 << " k=" << sc.agents.size());
    core::RotorRouter reference(g, sc.agents, sc.pointers);
    std::unique_ptr<sim::Engine> candidate = make_dist(*d, sc, 4);
    ASSERT_NE(candidate, nullptr);
    const sim::DelayFn delay = sc.delays.delay();
    for (std::uint64_t t = 0; t < sc.rounds; ++t) {
      if (t == restart) {
        const std::string text = sim::write_checkpoint(*candidate, d->text());
        const auto parsed = sim::parse_checkpoint(text);
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(parsed->engine, "rotor-router");
        // Restore through the registry's "dist" CLI key with a different
        // worker count (plain restore_checkpoint resolves "rotor-router"
        // to the sequential spec — also exercised, round-trip).
        sim::EngineConfig config;
        config.dist_workers = workers_after;
        candidate = sim::EngineRegistry::instance().restore(
            "dist", *d, parsed->state, config);
        ASSERT_NE(candidate, nullptr);
        auto* dist =
            dynamic_cast<core::DistributedRotorRouter*>(candidate.get());
        ASSERT_NE(dist, nullptr);
        EXPECT_EQ(dist->num_workers(),
                  std::min<std::uint32_t>(workers_after, g.num_nodes()));
        const Mismatch m = compare_engines(reference, *candidate);
        ASSERT_TRUE(m.ok) << "after restore: " << m.detail;
        auto sequential_again = sim::restore_checkpoint(text);
        ASSERT_NE(sequential_again, nullptr);
        const Mismatch ms = compare_engines(reference, *sequential_again);
        ASSERT_TRUE(ms.ok) << "sequential restore: " << ms.detail;
      }
      reference.step_delayed(delay);
      candidate->step_delayed(delay);
      const Mismatch m = compare_engines(reference, *candidate);
      ASSERT_TRUE(m.ok) << "round " << m.round << ": " << m.detail;
    }
  }
}

TEST(DistEngine, WorkerDeathHaltsCleanlyAndTheRunResumesFromACheckpoint) {
  // Worker 0 drops its connection on its 6th kScan (the thread
  // transport's fault-injection hook). The engine must freeze at the last
  // committed round — never a partial round, never an abort — and the
  // pre-crash checkpoint must resume under a different worker count to a
  // trajectory bit-equal to an undisturbed sequential run.
  const auto d = graph::GraphDescriptor::parse("torus 6 6");
  ASSERT_TRUE(d.has_value());
  const graph::CsrGraph g = *d->build();
  const std::vector<graph::NodeId> agents{0, 7, 20, 20, 31};

  core::DistOptions opt;
  opt.workers = 3;
  opt.worker_fail_after = 6;
  std::string error;
  auto dist = core::DistributedRotorRouter::create(*d, agents, {}, opt, &error);
  ASSERT_NE(dist, nullptr) << error;

  dist->run(4);
  ASSERT_FALSE(dist->halted());
  const std::string ckpt = sim::write_checkpoint(*dist, d->text());

  dist->run(100);  // crosses the injected failure
  EXPECT_TRUE(dist->halted());
  const std::uint64_t frozen = dist->time();
  EXPECT_GE(frozen, 4u);
  EXPECT_LT(frozen, 104u);
  // Halted means inert: stepping is a no-op at every entry point.
  dist->step();
  dist->run(10);
  EXPECT_EQ(dist->run_until_covered(1000), sim::kNotCovered);
  EXPECT_EQ(dist->time(), frozen);

  // Resume from the checkpoint with a different worker count and catch up
  // past the crash point; an undisturbed sequential run is the oracle.
  const auto parsed = sim::parse_checkpoint(ckpt);
  ASSERT_TRUE(parsed.has_value());
  sim::EngineConfig config;
  config.dist_workers = 2;
  auto resumed = sim::EngineRegistry::instance().restore("dist", *d,
                                                         parsed->state, config);
  ASSERT_NE(resumed, nullptr);
  resumed->run(120);
  core::RotorRouter reference(g, agents);
  reference.run(124);
  const Mismatch m = compare_engines(reference, *resumed);
  ASSERT_TRUE(m.ok) << "round " << m.round << ": " << m.detail;
}

TEST(DistEngine, CoverageAndRunUntilCoveredMatchSequential) {
  // run_until_covered is coordinated per-chunk at the coordinator; the
  // cover time it reports must be the sequential engine's exactly.
  const auto d = graph::GraphDescriptor::parse("ring 48");
  ASSERT_TRUE(d.has_value());
  const graph::CsrGraph g = *d->build();
  const std::vector<graph::NodeId> agents{0, 11, 30};
  core::RotorRouter reference(g, agents);
  auto dist = make_dist(*d, GraphScenario{agents, {}, {}, 0}, 4);
  ASSERT_NE(dist, nullptr);
  const std::uint64_t cover_ref = reference.run_until_covered(100000);
  const std::uint64_t cover_dist = dist->run_until_covered(100000);
  EXPECT_EQ(cover_ref, cover_dist);
  EXPECT_NE(cover_ref, sim::kNotCovered);
  EXPECT_EQ(dist->covered_count(), dist->num_nodes());
  const Mismatch m = compare_engines(reference, *dist);
  ASSERT_TRUE(m.ok) << m.detail;
}

}  // namespace
}  // namespace rr::testing
