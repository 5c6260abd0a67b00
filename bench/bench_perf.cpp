// P-1: engine micro-benchmarks (google-benchmark).
//
// Throughput of the three simulation engines: the ring-specialized
// rotor-router (O(#occupied)/round), the general-graph rotor-router (CSR-
// backed), and the batched ring random walks. Reported as agent-steps per
// second so the experiment-harness budgets in DESIGN.md can be checked.
//
// Also measured here: the cost of the sim::Engine facade (polymorphic
// stepping through a base pointer vs the concrete devirtualized loop),
// the batched sim::Runner fanning cover-time trials across the pool, and
// descriptor-to-engine construction of a large torus. Rows whose work
// runs on a pool, a socket or a child process report wall time
// (UseRealTime), never main-thread CPU time.

#include <benchmark/benchmark.h>

#include <memory>

#include "common/rng.hpp"
#include "core/initializers.hpp"
#include "core/ring_rotor_router.hpp"
#include "core/rotor_router.hpp"
#include "graph/descriptor.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"
#include "sim/measure.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"
#include "sim/thread_pool.hpp"
#include "walk/random_walk.hpp"
#include "walk/ring_walk.hpp"

namespace {

void BM_RingRotorRouter(benchmark::State& state) {
  const auto n = static_cast<rr::core::NodeId>(state.range(0));
  const auto k = static_cast<std::uint32_t>(state.range(1));
  const auto agents = rr::core::place_equally_spaced(n, k);
  rr::core::RingRotorRouter rr(n, agents,
                               rr::core::pointers_negative(n, agents));
  for (auto _ : state) {
    rr.step();
    benchmark::DoNotOptimize(rr.covered_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * k);
}
BENCHMARK(BM_RingRotorRouter)
    ->Args({1 << 12, 8})
    ->Args({1 << 16, 8})
    ->Args({1 << 16, 64})
    ->Args({1 << 20, 64})
    ->Args({1 << 20, 1024});

// The ring-sweep regime: seeded random placement and pointers on a small
// ring, so agents collide and bounce instead of sweeping in lockstep.
void BM_RingRotorRouterRandom(benchmark::State& state) {
  const auto n = static_cast<rr::core::NodeId>(state.range(0));
  const auto k = static_cast<std::uint32_t>(state.range(1));
  rr::Rng rng(42);
  const auto agents = rr::core::place_random(n, k, rng);
  rr::core::RingRotorRouter rr(n, agents, rr::core::pointers_random(n, rng));
  for (auto _ : state) {
    rr.step();
    benchmark::DoNotOptimize(rr.covered_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * k);
}
BENCHMARK(BM_RingRotorRouterRandom)->Args({1 << 12, 2})->Args({1 << 12, 32});

void BM_GeneralRotorRouterTorus(benchmark::State& state) {
  const auto side = static_cast<rr::graph::NodeId>(state.range(0));
  const auto k = static_cast<std::uint32_t>(state.range(1));
  rr::graph::Graph g = rr::graph::torus(side, side);
  std::vector<rr::graph::NodeId> agents(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    agents[i] = (i * g.num_nodes()) / k;
  }
  rr::core::RotorRouter rr(g, agents);
  for (auto _ : state) {
    rr.step();
    benchmark::DoNotOptimize(rr.covered_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * k);
}
BENCHMARK(BM_GeneralRotorRouterTorus)->Args({64, 8})->Args({64, 64})
    ->Args({256, 64});

void BM_RingRandomWalks(benchmark::State& state) {
  const auto n = static_cast<rr::walk::NodeId>(state.range(0));
  const auto k = static_cast<std::uint32_t>(state.range(1));
  std::vector<rr::walk::NodeId> starts(k);
  for (std::uint32_t i = 0; i < k; ++i) starts[i] = (i * n) / k;
  rr::walk::RingRandomWalks walks(n, starts, 42);
  for (auto _ : state) {
    walks.step();
    benchmark::DoNotOptimize(walks.covered_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * k);
}
BENCHMARK(BM_RingRandomWalks)->Args({1 << 16, 8})->Args({1 << 16, 64})
    ->Args({1 << 20, 64});

void BM_CoverTimeWorstCase(benchmark::State& state) {
  // End-to-end: full worst-case cover run (Thm 1 instance).
  const auto n = static_cast<rr::core::NodeId>(state.range(0));
  const std::uint32_t k = 16;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rr::sim::cover_time(*rr::sim::create_engine(
        "ring", rr::graph::GraphDescriptor::ring(n),
        rr::core::place_all_on_one(k, 0), rr::core::pointers_toward(n, 0))));
  }
}
BENCHMARK(BM_CoverTimeWorstCase)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

// Stepping each engine through the sim::Engine base pointer: the price of
// the facade relative to the concrete benchmarks above (engines are final,
// so only truly polymorphic call sites pay it). The sweep enumerates the
// EngineRegistry, so a newly registered backend shows up here (and in the
// CI throughput diff) without touching this file. Every backend runs on a
// ring substrate — the one graph all seven support. The registry key is
// part of the benchmark *name* (not just the label): tools/bench_diff.py
// matches rows by name, so per-engine identity must survive re-ordering
// of the registration table.
void EnginePolymorphicStep(benchmark::State& state,
                           const rr::sim::EngineSpec* spec) {
  const rr::sim::NodeId n = 1 << 12;
  const std::uint32_t k = 8;
  rr::sim::EngineConfig config;
  config.agents = rr::core::place_equally_spaced(n, k);
  config.seed = 42;
  std::string error;
  auto engine = rr::sim::EngineRegistry::instance().create(
      spec->name, rr::graph::GraphDescriptor::ring(n), config, &error);
  if (!engine) {
    state.SkipWithError(error.c_str());
    return;
  }
  for (auto _ : state) {
    engine->step();
    benchmark::DoNotOptimize(engine->covered_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * k);
  state.SetLabel(engine->engine_name());
}
const int kEngineSweepRegistered = [] {
  for (const auto* spec : rr::sim::EngineRegistry::instance().list()) {
    auto* bench = benchmark::RegisterBenchmark(
        ("BM_EnginePolymorphicStep/" + spec->name).c_str(),
        EnginePolymorphicStep, spec);
    // dist steps on worker threads over socketpairs.
    if (spec->name == "dist") bench->UseRealTime();
  }
  return 0;
}();

// The batched Runner fanning full cover-time trials (engine factory per
// trial) across the thread pool: throughput of the experiment harness
// itself, in covers per second.
void BM_RunnerCoverBatch(benchmark::State& state) {
  const auto trials = static_cast<std::uint64_t>(state.range(0));
  const auto descriptor = rr::graph::GraphDescriptor::torus(32, 32);
  const auto& registry = rr::sim::EngineRegistry::instance();
  rr::sim::Runner runner;
  for (auto _ : state) {
    auto stats = runner.cover_stats(
        trials,
        [&](std::uint64_t trial) -> std::unique_ptr<rr::sim::Engine> {
          rr::sim::EngineConfig config;
          config.agents = {0};
          config.seed = 1000 + trial;
          return registry.create(trial % 2 == 0 ? "rotor" : "walks",
                                 descriptor, config);
        },
        ~0ULL / 2);
    benchmark::DoNotOptimize(stats.mean());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trials));
  state.SetLabel("threads=" + std::to_string(runner.num_threads()));
}
BENCHMARK(BM_RunnerCoverBatch)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Registry construction of a rotor engine from its descriptor: CSR build,
// connectivity check, partition and agent placement, on the torus-explore
// instance (torus 512x512, 2^16 agents) with a shared pool, as rr_cli run
// --shards does. Arg: shards.
void BM_RotorCreateTorus(benchmark::State& state) {
  const auto shards = static_cast<std::uint32_t>(state.range(0));
  const rr::sim::NodeId side = 512;
  const std::uint32_t k = 1 << 16;
  rr::sim::ThreadPool pool(shards);
  rr::sim::EngineConfig config;
  for (std::uint32_t i = 0; i < k; ++i) {
    config.agents.push_back(static_cast<rr::sim::NodeId>(
        static_cast<std::uint64_t>(i) * side * side / k));
  }
  config.shards = shards;
  config.pool = &pool;
  const auto descriptor = rr::graph::GraphDescriptor::torus(side, side);
  for (auto _ : state) {
    auto engine =
        rr::sim::EngineRegistry::instance().create("rotor", descriptor, config);
    benchmark::DoNotOptimize(engine.get());
  }
  state.SetLabel("shards=" + std::to_string(shards));
}
BENCHMARK(BM_RotorCreateTorus)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
