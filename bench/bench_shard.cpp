// Shard-scaling micro-benchmarks (google-benchmark, like bench_perf).
//
// Agent-steps per second of the general rotor-router as a function of
// shard count on the torus scenarios the roadmap budgets against (64² and
// 256², k = 64), plus a pile-up deployment exercising the batched
// full-cycle exit path. shards = 0 rows are the sequential baseline;
// shards = 1 constructs the same single-shard engine (kept so the rows
// line up with earlier ledgers), and higher rows show the scaling the
// partition buys on multi-core hosts. Every row reports wall time
// (UseRealTime): the shard pool's work happens off the main thread.
// The pool lane times batches of a few 50-400 us jobs, the shape of a
// save's pooled collect and encode jobs, back to back and after an idle
// gap longer than the pool's spin-then-park window.
// CI uploads the JSON next to bench_perf's so tools/bench_diff.py flags
// scaling regressions commit over commit.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/rotor_router.hpp"
#include "graph/generators.hpp"
#include "sim/thread_pool.hpp"

namespace {

std::vector<rr::graph::NodeId> spread_agents(rr::graph::NodeId n,
                                             std::uint32_t k) {
  std::vector<rr::graph::NodeId> agents(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    agents[i] = static_cast<rr::graph::NodeId>(
        static_cast<std::uint64_t>(i) * n / k);
  }
  return agents;
}

// args: {side, k, shards}; shards <= 1 benchmarks the sequential engine.
void BM_ShardedRotorRouterTorus(benchmark::State& state) {
  const auto side = static_cast<rr::graph::NodeId>(state.range(0));
  const auto k = static_cast<std::uint32_t>(state.range(1));
  const auto shards = static_cast<std::uint32_t>(state.range(2));
  rr::graph::Graph g = rr::graph::torus(side, side);
  const auto agents = spread_agents(g.num_nodes(), k);
  rr::core::RotorRouter rr(g, agents, {}, shards);
  for (auto _ : state) {
    rr.step();
    benchmark::DoNotOptimize(rr.covered_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * k);
  state.SetLabel(shards == 0 ? "sequential"
                             : "shards=" + std::to_string(shards));
}
BENCHMARK(BM_ShardedRotorRouterTorus)
    ->Args({64, 64, 0})
    ->Args({64, 64, 1})
    ->Args({64, 64, 2})
    ->Args({64, 64, 4})
    ->Args({64, 64, 8})
    ->Args({256, 64, 0})
    ->Args({256, 64, 1})
    ->Args({256, 64, 2})
    ->Args({256, 64, 4})
    ->Args({256, 64, 8})
    ->UseRealTime();

// All k agents piled on one node: the full-cycle exit batching turns the
// O(k) per-round arrival loop into O(deg), so throughput here tracks the
// distribute_exits fast path rather than memory latency.
void BM_ShardedRotorRouterPileUp(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const auto shards = static_cast<std::uint32_t>(state.range(1));
  rr::graph::Graph g = rr::graph::torus(64, 64);
  const std::vector<rr::graph::NodeId> agents(k, g.num_nodes() / 2);
  rr::core::RotorRouter rr(g, agents, {}, shards);
  for (auto _ : state) {
    rr.step();
    benchmark::DoNotOptimize(rr.covered_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * k);
  state.SetLabel(shards == 0 ? "sequential"
                             : "shards=" + std::to_string(shards));
}
BENCHMARK(BM_ShardedRotorRouterPileUp)
    ->Args({4096, 0})
    ->Args({4096, 8})
    ->UseRealTime();

// Pool batches of 4 busy jobs of `us` microseconds each on a 4-thread
// pool, either back to back (gap 0) or each after the caller idled for
// `gap` microseconds (not timed), longer than the workers' spin window,
// so the batch finds them parked. Reports wall time per batch and the
// mean number of threads that ran a job of it; the ideal is one job
// length on 4 threads. A parked worker that wakes after the caller has
// claimed every job adds nothing.
void BM_PoolBatches(benchmark::State& state) {
  const auto job = std::chrono::microseconds(state.range(0));
  const auto gap = std::chrono::microseconds(state.range(1));
  constexpr std::uint64_t kJobs = 4;
  rr::sim::ThreadPool pool(4);
  std::thread::id ran[kJobs];
  double threads = 0;
  for (auto _ : state) {
    if (gap.count() > 0) {
      state.PauseTiming();
      std::this_thread::sleep_for(gap);
      state.ResumeTiming();
    }
    pool.for_each(kJobs, [&](std::uint64_t i) {
      const auto until = std::chrono::steady_clock::now() + job;
      while (std::chrono::steady_clock::now() < until) {
      }
      ran[i] = std::this_thread::get_id();
    }, /*chunk=*/1);
    std::sort(std::begin(ran), std::end(ran));
    threads += static_cast<double>(
        std::unique(std::begin(ran), std::end(ran)) - std::begin(ran));
  }
  state.counters["threads"] =
      benchmark::Counter(threads, benchmark::Counter::kAvgIterations);
  state.SetLabel(std::to_string(kJobs) + " x " +
                 std::to_string(state.range(0)) + " us, gap " +
                 std::to_string(state.range(1)) + " us");
}
// args: {job us, gap us}.
BENCHMARK(BM_PoolBatches)
    ->ArgsProduct({{50, 200, 400}, {0, 1000}})
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
