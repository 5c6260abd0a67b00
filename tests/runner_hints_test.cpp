// Runner job-size hints: for_each_hinted / the hinted cover_times overload
// must run big-estimate jobs first (LPT order, deterministic) while
// producing exactly the results of the unhinted path — the hint is a
// scheduling aid, never an observable.

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <vector>

#include "core/rotor_router.hpp"
#include "graph/generators.hpp"
#include "sim/runner.hpp"

namespace rr::sim {
namespace {

TEST(RunnerHints, SingleThreadedClaimOrderIsDescendingCost) {
  // With one thread the caller claims every job itself, so the execution
  // order *is* the schedule: descending cost, ties by job index.
  Runner runner(1);
  const std::vector<double> cost{1.0, 8.0, 3.0, 8.0, 0.5, 11.0};
  std::vector<std::uint64_t> order;
  runner.for_each_hinted(cost.size(),
                         [&](std::uint64_t i) { order.push_back(i); }, cost);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{5, 1, 3, 2, 0, 4}));
}

TEST(RunnerHints, ResultsMatchUnhintedForEach) {
  Runner runner;
  const std::uint64_t jobs = 257;
  std::vector<double> cost(jobs);
  for (std::uint64_t i = 0; i < jobs; ++i) {
    cost[i] = static_cast<double>((i * 7919) % 101);
  }
  std::vector<std::uint64_t> plain(jobs), hinted(jobs);
  runner.for_each(jobs, [&](std::uint64_t i) { plain[i] = i * i + 1; });
  runner.for_each_hinted(jobs, [&](std::uint64_t i) { hinted[i] = i * i + 1; },
                         cost);
  EXPECT_EQ(plain, hinted);
}

TEST(RunnerHints, HintedCoverTimesMatchUnhinted) {
  const graph::CsrGraph small = graph::torus(4, 4);
  const graph::CsrGraph big = graph::torus(8, 8);
  Runner runner;
  const std::uint64_t trials = 12;
  // Skewed sweep: even trials run the big instance, odd the small one.
  const Runner::EngineFactory factory =
      [&](std::uint64_t trial) -> std::unique_ptr<Engine> {
    const graph::CsrGraph& g = trial % 2 == 0 ? big : small;
    return std::make_unique<core::RotorRouter>(
        g, std::vector<graph::NodeId>{static_cast<graph::NodeId>(trial) %
                                      g.num_nodes()});
  };
  std::vector<double> cost(trials);
  for (std::uint64_t i = 0; i < trials; ++i) {
    cost[i] = i % 2 == 0 ? 64.0 : 16.0;
  }
  const auto plain = runner.cover_times(trials, factory, 1 << 20);
  const auto hinted = runner.cover_times(trials, factory, 1 << 20, cost);
  EXPECT_EQ(plain, hinted);
}

}  // namespace
}  // namespace rr::sim
