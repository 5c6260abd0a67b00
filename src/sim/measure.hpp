#pragma once

// The paper's measurements over any sim::Engine (sim layer).
//
// Cover time C(R[k]) (Thms 1-5): the first round after which every node
// has been visited. Return time (Sec. 4): once the deterministic system has
// entered its limit cycle, the longest interval during which some node
// stays unvisited; Thm 6 shows it is Theta(n/k) on the ring. Large
// instances measure it as the maximum inter-visit gap over a window after
// a warm-up; small deterministic ones get it exactly from one lap of the
// confirmed limit cycle (sim/cycle_jump.hpp).
//
// Every measurement reads only the Engine observer surface (time, visits,
// coverage), so it runs on whatever EngineRegistry::create builds: the
// ring engines, the general-graph rotor-router, the random walks. The
// windowed and exact return times scan visits(v) over all n nodes once per
// round they observe, which is fine at test and bench sizes.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/require.hpp"
#include "graph/descriptor.hpp"
#include "sim/engine.hpp"
#include "sim/registry.hpp"

namespace rr::sim {

/// Builds `name` on `descriptor` through EngineRegistry::create with the
/// given agents and rotor field (empty = engine default; ring pointer
/// bytes widen to ports). Aborts on a rejected configuration: callers are
/// tests, benches and examples passing fixed, valid instances.
template <typename Pointer = std::uint32_t>
std::unique_ptr<Engine> create_engine(std::string_view name,
                                      const graph::GraphDescriptor& descriptor,
                                      std::vector<NodeId> agents,
                                      const std::vector<Pointer>& pointers = {}) {
  EngineConfig config;
  config.agents = std::move(agents);
  config.pointers.assign(pointers.begin(), pointers.end());
  std::string error;
  auto engine =
      EngineRegistry::instance().create(name, descriptor, config, &error);
  RR_REQUIRE(engine != nullptr, error.c_str());
  return engine;
}

/// Cover time: run_until_covered with `max_rounds` as the absolute round
/// cap. 0 selects 8 n^2 + 64 n, comfortably above the ring's Theta(n^2)
/// single-agent worst case; on graphs whose D |E| outgrows n^2, pass a cap.
/// kNotCovered if the cap is hit.
std::uint64_t cover_time(Engine& engine, std::uint64_t max_rounds = 0);

struct WindowedReturnTime {
  std::uint64_t max_gap = 0;     ///< max inter-visit gap over the window
  double mean_gap = 0.0;         ///< window / mean visits per node
  std::uint64_t min_visits = 0;  ///< min visits of any node in the window
  bool covered = true;           ///< warm-up reached full coverage
};

/// Windowed return time, with k = num_agents(). Warm-up: cover (the
/// default cap above), then 4 n^2 / k + 16 n rounds for the domains to
/// even out. Then the per-node max inter-visit gap over a window of
/// 8 n / k + 64 rounds. Each node's last visit before the window is read
/// off the warm-up's last `window` rounds; a node they never visit counts
/// its gap from their start (so that gap is a lower bound, and at least a
/// window long).
WindowedReturnTime windowed_return_time(Engine& engine);

struct ExactReturnTime {
  std::uint64_t period = 0;
  std::uint64_t max_gap = 0;  ///< the paper's return time
  std::uint64_t min_gap = 0;  ///< min over nodes of their max gap
};

/// Exact return time on the limit cycle: detect_confirmed_cycle (with the
/// registry spec's cycle_accumulators) plus one lap recording every visit.
/// nullopt if no cycle is confirmed within `max_steps`, or if some node is
/// never visited on the cycle.
std::optional<ExactReturnTime> exact_return_time(Engine& engine,
                                                 std::uint64_t max_steps);

}  // namespace rr::sim
