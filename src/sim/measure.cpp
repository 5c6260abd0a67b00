#include "sim/measure.hpp"

#include <algorithm>

#include "sim/cycle_jump.hpp"

namespace rr::sim {

std::uint64_t cover_time(Engine& engine, std::uint64_t max_rounds) {
  if (max_rounds == 0) {
    const std::uint64_t n = engine.num_nodes();
    max_rounds = 8 * n * n + 64 * n;
  }
  return engine.run_until_covered(max_rounds);
}

WindowedReturnTime windowed_return_time(Engine& engine) {
  const NodeId n = engine.num_nodes();
  const std::uint64_t k = std::max(1u, engine.num_agents());
  const std::uint64_t window = 8ULL * n / k + 64;

  WindowedReturnTime result;
  // Cover the ring, then let domains even out (Lemma 12's "sufficiently
  // large number of steps"; 4 n^2/k extra rounds is generous for the
  // sizes used in tests and benches). The last `window` of those rounds
  // are stepped below to find each node's last visit before the window.
  result.covered = cover_time(engine) != kNotCovered;
  const std::uint64_t settle = 4ULL * n * n / k + 16ULL * n;
  engine.run(settle - std::min(settle, window));

  // A node is visited in a round iff its visit count grew in it.
  std::vector<std::uint64_t> seen(n), last_seen(n, engine.time()),
      max_gap(n, 0);
  for (NodeId v = 0; v < n; ++v) seen[v] = engine.visits(v);
  auto observe_round = [&](bool record) {
    engine.step();
    const std::uint64_t t = engine.time();
    for (NodeId v = 0; v < n; ++v) {
      const std::uint64_t visits = engine.visits(v);
      if (visits == seen[v]) continue;
      seen[v] = visits;
      if (record) max_gap[v] = std::max(max_gap[v], t - last_seen[v]);
      last_seen[v] = t;
    }
  };
  for (std::uint64_t i = 0; i < window; ++i) observe_round(false);

  const std::vector<std::uint64_t> visits_before = seen;
  const std::uint64_t t_end = engine.time() + window;
  while (engine.time() < t_end) observe_round(true);

  std::uint64_t worst = 0;
  std::uint64_t min_visits = ~std::uint64_t{0};
  double total_gap = 0.0;
  for (NodeId v = 0; v < n; ++v) {
    max_gap[v] = std::max(max_gap[v], t_end - last_seen[v]);
    worst = std::max(worst, max_gap[v]);
    const std::uint64_t vis = seen[v] - visits_before[v];
    min_visits = std::min(min_visits, vis);
    total_gap += vis > 0 ? static_cast<double>(window) / static_cast<double>(vis)
                         : static_cast<double>(window);
  }
  result.max_gap = worst;
  result.mean_gap = total_gap / n;
  result.min_visits = min_visits;
  return result;
}

std::optional<ExactReturnTime> exact_return_time(Engine& engine,
                                                 std::uint64_t max_steps) {
  const auto cycle = detect_confirmed_cycle(engine, max_steps);
  if (!cycle) return std::nullopt;

  // One lap at offsets 1..period. A node visited at offset 0 is visited
  // again at offset `period`, so the lap sees every cyclic gap; the
  // wrap-around one is first + period - last.
  const std::uint64_t period = cycle->period;
  const NodeId n = engine.num_nodes();
  constexpr std::uint64_t kNever = ~std::uint64_t{0};
  std::vector<std::uint64_t> seen(n), first(n, kNever), last(n, kNever),
      gap(n, 0);
  for (NodeId v = 0; v < n; ++v) seen[v] = engine.visits(v);
  for (std::uint64_t i = 1; i <= period; ++i) {
    engine.step();
    for (NodeId v = 0; v < n; ++v) {
      const std::uint64_t visits = engine.visits(v);
      if (visits == seen[v]) continue;
      seen[v] = visits;
      if (first[v] == kNever) {
        first[v] = i;
      } else {
        gap[v] = std::max(gap[v], i - last[v]);
      }
      last[v] = i;
    }
  }
  ExactReturnTime result;
  result.period = period;
  result.min_gap = ~std::uint64_t{0};
  for (NodeId v = 0; v < n; ++v) {
    if (first[v] == kNever) return std::nullopt;  // node starves: not covered
    const std::uint64_t g = std::max(gap[v], first[v] + period - last[v]);
    result.max_gap = std::max(result.max_gap, g);
    result.min_gap = std::min(result.min_gap, g);
  }
  return result;
}

}  // namespace rr::sim
