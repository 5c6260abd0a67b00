// Example: watch the multi-agent rotor-router run, in ASCII.
//
// Renders space-time diagrams of the two canonical scenarios on a small
// ring: (1) worst-case exploration from a single node — agents fan out and
// the covered region grows like sqrt(t); (2) the stabilized limit —
// domains of equal size, each patrolled by one agent (Thm 6).
//
//   ./build/examples/spacetime_diagram [n] [k]

#include <cstdio>
#include <cstdlib>

#include "core/domains.hpp"
#include "core/initializers.hpp"
#include "core/rotor_router.hpp"
#include "graph/generators.hpp"
#include "sim/trace.hpp"

int main(int argc, char** argv) {
  const rr::core::NodeId n = argc > 1 ? std::atoi(argv[1]) : 72;
  const std::uint32_t k = argc > 2 ? std::atoi(argv[2]) : 4;

  std::printf("Space-time diagram, n=%u k=%u — symbols: o agent, 8 two"
              " agents, * more, . visited, (space) unvisited\n\n", n, k);

  // --- Scenario 1: worst-case exploration (Thm 1 initialization). ---
  std::printf("1) all agents on node 0, pointers toward node 0 —"
              " exploration phase:\n\n");
  rr::core::RingRotorRouter explore(
      n, rr::core::place_all_on_one(k, n / 2),
      rr::core::pointers_toward(n, n / 2));
  rr::sim::TraceOptions opt;
  opt.rounds = 30ULL * n / 4;
  opt.stride = opt.rounds / 24;
  std::fputs(rr::sim::format_trace(
                 rr::sim::record_trace(
                     explore, opt, *rr::core::ring_painter(explore, false)))
                 .c_str(),
             stdout);
  std::printf("\n(the frontier advances ~sqrt(t): each extra node costs a"
              " full zig-zag of the outermost agent)\n\n");

  // --- Scenario 2: the stabilized limit behaviour with domains. ---
  std::printf("2) after stabilization — domain mode (letters = domain of"
              " each agent):\n\n");
  const auto agents = rr::core::place_equally_spaced(n, k);
  rr::core::RingRotorRouter limit(n, agents,
                                  rr::core::pointers_negative(n, agents));
  limit.run_until_covered(8ULL * n * n);
  limit.run(4ULL * n * n / k);
  rr::sim::TraceOptions opt2;
  opt2.rounds = 2ULL * n / k;
  opt2.stride = std::max<std::uint64_t>(1, opt2.rounds / 24);
  std::fputs(rr::sim::format_trace(
                 rr::sim::record_trace(
                     limit, opt2, *rr::core::ring_painter(limit, true)))
                 .c_str(),
             stdout);

  const auto snap = rr::core::compute_domains(limit);
  std::printf("\ndomains: %zu, sizes within [%u, %u] (n/k = %u); each agent"
              " sweeps its own arc, visiting every node once per ~2n/k"
              " rounds (Thm 6).\n",
              snap.domains.size(), snap.min_size(), snap.max_size(), n / k);

  // --- Scenario 3: torus exploration, engine-generic renderer. ---
  // 2-D substrates draw through sim/trace (observer-driven): each frame is
  // a block of rows, 'o' marks nodes whose visit count grew since the
  // previous sample — the advancing frontier reads as a growing blob.
  const rr::graph::NodeId side = 12;
  std::printf("\n3) %ux%u torus, %u rotor-router agents at the corners of"
              " one column — frontier growth (generic trace):\n\n",
              side, side, 4u);
  rr::graph::Graph torus = rr::graph::torus(side, side);
  rr::core::RotorRouter frontier(
      torus, {0, side * (side / 2), side / 2, side * (side / 2) + side / 2});
  rr::sim::TraceOptions topt;
  topt.rounds = 4ULL * side;
  topt.stride = topt.rounds / 4;
  topt.width = side;
  std::fputs(
      rr::sim::format_trace(rr::sim::record_trace(frontier, topt)).c_str(),
      stdout);
  std::printf("\n(t=%llu: coverage %.0f%% — Yanovski-style lock-in covers"
              " every node within 2D|E| rounds on any graph)\n",
              static_cast<unsigned long long>(frontier.time()),
              100.0 * frontier.coverage());
  return 0;
}
