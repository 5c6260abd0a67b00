// Example: rotor-router as a deterministic load balancer (Sec. 1.2).
//
// For k > n the "agents" are better viewed as indistinguishable work
// tokens hopping between processors (Cooper & Spencer; Akbari &
// Berenbrink; Berenbrink et al.). The rotor-router's round-robin port
// discipline spreads tokens like a random walk does in expectation, but
// deterministically: the per-node discrepancy w.r.t. the uniform load
// stays O(1) on the ring/grid. This example starts with all load on one
// node and tracks the max discrepancy over time for the rotor-router vs a
// randomized token diffusion.
//
//   ./build/examples/load_balancing [tokens-per-node]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "analysis/table.hpp"
#include "core/rotor_router.hpp"
#include "graph/generators.hpp"
#include "walk/random_walk.hpp"

namespace {

using rr::analysis::Table;
using rr::graph::CsrGraph;
using rr::graph::NodeId;

double max_discrepancy(const std::vector<std::uint32_t>& load, double target) {
  double worst = 0.0;
  for (std::uint32_t c : load) {
    worst = std::max(worst, std::abs(static_cast<double>(c) - target));
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint32_t per_node = argc > 1 ? std::atoi(argv[1]) : 8;
  CsrGraph g = rr::graph::torus(16, 16);
  const NodeId n = g.num_nodes();
  const std::uint32_t total = per_node * n;
  std::printf("Load balancing on a 16x16 torus: %u tokens, all initially on"
              " node 0 (uniform load would be %u per node)\n\n",
              total, per_node);

  // Deterministic: multi-token rotor-router.
  std::vector<NodeId> tokens(total, 0);
  rr::core::RotorRouter rotor(g, tokens);

  // Randomized baseline: every token does an independent random walk.
  rr::walk::GraphRandomWalks walks(g, tokens, 4242);

  Table t({"round", "rotor max |load - avg|", "walk max |load - avg|"});
  std::vector<std::uint32_t> rotor_load(n), walk_load(n);
  const int rounds = 4096;
  int next_report = 1;
  for (int round = 1; round <= rounds; ++round) {
    rotor.step();
    walks.step();
    if (round == next_report) {
      for (NodeId v = 0; v < n; ++v) rotor_load[v] = rotor.agents_at(v);
      std::fill(walk_load.begin(), walk_load.end(), 0);
      for (std::uint32_t i = 0; i < total; ++i) ++walk_load[walks.position(i)];
      t.add_row({Table::integer(round),
                 Table::num(max_discrepancy(rotor_load, per_node), 1),
                 Table::num(max_discrepancy(walk_load, per_node), 1)});
      next_report *= 4;
    }
  }
  t.print();

  std::printf("\nThe rotor-router converges to a *bounded* discrepancy"
              " (tokens spread round-robin over the ports), while the"
              " random diffusion keeps sqrt(load)-sized fluctuations"
              " forever — the deterministic system beats the expectation"
              " it imitates (Cooper & Spencer).\n");
  return 0;
}
