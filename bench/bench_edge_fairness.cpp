// E-FAIR (Yanovski et al., cited in Sec. 1.2): "the multi-agent
// rotor-router eventually visits all edges of the graph a similar number
// of times."
//
// Using the arc-traversal identity of Sec. 1.3 (ceil((e_v - port)/deg)),
// this bench measures, across topologies and agent counts, the spread
// max/min of per-arc traversal counts after a long run — it converges
// toward 1, i.e. perfectly fair edge usage, which is also the fairness
// property motivating equitable strategies (Sec. 1.2).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/runner.hpp"
#include "analysis/table.hpp"
#include "core/rotor_router.hpp"
#include "graph/generators.hpp"

namespace {

using rr::analysis::Table;
using rr::graph::CsrGraph;
using rr::graph::NodeId;

struct Fairness {
  std::uint64_t min_arc;
  std::uint64_t max_arc;
};

Fairness arc_fairness(const rr::core::RotorRouter& rr) {
  const rr::graph::CsrGraph& g = rr.graph();  // engines expose the CSR view
  Fairness f{~std::uint64_t{0}, 0};
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (std::uint32_t p = 0; p < g.degree(v); ++p) {
      const std::uint64_t c = rr.arc_traversals(v, p);
      f.min_arc = std::min(f.min_arc, c);
      f.max_arc = std::max(f.max_arc, c);
    }
  }
  return f;
}

}  // namespace

int main() {
  rr::sim::print_bench_header(
      "Edge-usage fairness of the multi-agent rotor-router",
      "Yanovski et al. [27] via the Sec. 1.3 arc-traversal identity");

  struct Topo {
    std::string name;
    CsrGraph g;
  };
  std::vector<Topo> topologies;
  topologies.push_back({"ring(128)", rr::graph::ring(128)});
  topologies.push_back({"grid(10x10)", rr::graph::grid(10, 10)});
  topologies.push_back({"torus(10x10)", rr::graph::torus(10, 10)});
  topologies.push_back({"hypercube(6)", rr::graph::hypercube(6)});
  topologies.push_back({"binary_tree(127)", rr::graph::binary_tree(127)});
  topologies.push_back({"random_3_regular(100)",
                        rr::graph::random_regular(100, 3, 17)});

  const std::uint64_t horizon_multiplier = rr::sim::scaled(400, 50);

  for (std::uint32_t k : {1u, 4u, 16u}) {
    Table t({"topology (k=" + std::to_string(k) + ")", "rounds",
             "min arc count", "max arc count", "max/min"});
    for (const auto& topo : topologies) {
      std::vector<NodeId> agents(k, 0);
      rr::core::RotorRouter rr(topo.g, agents);
      const std::uint64_t rounds =
          horizon_multiplier * topo.g.num_arcs() / std::max(1u, k);
      rr.run(rounds);
      const auto f = arc_fairness(rr);
      t.add_row({topo.name, Table::integer(rounds),
                 Table::integer(f.min_arc), Table::integer(f.max_arc),
                 f.min_arc > 0
                     ? Table::num(static_cast<double>(f.max_arc) / f.min_arc, 3)
                     : "inf"});
    }
    t.print();
    std::printf("\n");
  }
  std::printf("max/min -> 1 with longer horizons: every arc is traversed"
              " once per 2|E| agent-steps in the limit, for any k — the"
              " deterministic analogue of the random walk's uniform edge"
              " frequency (Sec. 1 intro).\n");
  return 0;
}
