#include "graph/eulerian.hpp"

#include <algorithm>

namespace rr::graph {

std::vector<std::size_t> arc_offsets(const CsrGraph& g) {
  std::vector<std::size_t> offsets(g.num_nodes() + 1, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    offsets[v + 1] = offsets[v] + g.degree(v);
  }
  return offsets;
}

std::vector<Arc> eulerian_circuit(const CsrGraph& g, NodeId start) {
  RR_REQUIRE(g.num_edges() > 0, "Eulerian circuit needs at least one edge");
  RR_REQUIRE(g.is_connected(), "Eulerian circuit needs a connected graph");
  RR_REQUIRE(start < g.num_nodes(), "start out of range");

  // Hierholzer on the symmetric directed version: every node's out-degree
  // equals its in-degree (= deg), so a circuit through all arcs exists.
  // next_port[v]: first untraversed outgoing port at v.
  std::vector<std::uint32_t> next_port(g.num_nodes(), 0);
  std::vector<Arc> stack;      // current partial trail (as arcs)
  std::vector<Arc> circuit;    // finished arcs in reverse order
  circuit.reserve(g.num_arcs());

  NodeId v = start;
  while (true) {
    if (next_port[v] < g.degree(v)) {
      const Arc a{v, next_port[v]++};
      stack.push_back(a);
      v = a.head(g);
    } else if (!stack.empty()) {
      circuit.push_back(stack.back());
      v = stack.back().tail;
      stack.pop_back();
    } else {
      break;
    }
  }
  std::reverse(circuit.begin(), circuit.end());
  RR_REQUIRE(circuit.size() == g.num_arcs(),
             "graph must be connected for a full circuit");
  return circuit;
}

bool is_eulerian_circuit(const CsrGraph& g, const std::vector<Arc>& circuit) {
  if (circuit.size() != g.num_arcs()) return false;
  const auto offsets = arc_offsets(g);
  std::vector<bool> used(g.num_arcs(), false);
  for (std::size_t i = 0; i < circuit.size(); ++i) {
    const Arc& a = circuit[i];
    if (a.tail >= g.num_nodes() || a.port >= g.degree(a.tail)) return false;
    const std::size_t id = offsets[a.tail] + a.port;
    if (used[id]) return false;
    used[id] = true;
    const Arc& b = circuit[(i + 1) % circuit.size()];
    if (a.head(g) != b.tail) return false;  // incidence (and closure at wrap)
  }
  return true;
}

std::vector<Arc> rotor_walk_arcs(const CsrGraph& g, NodeId start,
                                 std::uint64_t steps) {
  RR_REQUIRE(start < g.num_nodes(), "start out of range");
  std::vector<std::uint32_t> ptr(g.num_nodes(), 0);
  std::vector<Arc> arcs;
  arcs.reserve(steps);
  NodeId pos = start;
  for (std::uint64_t t = 0; t < steps; ++t) {
    const Arc a{pos, ptr[pos]};
    ptr[pos] = (ptr[pos] + 1 == g.degree(pos)) ? 0 : ptr[pos] + 1;
    pos = a.head(g);
    arcs.push_back(a);
  }
  return arcs;
}

}  // namespace rr::graph
